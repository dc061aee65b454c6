"""The shard request handler driven in-process (no sockets, no spawn).

``_ShardServer.handle`` is a pure request->response function once the
engine exists, so everything except the actual process/spawn machinery
is testable at function-call speed against a tiny real world.
"""

import threading

import pytest

from repro.fleet.protocol import query_from_json, query_to_json, record_from_json
from repro.fleet.worker import (
    ShardSpec,
    _ShardServer,
    build_serve_world,
    build_shard_engine,
)
from repro.obs import format_traceparent
from repro.query.model import Condition, Query

from tests.serve.conftest import wait_until


def tiny_spec(**overrides):
    defaults = dict(shard_id=7, rows=600, cpu_threads=1, translation_workers=1)
    defaults.update(overrides)
    return ShardSpec(**defaults)


def small_query(hi=3, agg="sum"):
    return Query(
        conditions=(Condition("date", 1, lo=0, hi=hi),),
        measures=("sales_price",),
        agg=agg,
    )


@pytest.fixture(scope="module")
def server():
    srv = _ShardServer(tiny_spec())
    srv.engine.start()
    yield srv
    if not srv._drained:
        srv.engine.stop(finish_queued=False)


@pytest.mark.wallclock
class TestShardHandlers:
    def test_build_is_deterministic_in_the_spec(self):
        spec = tiny_spec()
        engine_a, _, _ = build_shard_engine(spec)
        engine_b, _, _ = build_shard_engine(spec)
        query = small_query()
        with engine_a, engine_b:
            a = engine_a.submit(query, "small")
            b = engine_b.submit(query_from_json(query_to_json(query)), "small")
            assert a.ticket.wait(timeout=30) and b.ticket.wait(timeout=30)
        assert a.ticket.record.answer == b.ticket.record.answer

    def test_ping_reports_identity_and_state(self, server):
        response = server.handle({"kind": "ping"})
        assert response["ok"] and response["shard_id"] == 7
        assert response["drained"] is False

    def test_unknown_kind_is_an_error_response(self, server):
        response = server.handle({"kind": "frobnicate"})
        assert not response["ok"]
        assert "frobnicate" in response["error"]

    def test_handler_exception_becomes_error_response(self, server):
        response = server.handle({"kind": "query"})  # no "query" field
        assert not response["ok"]
        assert "KeyError" in response["error"]

    def test_query_round_trips_a_record(self, server):
        response = server.handle(
            {
                "kind": "query",
                "query": query_to_json(small_query()),
                "class": "small",
            }
        )
        assert response["ok"] and response["accepted"]
        record = record_from_json(response["record"])
        assert record.query_class == "small"
        assert record.answer is not None

    def test_off_measure_query_is_answered_from_the_fact_table(self, server):
        """The shard's pyramid holds ``sales_price``; ``sum(quantity)``
        must come from the GPU scan, not from those cubes."""
        query = Query(
            conditions=(Condition("date", 0, lo=0, hi=2),), measures=("quantity",)
        )
        response = server.handle({"kind": "query", "query": query_to_json(query)})
        record = record_from_json(response["record"])
        _, dataset = build_serve_world(server.spec)
        assert record.answer == pytest.approx(dataset.table.execute(query).value())
        assert record.target.startswith("Q_G")

    def test_metrics_snapshot_serialises(self, server):
        response = server.handle({"kind": "metrics"})
        names = {f["name"] for f in response["snapshot"]["families"]}
        assert "repro_queries_submitted_total" in names

    def test_shutdown_drains_audits_and_reports(self):
        srv = _ShardServer(tiny_spec(shard_id=3))
        srv.engine.start()
        for hi in (2, 3, 4):
            assert srv.handle(
                {
                    "kind": "query",
                    "query": query_to_json(small_query(hi=hi)),
                    "class": "small",
                }
            )["accepted"]
        response = srv.handle({"kind": "shutdown", "drain": True})
        assert response["ok"]
        assert response["drain_error"] is None
        assert len(response["records"]) == 3
        assert response["validation"].startswith("ok")
        # idempotent: a second shutdown does not re-drain or change books
        again = srv.handle({"kind": "shutdown", "drain": True})
        assert len(again["records"]) == 3

    def test_local_audit_covers_the_rollup_counters(self):
        """The shard carries a rollup router and a registry, so its audit
        owes the ``rollup`` family's metrics layer (the parent ran books
        + ``metrics`` only and called this shard ok)."""
        srv = _ShardServer(tiny_spec(shard_id=4))
        srv.engine.start()
        assert srv.handle(
            {"kind": "query", "query": query_to_json(small_query()), "class": "small"}
        )["accepted"]
        healthy = srv._shard_books(validate=False)["snapshot"]
        assert any(f["name"] == "repro_rollup_hits_total" for f in healthy["families"])
        # a hit counted that the books never saw
        srv.registry.counter("repro_rollup_hits_total").inc()
        response = srv.handle({"kind": "shutdown", "drain": True})
        assert response["ok"]
        assert not response["validation"].startswith("ok")
        assert "[rollup]" in response["validation"]
        assert "repro_rollup_hits_total reads" in response["validation"]

    def test_shed_requests_leave_no_adopted_context(self):
        """A shard adopts a frame's trace context before its engine
        decides; a request shed by backpressure never opens a root, and
        its adoption must not outlive the request (it used to pile up,
        one per shed, and re-parent a later run of the same query)."""
        srv = _ShardServer(tiny_spec(shard_id=5, max_in_flight=1, span_sample=1.0))
        tracer = srv.engine.spans
        upstream = format_traceparent("aa" * 8, "bb" * 8)

        def ask(query, **fields):
            request = {"kind": "query", "query": query_to_json(query), "class": "small"}
            return srv.handle({**request, **fields})

        # not started: the first query holds the only in-flight slot
        assert "timed out" in ask(small_query(), timeout=0.0)["error"]
        shed = [small_query(hi=2) for _ in range(50)]
        for query in shed:
            response = ask(query, timeout=0.0, traceparent=upstream)
            assert response["ok"] and response["shed"]
        assert tracer._adopted == {}
        srv.engine.start()
        assert ask(shed[0], timeout=5.0)["accepted"]
        srv.engine.drain()
        spans = tracer.spans()
        (root,) = [s for s in spans if s.query_id == shed[0].query_id and s.name == "serve.query"]
        assert root.parent_id is None  # its own trace, not the stale upstream

    def test_a_query_stranded_by_stop_says_the_shard_is_stopping(self):
        """An engine stopped under a waiting request ends its query
        ABANDONED; the reply says so instead of claiming a timeout."""
        srv = _ShardServer(tiny_spec(shard_id=6))
        request = {"kind": "query", "query": query_to_json(small_query()), "timeout": 30.0}
        replies = []
        # not started: the query stays queued while the handler waits
        waiter = threading.Thread(target=lambda: replies.append(srv.handle(request)))
        waiter.start()
        wait_until(lambda: srv.engine.in_flight == 1, what="the query admitted")
        srv.engine.stop(finish_queued=False)
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        (reply,) = replies
        assert not reply["ok"] and reply["error"].endswith("shard stopping")
