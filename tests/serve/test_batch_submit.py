"""Batched submission under a fake clock, plus the ticket-lifetime fixes.

``submit_batch`` must be observably identical to a ``submit`` loop —
same decisions, same outcomes, same audit-clean reports and traces —
while holding the engine lock once per admitted chunk.  The second half
pins the bugfixes that rode along: ``Ticket.wait`` returning ``False``
(not hanging) when the engine stops first, and drain timeouts naming
the stranded query ids.
"""

import dataclasses
import functools
import threading

import pytest

from repro.core.admission import AdmissionControlScheduler
from repro.core.scheduler import QueryEstimates
from repro.errors import BackpressureError, ServeError
from repro.query.model import Query
from repro.sim.obs import TraceCollector
from repro.sim.validate import assert_valid

from tests.serve.conftest import CPU_FAST, GPU_ONLY, GPU_TEXT, wait_until


def make_query():
    return Query(conditions=(), measures=("v",))


class GatedExecutor:
    """NullExecutor whose processing stage blocks on a test-held gate."""

    def __init__(self):
        self.gate = threading.Event()

    def translate(self, query):
        return query

    def execute(self, target, query):
        self.gate.wait()
        return None


class TestSubmitBatch:
    def test_outcomes_align_and_audit_clean(self, make_engine):
        collector = TraceCollector()
        engine = make_engine(
            CPU_FAST, GPU_ONLY, GPU_TEXT, collector=collector
        ).start()
        queries = [make_query() for _ in range(9)]
        outcomes = engine.submit_batch(queries)
        assert [o.decision.query.query_id for o in outcomes] == [
            q.query_id for q in queries
        ]
        assert all(o.accepted for o in outcomes)
        engine.drain()
        report = engine.report()
        assert report.completed == 9
        assert_valid(report, require_drained=True, collector=collector)
        # one decision per query, in submission order
        decided = [e.query_id for e in collector.events if e.kind == "decision"]
        assert decided == [q.query_id for q in queries]

    def test_matches_sequential_submit_loop(self, make_engine):
        estimates = [CPU_FAST, GPU_ONLY, GPU_TEXT] * 4
        queries = [make_query() for _ in estimates]
        seq_engine = make_engine(*estimates).start()
        seq = [seq_engine.submit(q) for q in queries]
        seq_engine.drain()
        bat_engine = make_engine(*estimates).start()
        bat = bat_engine.submit_batch(queries)
        bat_engine.drain()

        def key(outcome):
            d = outcome.decision
            return (
                d.target.name,
                d.processing.estimated_start,
                d.processing.estimated_finish,
                d.estimated_response,
                d.translation is not None,
            )

        # same FakeClock instant, same estimate sequence: the decisions
        # must be identical pairwise (the per-engine query objects
        # differ, their placement must not)
        assert list(map(key, seq)) == list(map(key, bat))

    def test_per_query_classes(self, make_engine):
        engine = make_engine(CPU_FAST).start()
        queries = [make_query() for _ in range(3)]
        engine.submit_batch(queries, ["gold", "silver", "gold"])
        engine.drain()
        classes = {
            r.query_id: r.query_class for r in engine.report().records
        }
        assert classes == {
            queries[0].query_id: "gold",
            queries[1].query_id: "silver",
            queries[2].query_id: "gold",
        }
        with pytest.raises(ServeError, match="2 entries for 1"):
            engine.submit_batch([make_query()], ["a", "b"])

    def test_rejections_land_in_position(self, serve_config, make_engine):
        strict = dataclasses.replace(
            serve_config,
            scheduler_factory=functools.partial(
                AdmissionControlScheduler, lateness_factor=0.0
            ),
        )
        hopeless = QueryEstimates(t_cpu=10.0, t_gpu={1: 10.0, 2: 9.0, 4: 8.0})
        engine = make_engine(
            CPU_FAST, hopeless, CPU_FAST, config=strict
        ).start()
        outcomes = engine.submit_batch([make_query() for _ in range(3)])
        assert [o.accepted for o in outcomes] == [True, False, True]
        assert outcomes[1].ticket is None and outcomes[1].decision is None
        engine.drain()
        report = engine.report()
        assert report.rejected == 1 and report.completed == 2
        assert_valid(report, require_drained=True)

    def test_chunks_at_the_in_flight_bound(self, make_engine):
        executor = GatedExecutor()
        engine = make_engine(
            CPU_FAST, executor=executor, max_in_flight=2
        ).start()
        outcomes = []

        def client():
            outcomes.extend(engine.submit_batch([make_query() for _ in range(5)]))

        t = threading.Thread(target=client)
        t.start()
        # first chunk admitted up to the bound, the rest blocked
        wait_until(lambda: engine.in_flight == 2, what="first chunk admitted")
        assert not outcomes
        executor.gate.set()
        t.join(timeout=5.0)
        assert len(outcomes) == 5 and all(o.accepted for o in outcomes)
        engine.drain()
        assert engine.report().completed == 5

    def test_nonblocking_keeps_admitted_prefix(self, make_engine):
        executor = GatedExecutor()
        engine = make_engine(
            CPU_FAST, executor=executor, max_in_flight=2
        ).start()
        with pytest.raises(BackpressureError) as exc_info:
            engine.submit_batch(
                [make_query() for _ in range(5)], block=False
            )
        # the first chunk filled the bound and stays admitted; its
        # outcomes ride on the exception for the load generator
        partial = exc_info.value.outcomes
        assert len(partial) == 2 and all(o.accepted for o in partial)
        assert engine.in_flight == 2
        executor.gate.set()
        engine.drain()
        assert engine.report().completed == 2


class TestTicketLifetime:
    def test_wait_returns_false_after_stop(self, make_engine):
        executor = GatedExecutor()
        engine = make_engine(CPU_FAST, executor=executor).start()
        outcome = engine.submit(make_query())
        engine.stop(finish_queued=False)
        executor.gate.set()
        # the engine stopped before the query ran: the ticket is
        # abandoned — wait() unblocks with False instead of hanging
        assert outcome.ticket.wait(timeout=1.0) is False
        assert outcome.ticket.done is False

    def test_drain_timeout_names_stranded_queries(self, make_engine):
        executor = GatedExecutor()
        engine = make_engine(CPU_FAST, executor=executor).start()
        q1, q2 = make_query(), make_query()
        engine.submit(q1)
        engine.submit(q2)
        with pytest.raises(
            ServeError,
            match=f"stranded query ids: \\[{q1.query_id}, {q2.query_id}\\]",
        ):
            engine.drain(timeout=0.05)
        executor.gate.set()

    def test_completed_ticket_survives_stop(self, make_engine):
        engine = make_engine(CPU_FAST).start()
        outcome = engine.submit(make_query())
        assert outcome.ticket.wait(timeout=5.0)
        engine.stop()
        assert outcome.ticket.done
        assert outcome.ticket.record is not None
