"""ServeEngine × rollup cache tier: the hot-path integration.

The router sits inside ``submit`` — after the arrival event, before
``on_submitted`` — so cache hits never enter the scheduler books and
the existing invariant families hold unchanged while the seventh
("rollup") audits the hits themselves.
"""

import dataclasses

import pytest

from repro.metrics import MetricsRegistry
from repro.olap import (
    ROLLUP_TARGET,
    AdmissionPolicy,
    CuboidSpec,
    RollupCatalog,
    RollupRouter,
)
from repro.query.model import Condition, Query
from repro.sim import TraceCollector
from repro.sim.validate import assert_valid, audit

from tests.serve.conftest import CPU_FAST, GPU_TEXT


def covered_query():
    return Query(
        conditions=(Condition("date", 1, lo=0, hi=3),),
        measures=("sales_price",),
    )


def uncovered_query():
    return Query(
        conditions=(Condition("date", 3, lo=0, hi=3),),
        measures=("sales_price",),
    )


def out_of_range_query():
    """The covered shape, with a range past ``date``'s members at resolution 1."""
    return Query(
        conditions=(Condition("date", 1, lo=0, hi=10_000),),
        measures=("sales_price",),
    )


def make_router(fact_table, small_schema):
    catalog = RollupCatalog(fact_table, "sales_price")
    names = tuple(d.name for d in small_schema.dimensions)
    catalog.materialise_and_install(
        CuboidSpec(dims=names, resolutions=(2,) * len(names))
    )
    return RollupRouter(catalog, policy=AdmissionPolicy(byte_budget=1 << 30))


@pytest.fixture()
def router(fact_table, small_schema):
    return make_router(fact_table, small_schema)


class TestSubmitHook:
    def test_hit_returns_finished_ticket(self, make_engine, router):
        engine = make_engine(CPU_FAST, rollup=router)
        with engine:
            outcome = engine.submit(covered_query())
        assert outcome.accepted and outcome.cache_hit
        assert outcome.decision is None
        assert outcome.ticket.done
        assert outcome.ticket.record.target == ROLLUP_TARGET
        assert outcome.ticket.record.answer is not None

    def test_hits_stay_out_of_scheduler_books(self, make_engine, router):
        collector = TraceCollector()
        engine = make_engine(CPU_FAST, rollup=router, collector=collector)
        with engine:
            hit = engine.submit(covered_query())
            miss = engine.submit(uncovered_query())
            miss.ticket.wait(timeout=5.0)
        assert hit.cache_hit and not miss.cache_hit
        report = engine.report()
        assert report.cache_hit_count == 1
        # the hit is invisible to the scheduler books: one record, no rejects
        assert len(report.records) == 1
        assert report.rejected == 0
        result = audit(report, require_drained=True, collector=collector)
        assert result.ok, result.summary()
        assert {"rollup", "trace"} <= set(result.checked)
        kinds = collector.kinds_for(hit.ticket.record.query_id)
        assert kinds == ("arrival", "cache-hit")

    def test_no_router_means_no_change(self, make_engine):
        engine = make_engine(CPU_FAST)
        with engine:
            outcome = engine.submit(covered_query())
            outcome.ticket.wait(timeout=5.0)
        assert not outcome.cache_hit
        assert engine.report().cache_hit_count == 0

    def test_a_covered_shape_the_cuboid_cannot_answer_is_a_miss(self, make_engine, router):
        """The cuboid covers ``date`` at resolution 1, but this range runs
        past the level's members: the router misses, and the query takes
        the scheduler path exactly as it does on an engine without one."""
        outcomes = []
        for kwargs in ({"rollup": router}, {}):
            with make_engine(CPU_FAST, **kwargs) as engine:
                outcome = engine.submit(out_of_range_query())
                outcome.ticket.wait(timeout=5.0)
            outcomes.append((outcome.accepted, outcome.cache_hit, outcome.ticket.done))
        assert outcomes == [(True, False, True)] * 2
        assert (router.hits, router.misses) == (0, 1)

    def test_metrics_wiring_and_reconciliation(self, make_engine, router):
        registry = MetricsRegistry()
        engine = make_engine(CPU_FAST, rollup=router, metrics=registry)
        with engine:
            engine.submit(covered_query())
            engine.submit(covered_query())
            miss = engine.submit(uncovered_query())
            miss.ticket.wait(timeout=5.0)
        report = engine.report()
        snapshot = registry.collect(engine.elapsed)
        result = audit(report, snapshot=snapshot)
        assert result.ok and "rollup" in result.checked, result.summary()
        assert snapshot.family("repro_rollup_hits_total").total() == 2
        assert snapshot.family("repro_rollup_misses_total").total() == 1

    def test_effective_rate_counts_hits(self, make_engine, router):
        engine = make_engine(CPU_FAST, rollup=router)
        with engine:
            engine.submit(covered_query())
            miss = engine.submit(uncovered_query())
            miss.ticket.wait(timeout=5.0)
        report = engine.report()
        assert report.cache_hit_rate == pytest.approx(0.5)
        assert report.effective_queries_per_second >= report.queries_per_second
        assert "cache-served" in report.summary()


class TestSubmitIsABatchOfOne:
    """``submit`` and ``submit_batch`` drive one chunk body: a ``submit``
    loop and singleton batches must leave identical outcomes, books,
    events and partition samples."""

    @staticmethod
    def _run(engine, collector, submit_all):
        # not started yet: only the submission half runs, on this
        # thread, so the streams it leaves are fully ordered
        outcomes = submit_all(engine)
        events = [
            (e.kind, e.time, e.query_id, repr(e.data))
            for e in collector.events
        ]
        samples = {
            name: [dataclasses.astuple(s) for s in rows]
            for name, rows in collector.series.items()
        }
        engine.start()
        engine.drain()
        return outcomes, events, samples, engine.report()

    def test_streams_outcomes_and_books_match(
        self, make_engine, fact_table, small_schema
    ):
        def router():  # one per engine: the admission policy keeps state
            return make_router(fact_table, small_schema)

        # hits and misses interleaved; the misses alternate CPU / GPU+text
        queries = [
            covered_query() if i % 3 else uncovered_query() for i in range(18)
        ]
        seq_trace, bat_trace = TraceCollector(), TraceCollector()
        seq = self._run(
            make_engine(CPU_FAST, GPU_TEXT, rollup=router(), collector=seq_trace),
            seq_trace,
            lambda engine: [engine.submit(q) for q in queries],
        )
        bat = self._run(
            make_engine(CPU_FAST, GPU_TEXT, rollup=router(), collector=bat_trace),
            bat_trace,
            lambda engine: [engine.submit_batch([q])[0] for q in queries],
        )

        def outcome_key(outcome):
            d = outcome.decision
            placed = d and (d.target.name, d.processing, d.translation, d.deadline)
            return outcome.accepted, outcome.cache_hit, placed

        assert list(map(outcome_key, seq[0])) == list(map(outcome_key, bat[0]))
        assert seq[1] == bat[1]  # events, in order
        # one sample per submission on both paths: 18 rows per partition
        assert seq[2] == bat[2]
        assert {len(rows) for rows in seq[2].values()} == {len(queries)}
        seq_report, bat_report = seq[3], bat[3]
        assert seq_report.cache_hits == bat_report.cache_hits
        assert seq_report.submissions == bat_report.submissions
        assert seq_report.rejected == bat_report.rejected == 0
        assert sorted(seq_report.records, key=lambda r: r.query_id) == sorted(
            bat_report.records, key=lambda r: r.query_id
        )
        for report, trace in ((seq_report, seq_trace), (bat_report, bat_trace)):
            assert_valid(report, require_drained=True, collector=trace)
