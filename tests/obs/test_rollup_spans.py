"""Rollup tier x span plane, and runs sharing one router.

A cache hit is a complete trace by itself (root + ``rollup.hit``), in
the driver's clock domain on both planes; and the components that
outlive a run — the router, the translation service — hold no sink of
any run, so runs over one router, sequential or concurrent, each count
only their own queries.
"""

from dataclasses import replace

import pytest

from repro.metrics import MetricsRegistry
from repro.obs import SpanTracer
from repro.paper import paper_system_config
from repro.query.model import Condition, Query
from repro.query.workload import QueryClass, TimedQuery, WorkloadSpec
from repro.serve import FakeClock, NullExecutor, ServeEngine
from repro.sim import HybridSystem
from repro.sim.validate import assert_valid, audit

from tests.sim.test_system_rollup import make_router

SEED = 19


@pytest.fixture()
def config(translator):
    """The analytic paper system sharing the suite's translation service
    (hits never reach the scheduler, so nothing here needs real data)."""
    return replace(
        paper_system_config(include_32gb=False), translation_service=translator
    )


@pytest.fixture()
def router(fact_table, small_schema):
    return make_router(fact_table, small_schema)


def covered_query(query_id):
    return Query(
        conditions=(Condition("date", 1, lo=0, hi=3),),
        measures=("sales_price",),
        query_id=query_id,
    )


def assert_hit_tree(spans, root_name, now):
    """Root + ``rollup.hit``, both ``[now, now]``, branch ``cache-hit``."""
    by_name = {s.name: s for s in spans}
    assert sorted(by_name) == sorted([root_name, "rollup.hit"])
    root, hit = by_name[root_name], by_name["rollup.hit"]
    assert root.parent_id is None and root.status == "ok"
    assert root.attributes["branch"] == "cache-hit"
    assert hit.parent_id == root.span_id and hit.track == "rollup"
    assert hit.attributes["source"] == "date,item,store"
    assert hit.attributes["seconds"] >= 0.0  # the real projection time rides here
    # zero-cost in the driver's clock: no wall-clock microseconds leak in
    assert (root.start, root.end, hit.start, hit.end) == (now,) * 4


class TestHitSpans:
    def test_hit_under_the_serve_engine(self, config, router):
        tracer = SpanTracer(1.0, seed=SEED, process="serve")
        clock = FakeClock()
        engine = ServeEngine(
            config,
            clock=clock,
            executor=NullExecutor(),
            rollup=router,
            spans=tracer,
        ).start()
        try:
            clock.advance(0.02)
            outcome = engine.submit(covered_query(1))
            assert outcome.cache_hit
            engine.drain()
        finally:
            engine.stop(finish_queued=False)
        spans = tracer.spans()
        assert_valid(
            engine.report(), spans=spans, seed=SEED, sample_rate=1.0, submitted=[1]
        )
        assert_hit_tree(spans, "serve.query", 0.02)

    def test_hit_in_simulation(self, config, router):
        tracer = SpanTracer(1.0, seed=SEED, process="sim")
        # the conftest audit checks the spans of every run(spans=)
        report = HybridSystem(config).run(
            [TimedQuery(0.02, covered_query(1), "small")], rollup=router, spans=tracer
        )
        assert report.cache_hit_count == 1
        assert_hit_tree(tracer.spans(), "sim.query", 0.02)


class TestPerRunSinks:
    @pytest.fixture()
    def stream(self, small_schema):
        """Integer-only small queries: every shape is resolution-1 covered."""
        spec = WorkloadSpec(
            small_schema.dimensions,
            [QueryClass("small", 1.0, resolution=1, coverage=(0.1, 0.6))],
            measures=("sales_price",),
            seed=7,
        )
        return list(spec.generate(20))

    def test_second_run_does_not_count_into_the_first_runs_sinks(
        self, config, router, stream
    ):
        registry = MetricsRegistry()
        tracer = SpanTracer(1.0, seed=SEED)
        system = HybridSystem(config)
        first = system.run(stream, rollup=router, metrics=registry, spans=tracer)
        assert first.cache_hit_count == 20
        hits = registry.collect(first.horizon).value("repro_rollup_hits_total")
        spans = len(tracer.spans())
        assert hits == 20.0 and spans == 40

        system.run(stream, rollup=router)  # un-instrumented, same router
        assert router.hits == 40
        after = registry.collect(first.horizon).value("repro_rollup_hits_total")
        assert after == hits
        assert len(tracer.spans()) == spans

    def test_two_live_engines_share_one_router(self, config, router):
        """A second engine built over the router (and so over the config's
        translator) while the first still serves must not detach the
        first one's counters: both engines' hits stay in their own books."""
        registry = MetricsRegistry()
        tracer = SpanTracer(1.0, seed=SEED)
        clock = FakeClock()

        def engine(**attachments):
            return ServeEngine(
                config, clock=clock, executor=NullExecutor(), rollup=router, **attachments
            ).start()

        metered = engine(metrics=registry, spans=tracer)
        bare = engine()
        try:
            for query_id in range(1, 7):
                clock.advance(0.01)
                served_by = metered if query_id % 2 else bare
                assert served_by.submit(covered_query(query_id)).cache_hit
            metered.drain()
            bare.drain()
        finally:
            metered.stop(finish_queued=False)
            bare.stop(finish_queued=False)
        report = metered.report()
        assert report.cache_hit_count == 3 and bare.report().cache_hit_count == 3
        assert router.hits == 6
        snapshot = registry.collect(metered.elapsed)
        result = audit(
            report,
            require_drained=True,
            snapshot=snapshot,
            spans=tracer.spans(),
            seed=SEED,
            sample_rate=1.0,
            submitted=[1, 3, 5],
        )
        assert result.ok, result.summary()
        assert snapshot.value("repro_rollup_hits_total") == 3.0
