"""HybridSystem × rollup cache tier: simulated-time integration.

Cache hits cost zero simulated time, land in ``report.cache_hits``
(never the scheduler books), and reconcile against the trace plane and
the live metrics plane through the seventh validation family.
"""

import pytest

from repro.core.perfmodel import XEON_X5667_8T
from repro.gpu import SimulatedGPU
from repro.gpu.partitioning import paper_partition_scheme
from repro.gpu.timing import TESLA_C2070_TIMING
from repro.metrics import MetricsRegistry
from repro.olap import (
    ROLLUP_TARGET,
    AdmissionPolicy,
    CuboidSpec,
    RollupCatalog,
    RollupRouter,
)
from repro.query.workload import QueryClass, WorkloadSpec
from repro.sim import HybridSystem, SystemConfig, TraceCollector
from repro.sim.validate import audit, seed_violation
from repro.units import GB


@pytest.fixture(scope="module")
def mat_config(fact_table, pyramid, translator):
    device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    device.load_table(fact_table)
    return SystemConfig(
        cpu_model=XEON_X5667_8T.with_overhead(0.002),
        pyramid=pyramid,
        device=device,
        scheme=paper_partition_scheme(),
        translation_service=translator,
        time_constraint=0.5,
    )


@pytest.fixture(scope="module")
def workload(small_schema):
    """Integer-only small queries: every shape is resolution-1 covered."""
    return WorkloadSpec(
        small_schema.dimensions,
        [QueryClass("small", 1.0, resolution=1, coverage=(0.1, 0.6))],
        measures=("sales_price",),
        seed=7,
    )


@pytest.fixture(scope="module")
def mixed_workload(small_schema):
    """Half covered (res 1), half too fine for the res-1 catalog."""
    return WorkloadSpec(
        small_schema.dimensions,
        [
            QueryClass("small", 0.5, resolution=1, coverage=(0.1, 0.6)),
            QueryClass("fine", 0.5, resolution=2, coverage=(0.1, 0.6)),
        ],
        measures=("sales_price",),
        seed=11,
    )


def make_router(fact_table, small_schema):
    catalog = RollupCatalog(fact_table, "sales_price")
    names = tuple(d.name for d in small_schema.dimensions)
    catalog.materialise_and_install(
        CuboidSpec(dims=names, resolutions=(1,) * len(names))
    )
    return RollupRouter(catalog, policy=AdmissionPolicy(byte_budget=1 << 30))


class TestSimulatedHits:
    def test_hits_are_zero_cost_and_out_of_books(
        self, mat_config, workload, fact_table, small_schema
    ):
        router = make_router(fact_table, small_schema)
        stream = workload.generate(100)
        report = HybridSystem(mat_config).run(stream, rollup=router)
        assert report.cache_hit_count > 0
        assert report.cache_hit_count == router.hits
        hit_ids = {r.query_id for r in report.cache_hits}
        assert all(r.target == ROLLUP_TARGET for r in report.cache_hits)
        assert all(r.finish_time == r.submit_time for r in report.cache_hits)
        assert not hit_ids & {r.query_id for r in report.records}
        # the conftest autouse audit already ran assert_valid; check the
        # family list explicitly here
        result = audit(report)
        assert result.ok and "rollup" in result.checked

    def test_same_stream_same_answers_as_uncached(
        self, mat_config, workload, fact_table, small_schema
    ):
        stream = list(workload.generate(60))
        cached = HybridSystem(mat_config).run(
            stream, rollup=make_router(fact_table, small_schema)
        )
        uncached = HybridSystem(mat_config).run(stream)
        by_id = {r.query_id: r for r in uncached.records}
        for hit in cached.cache_hits:
            assert hit.answer == pytest.approx(
                by_id[hit.query_id].answer, rel=1e-9
            )

    def test_trace_and_metrics_reconcile(
        self, mat_config, workload, fact_table, small_schema
    ):
        router = make_router(fact_table, small_schema)
        collector = TraceCollector()
        registry = MetricsRegistry()
        report = HybridSystem(mat_config).run(
            workload.generate(80),
            collector=collector,
            metrics=registry,
            rollup=router,
        )
        assert report.cache_hit_count > 0
        result = audit(report, collector=collector, snapshot=registry.collect(now=1e9))
        assert result.ok, result.violations
        assert "rollup" in result.checked
        assert (
            collector.event_counts().get("cache-hit", 0)
            == report.cache_hit_count
        )

    def test_seeded_rollup_violation_is_caught(
        self, mat_config, mixed_workload, fact_table, small_schema
    ):
        report = HybridSystem(mat_config).run(
            mixed_workload.generate(40),
            rollup=make_router(fact_table, small_schema),
        )
        assert report.cache_hit_count > 0 and len(report.records) > 0
        corrupted = seed_violation(report, "rollup")
        result = audit(corrupted)
        assert not result.ok
        assert any(v.invariant == "rollup" for v in result.violations)

    def test_summary_mentions_cache(
        self, mat_config, workload, fact_table, small_schema
    ):
        report = HybridSystem(mat_config).run(
            workload.generate(50),
            rollup=make_router(fact_table, small_schema),
        )
        assert "cache-served" in report.summary()
        assert (
            report.effective_queries_per_second >= report.queries_per_second
        )


class TestAdaptSeesHits:
    """A cache hit is a finished query that met its deadline: the adapt
    plane's SLO window must count it in simulation exactly as the serve
    engine does (``AdaptivePlane.on_outcome``: "including cache hits")."""

    def test_same_observation_count_on_both_planes(
        self, mat_config, mixed_workload, fact_table, small_schema
    ):
        from repro.adapt import AdaptivePlane
        from repro.serve import FakeClock, NullExecutor, ServeEngine

        def plane():
            # observe only: a window nothing ages out of, no actuators
            return AdaptivePlane(recalibrate=False, control=False, window=1e9)

        stream = list(mixed_workload.generate(80))
        sim_plane = plane()
        report = HybridSystem(mat_config).run(
            stream, rollup=make_router(fact_table, small_schema), adapt=sim_plane
        )
        assert report.cache_hit_count >= 20 and len(report.records) >= 20

        serve_plane = plane()
        engine = ServeEngine(
            mat_config,
            clock=FakeClock(),
            executor=NullExecutor(),
            rollup=make_router(fact_table, small_schema),
            adapt=serve_plane,
        )
        with engine:
            for timed in stream:
                engine.submit(timed.query, timed.query_class)
        assert engine.report().cache_hit_count == report.cache_hit_count

        assert sim_plane.monitor.window_count == len(stream)
        assert serve_plane.monitor.window_count == len(stream)
