"""Tests for the measure rule: a pyramid answers only its own measure.

``CubePyramid.aggregates`` is the one predicate; ``select_level``
enforces it, so an off-measure query gets no CPU estimate and both
planes answer it from the fact table on a GPU partition.
"""

import numpy as np
import pytest

from repro.errors import CubeNotAvailableError
from repro.olap.pyramid import CubePyramid, PyramidLevel
from repro.query.model import Condition, Query


@pytest.fixture(scope="module")
def quantity_pyramid(fact_table):
    return CubePyramid.from_fact_table(fact_table, "quantity", [0, 1, 2])


class TestDispatch:
    def test_answers_per_measure(self, quantity_pyramid, pyramid, fact_table):
        for own in (quantity_pyramid, pyramid):
            q = Query(
                conditions=(Condition("date", 1, lo=0, hi=8),), measures=(own.measure,)
            )
            assert own.aggregates(q)
            assert np.isclose(own.answer(q), fact_table.execute(q).value())

    def test_count_uses_any_pyramid(self, quantity_pyramid, pyramid, fact_table):
        q = Query(conditions=(Condition("store", 1, lo=0, hi=9),), measures=(), agg="count")
        named = Query(conditions=q.conditions, measures=("net_profit",), agg="count")
        for any_pyramid in (quantity_pyramid, pyramid):
            assert any_pyramid.answer(q) == fact_table.execute(q).value()
            assert any_pyramid.answer(named) == fact_table.execute(q).value()

    def test_unknown_measure_is_cube_not_available(self, quantity_pyramid):
        q = Query(conditions=(), measures=("net_profit",))
        assert not quantity_pyramid.aggregates(q)
        for refuse in (
            quantity_pyramid.select_level,
            quantity_pyramid.subcube_size_mb,
            quantity_pyramid.answer,
        ):
            with pytest.raises(CubeNotAvailableError, match="net_profit"):
                refuse(q)

    def test_select_level(self, quantity_pyramid):
        q = Query(conditions=(Condition("date", 2, lo=0, hi=4),), measures=("quantity",))
        assert max(quantity_pyramid.select_level(q).resolutions) == 2


def off_measure(query):
    return query.agg != "count" and "sales_price" not in query.measures


class TestSystemIntegration:
    @pytest.fixture()
    def mixed_world(self, fact_table, pyramid, small_schema, dataset):
        """(config over the sales_price pyramid, a 150-query stream
        mixing ``quantity`` and ``sales_price``)."""
        from repro.core.perfmodel import XEON_X5667_8T
        from repro.gpu import SimulatedGPU, paper_partition_scheme
        from repro.gpu.timing import TESLA_C2070_TIMING
        from repro.query.workload import QueryClass, WorkloadSpec
        from repro.sim import SystemConfig
        from repro.text import TranslationService, build_dictionaries
        from repro.units import GB

        device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
        device.load_table(fact_table)
        config = SystemConfig(
            cpu_model=XEON_X5667_8T.with_overhead(0.002),
            pyramid=pyramid,
            device=device,
            scheme=paper_partition_scheme(),
            translation_service=TranslationService(
                build_dictionaries(dataset.vocabularies), small_schema.hierarchies
            ),
            time_constraint=0.5,
        )
        wl = WorkloadSpec(
            small_schema.dimensions,
            [QueryClass("mixed", 1.0, resolution=1, coverage=(0.1, 0.6))],
            measures=("quantity", "sales_price"),
            seed=66,
        )
        return config, wl.generate(150)

    def test_off_measure_queries_get_no_cpu_estimate(self, mixed_world):
        """Batch and scalar agree bit for bit, and ``t_cpu`` is ``None``
        for exactly the queries the pyramid's measure cannot answer."""
        from repro.sim.system import SystemEstimator

        config, stream = mixed_world
        queries = [e.query for e in stream]
        estimator = SystemEstimator(config)
        ests = estimator.estimate_batch(queries)
        assert ests == [estimator.estimate(q) for q in queries]
        assert [e.t_cpu is None for e in ests] == [off_measure(q) for q in queries]
        assert 0 < sum(off_measure(q) for q in queries) < len(queries)

    def test_estimate_batch_equals_scalar_loop(self, mixed_world, small_schema):
        """A non-monotone pyramid (a dimension coarser in the bigger
        level) still gets one feature pass: each (dimension, resolution)
        keeps the bitmask of the levels able to answer it, so the
        sub-cube size is the reference's, and the batch is the loop."""
        from dataclasses import replace

        from repro.errors import CubeNotAvailableError
        from repro.sim.system import SystemEstimator

        config, stream = mixed_world
        dims = small_schema.dimensions
        zigzag = CubePyramid(
            dims,
            [
                PyramidLevel((1,) + (0,) * (len(dims) - 1), 16),
                PyramidLevel((0,) + (2,) * (len(dims) - 1), 16),
            ],
            measure="sales_price",
        )
        queries = [e.query for e in stream]
        estimator = SystemEstimator(replace(config, pyramid=zigzag))

        def reference_sc_mb(query):
            try:
                return zigzag.subcube_size_mb(query)
            except CubeNotAvailableError:
                return None

        sizes = [estimator.features(q)[0] for q in queries]
        assert sizes == [reference_sc_mb(q) for q in queries]
        assert any(s is not None for s in sizes)
        assert estimator.estimate_batch(queries) == [
            estimator.estimate(q) for q in queries
        ]

    def test_multi_measure_workload(self, fact_table, mixed_world):
        """A workload mixing measures runs end-to-end on a one-measure
        pyramid: the off-measure queries are answered by the GPU."""
        from repro.sim import HybridSystem

        config, stream = mixed_world
        report = HybridSystem(config).run(stream)
        assert report.completed == 150
        # verify every answer against the reference scan
        by_id = {e.query.query_id: e.query for e in stream}
        for record in report.records:
            q = by_id[record.query_id]
            expected = fact_table.execute(q).value()
            assert np.isclose(record.answer, expected, equal_nan=True)
            assert not (off_measure(q) and record.target == "Q_CPU")

    @pytest.mark.wallclock
    def test_serve_engine_answers_off_measure_queries_on_the_gpu(
        self, fact_table, mixed_world
    ):
        from repro.serve import MaterialisedExecutor, ServeEngine
        from repro.sim.system import SystemEstimator

        config, _ = mixed_world
        year = (Condition("date", 0, lo=0, hi=2),)
        queries = [
            Query(conditions=year, measures=("quantity",), agg="sum"),
            Query(conditions=year, measures=("net_profit",), agg="avg"),
            Query(conditions=year, measures=(), agg="count"),
        ]
        engine = ServeEngine(
            config, executor=MaterialisedExecutor(config, cpu_threads=1)
        )
        with engine:
            tickets = [engine.submit(q).ticket for q in queries]
            assert all(t.wait(timeout=30) for t in tickets)
        for q, ticket in zip(queries, tickets):
            record = ticket.record
            assert np.isclose(record.answer, fact_table.execute(q).value())
            if off_measure(q):
                assert record.target.startswith("Q_G")
        # count stays CPU-eligible: every cube carries the count component
        assert SystemEstimator(config).estimate(queries[2]).t_cpu is not None
