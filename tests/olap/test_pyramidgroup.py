"""Tests for multi-measure pyramid groups."""

import numpy as np
import pytest

from repro.errors import CubeError, CubeNotAvailableError
from repro.olap.pyramid import CubePyramid, PyramidGroup
from repro.query.model import Condition, Query


@pytest.fixture(scope="module")
def group(fact_table):
    return PyramidGroup.from_fact_table(
        fact_table, ["quantity", "sales_price"], [0, 1, 2]
    )


class TestDispatch:
    def test_measures(self, group):
        assert group.measures == ("quantity", "sales_price")

    def test_answers_per_measure(self, group, fact_table):
        for measure in ("quantity", "sales_price"):
            q = Query(
                conditions=(Condition("date", 1, lo=0, hi=8),), measures=(measure,)
            )
            assert np.isclose(group.answer(q), fact_table.execute(q).value())

    def test_count_uses_any_pyramid(self, group, fact_table):
        q = Query(conditions=(Condition("store", 1, lo=0, hi=9),), measures=(), agg="count")
        assert group.answer(q) == fact_table.execute(q).value()

    def test_unknown_measure_is_cube_not_available(self, group):
        q = Query(conditions=(), measures=("net_profit",))
        with pytest.raises(CubeNotAvailableError, match="net_profit"):
            group.answer(q)

    def test_subcube_size_matches_member(self, group, fact_table):
        q = Query(conditions=(Condition("date", 1, lo=0, hi=4),), measures=("quantity",))
        single = CubePyramid.from_fact_table(fact_table, "quantity", [0, 1, 2])
        assert group.subcube_size_mb(q) == single.subcube_size_mb(q)

    def test_select_level(self, group):
        q = Query(conditions=(Condition("date", 2, lo=0, hi=4),), measures=("quantity",))
        assert max(group.select_level(q).resolutions) == 2


class TestConstruction:
    def test_from_sequence(self, fact_table):
        pyramids = [
            CubePyramid.from_fact_table(fact_table, m, [0, 1])
            for m in ("quantity", "net_profit")
        ]
        group = PyramidGroup(pyramids)
        assert group.measures == ("net_profit", "quantity")

    def test_empty_rejected(self):
        with pytest.raises(CubeError):
            PyramidGroup({})

    def test_mismatched_registration(self, fact_table):
        p = CubePyramid.from_fact_table(fact_table, "quantity", [0])
        with pytest.raises(CubeError, match="registered"):
            PyramidGroup({"sales_price": p})

    def test_total_nbytes_sums_members(self, group, fact_table):
        single = CubePyramid.from_fact_table(fact_table, "quantity", [0, 1, 2])
        assert group.total_nbytes == 2 * single.total_nbytes

    def test_levels_union(self, group):
        assert len(group.levels) == 6  # 3 levels x 2 measures


class TestIngest:
    def test_ingest_updates_all_measures(self, small_schema):
        from repro.relational import generate_dataset

        full = generate_dataset(small_schema, num_rows=4000, seed=55)
        from repro.relational.table import FactTable

        mid = 2000
        a = FactTable(
            small_schema,
            {c.name: full.table.column(c.name)[:mid] for c in small_schema.columns},
        )
        b = FactTable(
            small_schema,
            {c.name: full.table.column(c.name)[mid:] for c in small_schema.columns},
        )
        group = PyramidGroup.from_fact_table(a, ["quantity", "sales_price"], [0, 1])
        group.ingest(b)
        for measure in ("quantity", "sales_price"):
            q = Query(conditions=(), measures=(measure,))
            assert np.isclose(group.answer(q), full.table.execute(q).value())


class TestSystemIntegration:
    @pytest.fixture()
    def group_world(self, fact_table, group, small_schema, dataset):
        """(config over the PyramidGroup, a 150-query mixed-measure stream)."""
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
            pyramid=group,
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

    def test_estimate_batch_equals_scalar_loop(self, group_world):
        """No fast-path tables exist for a group (level tables depend on
        the query's measure): every query takes ``estimate_batch``'s
        scalar fallback, so the batch is the loop by definition."""
        from repro.sim.system import SystemEstimator

        config, stream = group_world
        queries = [e.query for e in stream]
        estimator = SystemEstimator(config)
        assert all(estimator.features(q) is None for q in queries)
        assert estimator.estimate_batch(queries) == [
            estimator.estimate(q) for q in queries
        ]

    def test_multi_measure_workload(self, fact_table, group_world):
        """A workload mixing measures runs end-to-end with a PyramidGroup."""
        from repro.sim import HybridSystem

        config, stream = group_world
        report = HybridSystem(config).run(stream)
        assert report.completed == 150
        # verify every answer against the reference scan
        by_id = {e.query.query_id: e.query for e in stream}
        for record in report.records:
            q = by_id[record.query_id]
            expected = fact_table.execute(q).value()
            assert np.isclose(record.answer, expected, equal_nan=True)
