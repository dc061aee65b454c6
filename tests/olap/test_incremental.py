"""Tests for incremental cube maintenance and chunked range aggregation."""

import tracemalloc

import numpy as np
import pytest

from benchmarks.kit.chunks import ChunkedCube
from repro.errors import CubeError
from repro.olap.cube import OLAPCube
from repro.olap.hierarchy import DimensionHierarchy
from repro.olap.pyramid import CubePyramid
from repro.relational import generate_dataset, tpcds_like_schema
from repro.relational.schema import TableSchema
from repro.relational.table import FactTable


@pytest.fixture(scope="module")
def halves(small_schema):
    full = generate_dataset(small_schema, num_rows=6000, seed=44)
    mid = 3000
    cols_a = {c.name: full.table.column(c.name)[:mid] for c in small_schema.columns}
    cols_b = {c.name: full.table.column(c.name)[mid:] for c in small_schema.columns}
    return (
        full.table,
        FactTable(small_schema, cols_a),
        FactTable(small_schema, cols_b),
    )


class TestCubeIngest:
    # ingest scatters rows in row order, as a fresh build's bincount adds
    # them, so a float measure matches bit for bit too; an ingest that
    # adds a second full-size fold in place fails the ``sales_price`` cases
    def test_ingest_equals_full_build(self, halves):
        full, a, b = halves
        for measure in ("quantity", "sales_price"):
            for resolutions in ([1, 1, 1], [2, 2, 2], [0, 1, 0]):
                cube = OLAPCube.from_fact_table(a, measure, resolutions=resolutions)
                assert cube.ingest(b) == len(b)
                fresh = OLAPCube.from_fact_table(full, measure, resolutions=resolutions)
                for name in ("sum", "count"):
                    assert np.array_equal(
                        cube.component(name), fresh.component(name)
                    ), (measure, resolutions, name)

    def test_ingest_with_minmax(self, halves):
        full, a, b = halves
        cube = OLAPCube.from_fact_table(
            a, "sales_price", resolutions=[0, 1, 0], with_minmax=True
        )
        cube.ingest(b)
        fresh = OLAPCube.from_fact_table(
            full, "sales_price", resolutions=[0, 1, 0], with_minmax=True
        )
        for name in ("sum", "count", "min", "max"):
            assert np.array_equal(cube.component(name), fresh.component(name)), name

    def test_with_rows_equals_full_build_and_leaves_the_source(self, halves):
        full, a, b = halves
        cube = OLAPCube.from_fact_table(a, "sales_price", [1, 2, 1], with_minmax=True)
        before = {name: cube.component(name).copy() for name in cube.components}
        grown = cube.with_rows(b)
        fresh = OLAPCube.from_fact_table(full, "sales_price", [1, 2, 1], with_minmax=True)
        for name in cube.components:
            assert np.array_equal(grown.component(name), fresh.component(name)), name
            assert np.array_equal(cube.component(name), before[name]), name

    def test_ingest_empty_batch(self, halves, small_schema):
        _, a, _ = halves
        cube = OLAPCube.from_fact_table(a, "quantity", resolutions=[0, 0, 0])
        empty = FactTable(
            small_schema,
            {c.name: np.empty(0, dtype=c.dtype) for c in small_schema.columns},
        )
        before = cube.component("sum").copy()
        assert cube.ingest(empty) == 0
        assert np.array_equal(cube.component("sum"), before)

    def test_ingest_schema_mismatch(self, halves):
        _, a, _ = halves
        cube = OLAPCube.from_fact_table(a, "quantity", resolutions=[0, 0, 0])
        other_schema = tpcds_like_schema(scale=0.25)
        other = generate_dataset(other_schema, num_rows=10, seed=1).table
        with pytest.raises(CubeError, match="dimension"):
            cube.ingest(other)

    def test_rollup_to_its_own_resolutions_owns_its_arrays(self, halves):
        _, a, b = halves
        cube = OLAPCube.from_fact_table(a, "sales_price", [1, 1, 1], with_minmax=True)
        before = {name: cube.component(name).copy() for name in cube.components}
        same = cube.rollup([1, 1, 1])
        for name in cube.components:
            assert not np.shares_memory(same.component(name), cube.component(name)), name
        same.ingest(b)
        for name in cube.components:
            assert np.array_equal(cube.component(name), before[name]), name

    def test_ingest_repeatedly(self, halves):
        full, a, b = halves
        cube = OLAPCube.from_fact_table(a, "quantity", resolutions=[1, 0, 1])
        cube.ingest(b)
        cube.ingest(b)  # b twice: totals = a + 2b
        expected = (
            full.column("quantity").sum() + b.column("quantity").sum()
        )
        assert np.isclose(cube.component("sum").sum(), expected)


class TestIngestMemory:
    """Ingest costs the batch, not the cube: NumPy reports its buffers to
    :mod:`tracemalloc`, so the peak while one call runs is what it
    allocated."""

    @pytest.fixture(scope="class")
    def big_cube(self, fact_table):
        # 36 months x 20 states x 2 500 items: 1.8 M cells, 28.8 MB
        cube = OLAPCube.from_fact_table(fact_table, "sales_price", [2, 1, 3])
        assert cube.num_cells >= 1_000_000
        return cube

    @pytest.fixture(scope="class")
    def batch(self, fact_table):
        names = [c.name for c in fact_table.schema.columns]
        return FactTable(fact_table.schema, {n: fact_table.column(n)[:100] for n in names})

    @staticmethod
    def peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ingest_allocates_with_the_batch(self, big_cube, batch):
        assert self.peak_bytes(lambda: big_cube.ingest(batch)) < big_cube.nbytes // 100

    def test_with_rows_allocates_one_copy(self, big_cube, batch):
        slack = 64 * 1024
        assert self.peak_bytes(lambda: big_cube.with_rows(batch)) <= big_cube.nbytes + slack


class TestPyramidIngest:
    def test_all_levels_updated(self, halves):
        full, a, b = halves
        pyr = CubePyramid.from_fact_table(a, "quantity", [0, 1, 2])
        pyr.ingest(b)
        fresh = CubePyramid.from_fact_table(full, "quantity", [0, 1, 2])
        for l1, l2 in zip(pyr.levels, fresh.levels):
            assert np.allclose(l1.cube.component("sum"), l2.cube.component("sum"))

    def test_queries_after_ingest(self, halves, small_schema):
        from repro.query.model import Condition, Query

        full, a, b = halves
        pyr = CubePyramid.from_fact_table(a, "quantity", [0, 1, 2])
        pyr.ingest(b)
        q = Query(conditions=(Condition("date", 1, lo=0, hi=8),), measures=("quantity",))
        assert np.isclose(pyr.answer(q), full.execute(q).value())

    def test_requests_past_the_finest_level_are_one_level(self):
        # both dimensions' finest resolution is 1: requests 1 and 2 clamp
        # to the same level, which must hold one cube and take a batch once
        dims = [DimensionHierarchy.uniform(name, 2, 4) for name in ("a", "b")]
        table = generate_dataset(TableSchema(dims, measures=("v",)), num_rows=400, seed=5).table
        pyr = CubePyramid.from_fact_table(table, "v", [1, 2])
        assert [level.resolutions for level in pyr.levels] == [(1, 1)]
        names = [c.name for c in table.schema.columns]
        batch = FactTable(table.schema, {n: table.column(n)[:100] for n in names})
        before = pyr.levels[0].cube.component("sum").sum()
        pyr.ingest(batch)
        added = pyr.levels[0].cube.component("sum").sum() - before
        assert np.isclose(added, batch.column("v").sum())

    def test_analytic_pyramid_rejected(self, small_schema, halves):
        _, a, _ = halves
        pyr = CubePyramid.analytic(small_schema.dimensions, [0, 1])
        with pytest.raises(CubeError, match="analytic"):
            pyr.ingest(a)


class TestChunkedRangeSum:
    @pytest.fixture()
    def array(self, rng):
        a = rng.random((23, 17, 9))
        a[a < 0.6] = 0.0
        return a

    def test_matches_dense_slice(self, array):
        cc = ChunkedCube.from_dense(array, (8, 8, 4))
        ranges = [(3, 19), (0, 11), (2, 9)]
        expected = array[3:19, 0:11, 2:9].sum()
        assert np.isclose(cc.sum_range(ranges), expected)

    def test_full_range_equals_sum(self, array):
        cc = ChunkedCube.from_dense(array, (8, 8, 4))
        full = [(0, s) for s in array.shape]
        assert np.isclose(cc.sum_range(full), cc.sum())

    def test_empty_range(self, array):
        cc = ChunkedCube.from_dense(array, (8, 8, 4))
        assert cc.sum_range([(5, 5), (0, 17), (0, 9)]) == 0.0

    def test_single_cell(self, array):
        cc = ChunkedCube.from_dense(array, (4, 4, 4))
        assert np.isclose(
            cc.sum_range([(10, 11), (4, 5), (7, 8)]), array[10, 4, 7]
        )

    def test_only_compressed_chunks(self, rng):
        a = np.zeros((16, 16))
        a[3, 3] = 5.0
        a[12, 9] = 7.0
        cc = ChunkedCube.from_dense(a, (8, 8))
        assert cc.num_compressed == cc.num_chunks
        assert np.isclose(cc.sum_range([(0, 8), (0, 8)]), 5.0)
        assert np.isclose(cc.sum_range([(8, 16), (8, 16)]), 7.0)
        assert np.isclose(cc.sum_range([(0, 16), (0, 16)]), 12.0)

    def test_validation(self, array):
        cc = ChunkedCube.from_dense(array, (8, 8, 4))
        with pytest.raises(CubeError):
            cc.sum_range([(0, 5)])  # wrong rank
        with pytest.raises(CubeError):
            cc.sum_range([(0, 99), (0, 17), (0, 9)])  # out of bounds
        with pytest.raises(CubeError):
            cc.sum_range([(5, 3), (0, 17), (0, 9)])  # inverted
