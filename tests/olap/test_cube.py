"""Unit tests for dense OLAP cubes: construction, roll-up, aggregation."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import CubeError, QueryError
from repro.olap.cube import AggregateOp, OLAPCube
from repro.olap.hierarchy import DimensionHierarchy


@pytest.fixture(scope="module")
def base_cube(fact_table):
    return OLAPCube.from_fact_table(
        fact_table, "sales_price", resolutions=[1, 1, 1], with_minmax=True
    )


class TestConstruction:
    def test_shape_matches_resolutions(self, base_cube, small_schema):
        expected = tuple(d.cardinality(1) for d in small_schema.dimensions)
        assert base_cube.shape == expected

    def test_total_sum_equals_column_sum(self, base_cube, fact_table):
        assert np.isclose(
            base_cube.component("sum").sum(), fact_table.column("sales_price").sum()
        )

    def test_total_count_equals_rows(self, base_cube, fact_table):
        assert base_cube.component("count").sum() == fact_table.num_rows

    def test_minmax_components_present(self, base_cube):
        assert "min" in base_cube.components and "max" in base_cube.components

    def test_without_minmax(self, fact_table):
        cube = OLAPCube.from_fact_table(fact_table, "quantity", resolutions=[0, 0, 0])
        assert "min" not in cube.components
        with pytest.raises(CubeError):
            cube.component("min")

    def test_max_cells_guard(self, fact_table):
        with pytest.raises(CubeError, match="GPU side"):
            OLAPCube.from_fact_table(
                fact_table, "quantity", resolutions=[3, 3, 3], max_cells=1000
            )

    def test_resolution_count_mismatch(self, fact_table):
        with pytest.raises(CubeError):
            OLAPCube.from_fact_table(fact_table, "quantity", resolutions=[0, 0])

    def test_missing_components_rejected(self, small_schema):
        dims = small_schema.dimensions
        shape = tuple(d.cardinality(0) for d in dims)
        with pytest.raises(CubeError, match="sum"):
            OLAPCube(dims, [0, 0, 0], {"count": np.zeros(shape)})

    def test_wrong_shape_rejected(self, small_schema):
        dims = small_schema.dimensions
        with pytest.raises(CubeError, match="shape"):
            OLAPCube(
                dims,
                [0, 0, 0],
                {"sum": np.zeros((2, 2, 2)), "count": np.zeros((2, 2, 2))},
            )

    def test_unknown_component_rejected(self, small_schema):
        dims = small_schema.dimensions
        shape = tuple(d.cardinality(0) for d in dims)
        with pytest.raises(CubeError, match="unknown"):
            OLAPCube(
                dims,
                [0, 0, 0],
                {
                    "sum": np.zeros(shape),
                    "count": np.zeros(shape),
                    "median": np.zeros(shape),
                },
            )

    def test_cell_nbytes(self, base_cube):
        # sum + count + min + max as float64
        assert base_cube.cell_nbytes == 32

    def test_empty_table(self, small_schema):
        from repro.relational.table import FactTable

        cols = {c.name: np.empty(0, dtype=c.dtype) for c in small_schema.columns}
        empty = FactTable(small_schema, cols)
        cube = OLAPCube.from_fact_table(empty, "quantity", resolutions=[0, 0, 0])
        assert cube.component("sum").sum() == 0.0


class TestRollup:
    def test_rollup_equals_direct_build(self, fact_table, base_cube):
        rolled = base_cube.rollup([0, 0, 0])
        direct = OLAPCube.from_fact_table(
            fact_table, "sales_price", resolutions=[0, 0, 0], with_minmax=True
        )
        for comp in ("sum", "count", "min", "max"):
            assert np.allclose(rolled.component(comp), direct.component(comp))

    def test_partial_rollup(self, fact_table, base_cube):
        rolled = base_cube.rollup([0, 1, 0])
        direct = OLAPCube.from_fact_table(
            fact_table, "sales_price", resolutions=[0, 1, 0], with_minmax=True
        )
        assert np.allclose(rolled.component("sum"), direct.component("sum"))

    def test_rollup_to_finer_rejected(self, base_cube):
        with pytest.raises(CubeError, match="finer"):
            base_cube.rollup([2, 1, 1])

    def test_rollup_identity(self, base_cube):
        same = base_cube.rollup(list(base_cube.resolutions))
        assert np.allclose(same.component("sum"), base_cube.component("sum"))

    def test_rollup_preserves_totals(self, base_cube):
        rolled = base_cube.rollup([0, 0, 0])
        assert np.isclose(
            rolled.component("sum").sum(), base_cube.component("sum").sum()
        )


class TestGather:
    def test_a_code_set_gathers_only_the_cells_it_selects(self):
        """Wide slices on two axes of a 5.8 MB component, then 3 codes on
        the third: ``np.take`` copied the whole 5.3 MB view first.  The
        gather holds its one C-ordered result plus a few array headers."""
        dims = [
            DimensionHierarchy.from_fanouts(name, ["L0"], [extent])
            for name, extent in (("a", 36), ("b", 200), ("c", 100))
        ]
        values = np.random.default_rng(0).random((36, 200, 100))
        cube = OLAPCube(dims, [0, 0, 0], {"sum": values, "count": np.ones_like(values)})
        selectors = [slice(1, 35), slice(5, 195), np.array([3, 50, 97], dtype=np.intp)]
        tracemalloc.start()
        try:
            selected = cube.slice_component("sum", selectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert selected.shape == (34, 190, 3)
        assert selected.flags.c_contiguous
        assert peak < selected.nbytes + 4096


class TestAggregate:
    def test_full_cube_sum(self, base_cube, fact_table):
        sel = [slice(None)] * 3
        assert np.isclose(
            base_cube.aggregate(sel, "sum"), fact_table.column("sales_price").sum()
        )

    def test_count(self, base_cube, fact_table):
        sel = [slice(None)] * 3
        assert base_cube.aggregate(sel, AggregateOp.COUNT) == fact_table.num_rows

    def test_avg_is_row_weighted(self, base_cube, fact_table):
        sel = [slice(None)] * 3
        assert np.isclose(
            base_cube.aggregate(sel, "avg"), fact_table.column("sales_price").mean()
        )

    def test_min_max_match_table(self, base_cube, fact_table):
        sel = [slice(None)] * 3
        col = fact_table.column("sales_price")
        assert np.isclose(base_cube.aggregate(sel, "min"), col.min())
        assert np.isclose(base_cube.aggregate(sel, "max"), col.max())

    def test_slice_selection(self, base_cube, fact_table, small_schema):
        d0 = small_schema.dimensions[0]
        col = fact_table.column(f"{d0.name}__{d0.level(1).name}")
        mask = (col >= 2) & (col < 5)
        expected = fact_table.column("sales_price")[mask].sum()
        sel = [slice(2, 5), slice(None), slice(None)]
        assert np.isclose(base_cube.aggregate(sel, "sum"), expected)

    def test_index_array_selection(self, base_cube, fact_table, small_schema):
        d1 = small_schema.dimensions[1]
        col = fact_table.column(f"{d1.name}__{d1.level(1).name}")
        codes = np.array([0, 3, 7])
        expected = fact_table.column("sales_price")[np.isin(col, codes)].sum()
        sel = [slice(None), codes, slice(None)]
        assert np.isclose(base_cube.aggregate(sel, "sum"), expected)

    def test_empty_selection_sum_is_zero(self, base_cube):
        # a coordinate range that matches no rows still sums to 0
        sel = [slice(0, 1), np.array([], dtype=np.intp), slice(None)]
        assert base_cube.aggregate(sel, "sum") == 0.0

    def test_empty_selection_avg_is_nan(self, base_cube):
        sel = [slice(0, 1), np.array([], dtype=np.intp), slice(None)]
        assert np.isnan(base_cube.aggregate(sel, "avg"))

    def test_min_ignores_empty_cells(self, base_cube):
        # min over the full cube must not return +inf from empty cells
        value = base_cube.aggregate([slice(None)] * 3, "min")
        assert np.isfinite(value)

    def test_wrong_selector_count(self, base_cube):
        with pytest.raises(QueryError):
            base_cube.aggregate([slice(None)], "sum")

    def test_axis_of_and_resolution_of(self, base_cube, small_schema):
        name = small_schema.dimensions[1].name
        assert base_cube.axis_of(name) == 1
        assert base_cube.resolution_of(name) == 1

    def test_unknown_dimension(self, base_cube):
        from repro.errors import DimensionError

        with pytest.raises(DimensionError):
            base_cube.axis_of("nope")


class TestAggregateOp:
    def test_components_needed(self):
        assert AggregateOp.AVG.components == ("sum", "count")
        assert AggregateOp.MIN.components == ("min",)

    def test_from_string(self):
        assert AggregateOp("sum") is AggregateOp.SUM

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            AggregateOp("median")
