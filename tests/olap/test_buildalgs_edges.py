"""Edge-case tests for the pipeline planner and BUC pruning.

Complements the cross-checking suite (``test_buildalgs.py``) and the
hypothesis suite (``test_prop_pipesort.py``) with deterministic corner
cases: degenerate dimension counts for :func:`plan_pipelines` and the
guarantee that BUC's iceberg pruning removes cells, never cuboids.
"""

import math

import pytest

from benchmarks.kit.buildalgs import buc_cube, full_cube_reference
from benchmarks.kit.buildalgs.pipesort import plan_pipelines
from repro.errors import CubeError
from repro.relational import generate_dataset, tpcds_like_schema


class TestPlanPipelinesEdges:
    def test_zero_dimensions(self):
        # the empty lattice has exactly one cuboid: the apex, covered by
        # the single empty pipeline
        assert plan_pipelines([]) == [()]

    def test_single_dimension(self):
        assert plan_pipelines(["x"]) == [("x",)]

    def test_duplicate_names_rejected(self):
        with pytest.raises(CubeError):
            plan_pipelines(["a", "b", "a"])

    def test_input_order_never_leaks(self):
        # orderings of the same name set plan identically
        names = ["d", "b", "c", "a"]
        expected = plan_pipelines(sorted(names))
        assert plan_pipelines(names) == expected
        assert plan_pipelines(list(reversed(names))) == expected

    def test_no_duplicate_pipelines(self):
        pipelines = plan_pipelines([f"d{i}" for i in range(6)])
        assert len(set(pipelines)) == len(pipelines)

    @pytest.mark.parametrize("d", range(7))
    def test_full_cover_and_optimality_up_to_six_dims(self, d):
        names = [f"d{i}" for i in range(d)]
        pipelines = plan_pipelines(names)
        covered = set()
        for order in pipelines:
            for plen in range(len(order) + 1):
                covered.add(frozenset(order[:plen]))
        assert len(covered) == 2**d
        assert len(pipelines) == math.comb(d, d // 2)


@pytest.fixture(scope="module")
def tiny_table():
    schema = tpcds_like_schema(scale=0.2)
    return generate_dataset(schema, num_rows=500, seed=23).table


class TestBUCPruning:
    RESOLUTIONS = {"date": 1, "store": 1, "item": 0}

    @pytest.mark.parametrize("min_support", [1, 3, 25, 10_000])
    def test_pruning_never_drops_a_nonempty_cuboid(self, tiny_table, min_support):
        ref = full_cube_reference(tiny_table, "quantity", self.RESOLUTIONS, min_support)
        got = buc_cube(tiny_table, "quantity", self.RESOLUTIONS, min_support=min_support)
        # every cuboid key survives pruning, populated or not...
        assert set(got) == set(ref)
        for cuboid, cells in ref.items():
            # ...and any cuboid with qualifying cells keeps exactly them
            if cells:
                assert got[cuboid], cuboid
            assert set(got[cuboid]) == set(cells), cuboid

    def test_support_above_row_count_leaves_all_cuboids_empty(self, tiny_table):
        got = buc_cube(
            tiny_table, "quantity", self.RESOLUTIONS, min_support=len(tiny_table) + 1
        )
        assert len(got) == 2 ** len(self.RESOLUTIONS)
        assert all(cells == {} for cells in got.values())
