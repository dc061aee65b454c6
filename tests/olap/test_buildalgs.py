"""Cross-checking tests for the three cube-construction algorithms."""

import numpy as np
import pytest

from benchmarks.kit.buildalgs import (
    array_based_cube,
    buc_cube,
    full_cube_reference,
    pipesort_cube,
    project_coordinates,
)
from benchmarks.kit.buildalgs.pipesort import plan_pipelines
from repro.errors import CubeError
from repro.relational import generate_dataset, tpcds_like_schema

ALGORITHMS = [array_based_cube, buc_cube, pipesort_cube]


@pytest.fixture(scope="module")
def small_table():
    schema = tpcds_like_schema(scale=0.3)
    return generate_dataset(schema, num_rows=2_000, seed=17).table


@pytest.fixture(scope="module")
def resolutions():
    return {"date": 1, "store": 1, "item": 1}


@pytest.fixture(scope="module")
def reference(small_table, resolutions):
    return full_cube_reference(small_table, "quantity", resolutions)


class TestAgainstReference:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cuboid_set(self, algorithm, small_table, resolutions, reference):
        got = algorithm(small_table, "quantity", resolutions)
        assert set(got) == set(reference)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cell_sets_and_values(self, algorithm, small_table, resolutions, reference):
        got = algorithm(small_table, "quantity", resolutions)
        for cuboid, cells in reference.items():
            assert set(got[cuboid]) == set(cells), cuboid
            for key, value in cells.items():
                assert np.isclose(got[cuboid][key], value), (cuboid, key)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_apex_is_grand_total(self, algorithm, small_table, resolutions):
        got = algorithm(small_table, "quantity", resolutions)
        assert np.isclose(
            got[frozenset()][()], small_table.column("quantity").sum()
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cuboid_totals_are_invariant(self, algorithm, small_table, resolutions):
        # every cuboid sums to the grand total (sum is fully additive)
        got = algorithm(small_table, "quantity", resolutions)
        total = small_table.column("quantity").sum()
        for cuboid, cells in got.items():
            assert np.isclose(sum(cells.values()), total), cuboid


class TestIceberg:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("min_support", [2, 5, 20])
    def test_iceberg_matches_reference(
        self, algorithm, min_support, small_table, resolutions
    ):
        ref = full_cube_reference(small_table, "quantity", resolutions, min_support)
        got = algorithm(small_table, "quantity", resolutions, min_support=min_support)
        for cuboid in ref:
            assert set(got[cuboid]) == set(ref[cuboid]), cuboid

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_iceberg_monotone(self, algorithm, small_table, resolutions):
        loose = algorithm(small_table, "quantity", resolutions, min_support=1)
        tight = algorithm(small_table, "quantity", resolutions, min_support=10)
        for cuboid in loose:
            assert set(tight[cuboid]) <= set(loose[cuboid])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_invalid_min_support(self, algorithm, small_table, resolutions):
        with pytest.raises(CubeError):
            algorithm(small_table, "quantity", resolutions, min_support=0)


class TestSubsetsOfDimensions:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_two_dimension_cube(self, algorithm, small_table):
        res = {"date": 0, "store": 1}
        ref = full_cube_reference(small_table, "quantity", res)
        got = algorithm(small_table, "quantity", res)
        assert set(got) == set(ref)
        for cuboid in ref:
            assert got[cuboid] == pytest.approx(ref[cuboid])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mixed_resolutions(self, algorithm, small_table):
        res = {"date": 2, "store": 0, "item": 1}
        ref = full_cube_reference(small_table, "sales_price", res)
        got = algorithm(small_table, "sales_price", res)
        for cuboid in ref:
            assert set(got[cuboid]) == set(ref[cuboid])


class TestPipelinePlanner:
    def test_covers_all_cuboids(self):
        names = ["a", "b", "c", "d"]
        pipelines = plan_pipelines(names)
        covered = set()
        for order in pipelines:
            for plen in range(len(order) + 1):
                covered.add(frozenset(order[:plen]))
        assert len(covered) == 2 ** len(names)

    def test_first_pipeline_is_full_order(self):
        assert plan_pipelines(["b", "a"])[0] == ("a", "b")

    def test_pipeline_count_reasonable(self):
        # minimal cover size equals the middle binomial coefficient
        import math

        names = [f"d{i}" for i in range(5)]
        pipelines = plan_pipelines(names)
        assert len(pipelines) == math.comb(5, 2)


class TestProjectCoordinates:
    def test_column_order(self, small_table):
        coords = project_coordinates(small_table, ["store", "date"], {"store": 1, "date": 0})
        assert coords.shape == (len(small_table), 2)
        store_level = small_table.schema.dimension("store").level(1).name
        assert np.array_equal(
            coords[:, 0], small_table.column(f"store__{store_level}")
        )

    def test_empty_projection(self, small_table):
        coords = project_coordinates(small_table, [], {})
        assert coords.shape == (len(small_table), 0)
