"""Unit tests for the group-by lattice and smallest-parent planning."""

import networkx as nx
import pytest

from benchmarks.kit.lattice import CubeLattice
from repro.errors import CubeError
from repro.olap.hierarchy import DimensionHierarchy
from repro.olap.rollup import CuboidSpec, RollupCatalog
from repro.relational import generate_dataset, tpcds_like_schema


@pytest.fixture()
def dims():
    return [
        DimensionHierarchy.uniform("a", 2, 4),  # cards 4, 16
        DimensionHierarchy.uniform("b", 2, 3),  # cards 3, 9
        DimensionHierarchy.uniform("c", 1, 5),  # card 5
    ]


@pytest.fixture()
def lattice(dims):
    return CubeLattice(dims)


class TestStructure:
    def test_num_cuboids_is_power_of_two(self, lattice):
        assert lattice.num_cuboids == 8

    def test_base_and_apex(self, lattice):
        assert lattice.base == frozenset({"a", "b", "c"})
        assert lattice.apex == frozenset()

    def test_edges_drop_one_dimension(self, lattice):
        for parent, child in lattice.graph.edges:
            assert child < parent
            assert len(parent - child) == 1

    def test_parents_and_children(self, lattice):
        node = frozenset({"a"})
        assert frozenset({"a", "b"}) in lattice.parents(node)
        assert lattice.children(node) == [frozenset()]

    def test_cuboids_ordered_coarse_first(self, lattice):
        order = lattice.cuboids()
        assert order[0] == frozenset()
        assert order[-1] == lattice.base

    def test_the_rollup_catalog_walks_the_lattice_order(self):
        """``RollupCatalog`` orders its dimension subsets without the
        lattice; with every cuboid installed, its walk is ``cuboids()``."""
        schema = tpcds_like_schema(scale=0.1)
        table = generate_dataset(schema, num_rows=500, seed=3).table
        catalog = RollupCatalog(table, "quantity")
        order = [cuboid for cuboid in CubeLattice(schema.dimensions).cuboids() if cuboid]
        assert len(order) == 2 ** len(schema.dimensions) - 1
        for dims in reversed(order):
            catalog.materialise_and_install(CuboidSpec(tuple(dims), (0,) * len(dims)))
        assert [entry.spec.key for entry in catalog.cuboids()] == order

    def test_duplicate_dims_rejected(self, dims):
        with pytest.raises(CubeError):
            CubeLattice([dims[0], dims[0]])

    def test_empty_dims_rejected(self):
        with pytest.raises(CubeError):
            CubeLattice([])


class TestSizes:
    def test_cuboid_size_product(self, lattice):
        assert lattice.cuboid_size(frozenset({"a", "b"})) == 16 * 9
        assert lattice.cuboid_size(frozenset()) == 1

    def test_size_uses_given_resolutions(self, dims):
        lat = CubeLattice(dims, resolutions=[0, 0, 0])
        assert lat.cuboid_size(frozenset({"a", "b"})) == 4 * 3

    def test_unknown_dimension_rejected(self, lattice):
        with pytest.raises(CubeError):
            lattice.cuboid_size(frozenset({"z"}))


class TestSmallestParentTree:
    def test_is_spanning_arborescence(self, lattice):
        tree = lattice.smallest_parent_tree()
        assert tree.number_of_nodes() == lattice.num_cuboids
        assert tree.number_of_edges() == lattice.num_cuboids - 1
        assert nx.is_arborescence(tree)

    def test_every_node_from_smallest_parent(self, lattice):
        tree = lattice.smallest_parent_tree()
        for node in lattice.graph.nodes:
            if node == lattice.base:
                continue
            (parent,) = tree.predecessors(node)
            smallest = min(lattice.cuboid_size(p) for p in lattice.parents(node))
            assert lattice.cuboid_size(parent) == smallest

    def test_computation_order_is_valid(self, lattice):
        computed = set()
        for cuboid, source in lattice.computation_order():
            if source is None:
                assert cuboid == lattice.base
            else:
                assert source in computed
            computed.add(cuboid)
        assert len(computed) == lattice.num_cuboids

    def test_total_tree_cost_minimal_among_parents(self, lattice):
        # tree cost must be <= the cost of always using the base cuboid
        base_cost = (lattice.num_cuboids - 1) * lattice.cuboid_size(lattice.base)
        assert lattice.total_tree_cost() <= base_cost

    def test_single_dimension_lattice(self):
        lat = CubeLattice([DimensionHierarchy.uniform("x", 1, 7)])
        assert lat.num_cuboids == 2
        order = lat.computation_order()
        assert order[0] == (frozenset({"x"}), None)
        assert order[1] == (frozenset(), frozenset({"x"}))
