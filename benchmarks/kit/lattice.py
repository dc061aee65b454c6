"""The group-by lattice and smallest-parent planning.

Computing the *full cube* means computing one group-by (cuboid) per
subset of the dimension set — the lattice of Gray et al. [5].  Every
cube-construction algorithm in Section II-A plans over this lattice:

* the **smallest-parent** method computes each cuboid from its cheapest
  already-computed parent (one more dimension), yielding a spanning
  tree of the lattice;
* **PipeSort** walks the lattice level by level choosing sort orders;
* the array-based algorithm derives its *minimum size spanning tree*
  from the same structure.

:class:`CubeLattice` materialises the lattice as a :mod:`networkx`
DiGraph with size estimates per cuboid (product of the grouped
dimensions' cardinalities) and provides the smallest-parent spanning
tree used by :mod:`benchmarks.kit.buildalgs`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import networkx as nx

from repro.errors import CubeError
from repro.olap.hierarchy import DimensionHierarchy

__all__ = ["Cuboid", "CubeLattice"]

#: A cuboid is identified by the frozenset of grouped dimension names;
#: the empty frozenset is the apex (the grand total, "ALL").
Cuboid = frozenset


class CubeLattice:
    """The 2^N cuboid lattice over a dimension set.

    Parameters
    ----------
    dimensions:
        Dimension hierarchies (one node per subset of their names).
    resolutions:
        Resolution per dimension used for cardinality estimates
        (defaults to each dimension's finest level).

    Raises
    ------
    CubeError
        If ``dimensions`` is empty, contains duplicate names, or
        ``resolutions`` has the wrong length or an out-of-range value.

    Attributes
    ----------
    graph:
        The lattice as a :class:`networkx.DiGraph` with one node per
        cuboid (a ``frozenset`` of dimension names, with a ``size``
        estimate attached) and an edge ``parent -> child`` wherever the
        child drops exactly one grouped dimension.
    """

    def __init__(
        self,
        dimensions: Sequence[DimensionHierarchy],
        resolutions: Sequence[int] | None = None,
    ):
        if not dimensions:
            raise CubeError("lattice needs at least one dimension")
        names = [d.name for d in dimensions]
        if len(set(names)) != len(names):
            raise CubeError(f"duplicate dimension names: {names}")
        if resolutions is None:
            resolutions = [d.finest_resolution for d in dimensions]
        if len(resolutions) != len(dimensions):
            raise CubeError("resolutions length mismatch")
        self.dimensions = tuple(dimensions)
        self._card: dict[str, int] = {
            d.name: d.cardinality(d.check_resolution(r))
            for d, r in zip(dimensions, resolutions)
        }

        self.graph = nx.DiGraph()
        all_names = tuple(names)
        for k in range(len(all_names) + 1):
            for combo in itertools.combinations(all_names, k):
                node = frozenset(combo)
                self.graph.add_node(node, size=self.cuboid_size(node))
        # edges parent -> child where child drops exactly one dimension
        for node in self.graph.nodes:
            for dim in node:
                child = node - {dim}
                self.graph.add_edge(node, child)

    # -- sizes ------------------------------------------------------------

    def cuboid_size(self, cuboid: Iterable[str]) -> int:
        """Cells in a cuboid: product of grouped-dimension cardinalities.

        Parameters
        ----------
        cuboid:
            Grouped dimension names (any iterable; the empty iterable
            is the apex, whose size is 1).

        Returns
        -------
        int
            The dense cell count at this lattice's resolutions — an
            upper bound on the occupied (sparse) cell count.

        Raises
        ------
        CubeError
            If a name is not one of this lattice's dimensions.
        """
        size = 1
        for name in cuboid:
            if name not in self._card:
                raise CubeError(f"unknown dimension {name!r} in cuboid")
            size *= self._card[name]
        return size

    @property
    def base(self) -> Cuboid:
        """The finest cuboid: all dimensions grouped."""
        return frozenset(self._card)

    @property
    def apex(self) -> Cuboid:
        """The ALL cuboid (grand total)."""
        return frozenset()

    @property
    def num_cuboids(self) -> int:
        """Number of cuboids in the lattice: ``2 ** len(dimensions)``."""
        return self.graph.number_of_nodes()

    def cuboids(self) -> list[Cuboid]:
        """All cuboids, coarsest (fewest dimensions) first.

        Returns
        -------
        list[Cuboid]
            Deterministic order: ascending dimension count, then
            sorted names.  :meth:`RollupCatalog.covers
            <repro.olap.rollup.RollupCatalog.covers>` walks the same
            order to prefer the coarsest sufficient cuboid.
        """
        return sorted(self.graph.nodes, key=lambda c: (len(c), sorted(c)))

    def parents(self, cuboid: Cuboid) -> list[Cuboid]:
        """Cuboids with exactly one more grouped dimension, name-sorted."""
        return sorted(self.graph.predecessors(cuboid), key=sorted)

    def children(self, cuboid: Cuboid) -> list[Cuboid]:
        """Cuboids with exactly one fewer grouped dimension, name-sorted."""
        return sorted(self.graph.successors(cuboid), key=sorted)

    # -- planning ------------------------------------------------------------

    def smallest_parent_tree(self) -> nx.DiGraph:
        """The smallest-parent spanning tree rooted at the base cuboid.

        Every non-base cuboid is computed from its smallest parent (by
        estimated size; name-sorted tie-break keeps plans deterministic).
        The result is the *minimum size spanning tree* of [20] for the
        uniform-cost-per-cell model.

        Returns
        -------
        networkx.DiGraph
            A spanning arborescence of :attr:`graph` rooted at
            :attr:`base`: every node keeps its ``size`` attribute and
            every non-base cuboid has exactly one incoming edge from
            the parent it should be aggregated from.
        """
        tree = nx.DiGraph()
        tree.add_nodes_from(self.graph.nodes(data=True))
        for node in self.graph.nodes:
            if node == self.base:
                continue
            parent = min(
                self.parents(node), key=lambda p: (self.cuboid_size(p), sorted(p))
            )
            tree.add_edge(parent, node)
        return tree

    def computation_order(self) -> list[tuple[Cuboid, Cuboid | None]]:
        """(cuboid, source-parent) pairs in a valid computation order.

        Returns
        -------
        list[tuple[Cuboid, Cuboid | None]]
            A topological order of the smallest-parent tree.  The base
            cuboid comes first with source ``None`` (computed from the
            fact table); every other cuboid appears after the smallest
            parent it is derived from.
        """
        tree = self.smallest_parent_tree()
        order: list[tuple[Cuboid, Cuboid | None]] = [(self.base, None)]
        for node in nx.topological_sort(tree):
            if node == self.base:
                continue
            preds = list(tree.predecessors(node))
            order.append((node, preds[0]))
        return order

    def total_tree_cost(self) -> int:
        """Sum of parent sizes along the smallest-parent tree edges.

        Returns
        -------
        int
            A proxy for the cells scanned while building the full cube
            — what the minimum-size-spanning-tree construction
            minimises.
        """
        tree = self.smallest_parent_tree()
        return sum(self.cuboid_size(parent) for parent, _ in tree.edges)

    def __repr__(self) -> str:
        return (
            f"CubeLattice({len(self.dimensions)} dims, {self.num_cuboids} cuboids, "
            f"base size {self.cuboid_size(self.base)})"
        )
