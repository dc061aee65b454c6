"""Grouped (multi-cell) query execution — the OLAP group-by extension.

The paper's evaluation queries return a single aggregate; production
OLAP queries overwhelmingly group ("revenue BY month BY region").  All
the substrate pieces already exist — cubes *are* materialised group-bys
and the build algorithms compute full lattices — so this module adds
grouped execution over every answer path:

- :func:`groupby_from_table` — the reference path: vectorised
  filter + ``bincount`` over the group columns;
- :func:`groupby_with_cube` — the CPU path: slice the sub-cube, then
  fold its cells into the groups (every non-grouped axis reduced,
  grouped axes coarsened) with the cube's one fold;
- :func:`run_groupby_kernel` — the GPU path: per-SM shards walked a
  tile at a time (bounds, tiles and the predicate conjunction shared
  with the scalar kernels of :mod:`repro.gpu.kernels`); each tile's
  surviving group coordinates and measure values are compacted into
  call-owned scratch and scattered into dense group arrays — the counts
  plus the one component the aggregate folds (the Lauer et al.
  reduction generalised from scalars to group vectors, with the device's
  atomic adds into one dense array standing in for per-block partials).

All three produce identical cells — asserted by the integration tests.
The GPU cost model needs no extension: group columns already count into
:math:`C_{Q_D}` (see ``QueryDecomposition.columns_accessed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import CubeError, QueryError, TranslationError
from repro.gpu.kernels import TilePredicate, _shard_bounds
from repro.olap.cube import OLAPCube, fold
from repro.olap.subcube import spec_for_query
from repro.query.model import Query, QueryDecomposition, decompose
from repro.relational.table import FactTable

__all__ = [
    "GroupedResult",
    "groupby_from_table",
    "groupby_with_cube",
    "run_groupby_kernel",
]

#: Guard against group spaces too large to materialise densely.
MAX_GROUP_CELLS = 1 << 22


@dataclass(frozen=True)
class GroupedResult:
    """Cells of a grouped aggregation.

    ``cells`` maps a coordinate tuple (one coordinate per ``group_by``
    entry, in query order) to the aggregated value.  Only populated
    groups appear.
    """

    group_by: tuple[tuple[str, int], ...]
    cells: Mapping[tuple[int, ...], float]
    rows_matched: int

    def value_at(self, *coords: int) -> float:
        try:
            return self.cells[tuple(coords)]
        except KeyError:
            raise QueryError(f"no populated group at {coords}") from None

    @property
    def num_groups(self) -> int:
        return len(self.cells)

    def top(self, n: int = 10) -> list[tuple[tuple[int, ...], float]]:
        """Groups sorted by value, largest first."""
        return sorted(self.cells.items(), key=lambda kv: -kv[1])[:n]

    def total(self) -> float:
        """Sum of all cells (equals the ungrouped sum for sum/count)."""
        return float(sum(self.cells.values()))


def _group_setup(query: Query, hierarchies) -> tuple[list[int], int]:
    """Cardinalities of the group axes and the dense group-space size."""
    if not query.group_by:
        raise QueryError("query has no group_by; use the scalar paths")
    cards = []
    for dim, res in query.group_by:
        hierarchy = hierarchies[dim]
        cards.append(hierarchy.cardinality(res))
    size = 1
    for c in cards:
        size *= c
    if size > MAX_GROUP_CELLS:
        raise CubeError(
            f"group space of {size} cells exceeds the dense budget "
            f"({MAX_GROUP_CELLS}); group at a coarser resolution"
        )
    return cards, size


def _cells_from_dense(
    query: Query, cards: Sequence[int], folded: Mapping[str, np.ndarray | None]
) -> dict[tuple[int, ...], float]:
    """The populated groups of dense ``sum`` / ``count`` / ``min`` /
    ``max`` arrays, valued by the query's aggregate."""
    counts = folded["count"]
    populated = np.flatnonzero(counts > 0)
    if query.agg == "avg":
        values = folded["sum"][populated] / counts[populated]
    else:
        values = folded[query.agg][populated]
    keys = zip(*(axis.tolist() for axis in np.unravel_index(populated, cards)))
    return dict(zip(keys, values.tolist()))


# -- reference path: the fact table ----------------------------------------


def groupby_from_table(table: FactTable, query: Query) -> GroupedResult:
    """Grouped aggregation by direct table scan (the reference answer)."""
    hierarchies = table.schema.hierarchies
    decomposition = decompose(query, hierarchies)
    if decomposition.needs_translation:
        raise TranslationError("translate text conditions before grouped execution")
    cards, size = _group_setup(query, hierarchies)

    mask = table.filter_mask(decomposition)
    rows = int(np.count_nonzero(mask))
    group_coords = [
        np.asarray(table.column(col), dtype=np.intp)[mask]
        for col in decomposition.group_columns
    ]
    labels = (
        np.ravel_multi_index(group_coords, cards)
        if rows
        else np.empty(0, dtype=np.intp)
    )

    if query.agg == "count":
        values = np.ones(rows)
    else:
        values = np.asarray(table.column(query.measures[0]), dtype=np.float64)[mask]
    sums = np.bincount(labels, weights=values, minlength=size)
    counts = np.bincount(labels, minlength=size).astype(np.float64)
    mins = maxs = None
    if query.agg in ("min", "max"):
        mins = np.full(size, np.inf)
        maxs = np.full(size, -np.inf)
        np.minimum.at(mins, labels, values)
        np.maximum.at(maxs, labels, values)
    return GroupedResult(
        group_by=query.group_by,
        cells=_cells_from_dense(
            query, cards, {"sum": sums, "count": counts, "min": mins, "max": maxs}
        ),
        rows_matched=rows,
    )


# -- CPU path: the cube ------------------------------------------------------


def groupby_with_cube(cube: OLAPCube, query: Query) -> GroupedResult:
    """Grouped aggregation from a materialised cube.

    The sub-cube is selected per the query's conditions; every cell is
    then assigned a group label (its coordinate coarsened to the
    group's resolution on grouped axes) and the cells are folded into
    their groups by :func:`~repro.olap.cube.fold`.  ``min``/``max`` need
    the cube's min/max components and read populated cells only.
    """
    hierarchies = {d.name: d for d in cube.dimensions}
    cards, size = _group_setup(query, hierarchies)
    for dim, res in query.group_by:
        if dim not in hierarchies:
            raise QueryError(f"cube has no dimension {dim!r}")
        if res > cube.resolution_of(dim):
            raise QueryError(
                f"group-by needs {dim!r} at resolution {res} but the cube is "
                f"materialised at {cube.resolution_of(dim)}"
            )

    spec = spec_for_query(cube, query)

    # per-axis selected original coordinates, as an open mesh over the
    # sub-cube; per-axis group labels (0 for non-grouped axes) broadcast
    # over it and combine into flat group labels
    mesh = np.ix_(*(np.arange(extent)[sel] for extent, sel in zip(cube.shape, spec.selectors)))
    labels = np.zeros(tuple(coords.size for coords in mesh), dtype=np.intp)
    stride = size
    for dim, res in query.group_by:
        axis = cube.axis_of(dim)
        card = hierarchies[dim].cardinality(res)
        stride //= card
        labels += mesh[axis] // (cube.shape[axis] // card) * stride

    def _select(name: str) -> np.ndarray:
        return cube.slice_component(name, spec.selectors)

    sub_counts = _select("count").ravel()
    extremes = None
    if query.agg in ("min", "max"):
        extremes = (_select("min").ravel(), _select("max").ravel())
    folded = fold(labels.ravel(), size, _select("sum").ravel(), sub_counts, extremes)
    return GroupedResult(
        group_by=query.group_by,
        cells=_cells_from_dense(query, cards, folded),
        rows_matched=int(sub_counts.sum()),
    )


# -- GPU path: sharded kernel -----------------------------------------------


def run_groupby_kernel(
    table: FactTable, decomposition: QueryDecomposition, n_sm: int
) -> GroupedResult:
    """Grouped aggregation across ``n_sm`` simulated SM shards.

    The scalar kernels' loop with vectors instead of scalars: per tile,
    the same :class:`~repro.gpu.kernels.TilePredicate` (which refuses
    untranslated text predicates) gives the mask, the group coordinates
    and the measure of the surviving rows are compacted into scratch —
    slice, mask, then cast — and scattered into the dense group arrays
    of the components the aggregate needs.  Rows are folded in table
    order, so the cells equal :func:`groupby_from_table`'s bit for bit
    whatever ``n_sm`` is.
    """
    query = decomposition.query
    cards, size = _group_setup(query, table.schema.hierarchies)
    predicate = TilePredicate(table, decomposition)
    group_columns = [
        (column, np.empty(predicate.tile_rows, dtype=column.dtype))
        for column in map(table.column, decomposition.group_columns)
    ]
    # counts and sums cost nothing until written; of the extremes, only
    # the one the aggregate folds is materialised
    counts = np.zeros(size)
    sums = np.zeros(size)
    mins = np.full(size, np.inf) if query.agg == "min" else None
    maxs = np.full(size, -np.inf) if query.agg == "max" else None
    measure = table.column(query.measures[0]) if query.agg != "count" else None
    scratch = None if measure is None else np.empty(predicate.tile_rows, dtype=measure.dtype)

    rows_matched = 0
    for lo, hi in _shard_bounds(table.num_rows, n_sm):
        for start, stop, mask, passed in predicate.tiles(lo, hi):
            if not passed:
                continue
            rows_matched += passed
            labels = np.ravel_multi_index(
                [
                    np.compress(mask, column[start:stop], out=coords[:passed])
                    for column, coords in group_columns
                ],
                cards,
            )
            np.add.at(counts, labels, 1.0)
            if measure is None:
                continue
            values = np.compress(mask, measure[start:stop], out=scratch[:passed])
            if mins is not None:
                np.minimum.at(mins, labels, values)
            elif maxs is not None:
                np.maximum.at(maxs, labels, values)
            else:
                np.add.at(sums, labels, values)
    return GroupedResult(
        group_by=query.group_by,
        cells=_cells_from_dense(
            query, cards, {"sum": sums, "count": counts, "min": mins, "max": maxs}
        ),
        rows_matched=rows_matched,
    )
