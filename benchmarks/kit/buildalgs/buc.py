"""Bottom-Up Cube construction (Beyer & Ramakrishnan's BUC).

BUC computes the cube lattice from the apex downward: aggregate the
current partition, then — for each dimension not yet bound — sort the
partition on that dimension and recurse into each coordinate group.
Because every recursive call narrows the row set, the iceberg condition
``COUNT(*) >= min_support`` is *anti-monotone*: a group that fails it
cannot contain any qualifying finer cell, so the whole subtree is
pruned before it is ever materialised.  With ``min_support=1`` no
pruning fires and BUC emits the ordinary full cube.

The pruning hook is exposed (``prune``) so variants — iceberg
conditions on other monotone predicates, sampling-based estimates — can
reuse the partition recursion unchanged.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from benchmarks.kit.buildalgs.reference import CuboidDict, check_build_args, project_coordinates

if TYPE_CHECKING:  # avoid a hard olap -> relational dependency
    from repro.relational.table import FactTable

__all__ = ["buc_cube"]

#: A pruning hook: (partition row indices, measure values) -> keep subtree?
PruneHook = Callable[[np.ndarray, np.ndarray], bool]


def buc_cube(
    table: "FactTable",
    measure: str,
    resolutions: Mapping[str, int],
    min_support: int = 1,
    prune: PruneHook | None = None,
) -> CuboidDict:
    """Full/iceberg cube via bottom-up recursive partitioning.

    Aggregates the current partition, then sorts it on each unbound
    dimension and recurses into the coordinate groups; subtrees whose
    partition fails the (anti-monotone) iceberg condition are pruned
    before they are materialised.

    Parameters
    ----------
    table:
        The fact table to cube.
    measure:
        Measure column summed per cell.
    resolutions:
        Dimension name -> resolution index; the keys are the dimension
        set of the lattice.
    min_support:
        Iceberg threshold; see
        :func:`~benchmarks.kit.buildalgs.reference.check_build_args`.
    prune:
        Optional replacement for the default support test
        ``partition_size >= min_support``.  Called with the partition's
        row indices and the full measure array; returning ``False``
        prunes the subtree.  Must be anti-monotone (a superset of a
        rejected partition is also rejected) for the output to equal
        the exact iceberg cube.

    Returns
    -------
    CuboidDict
        Same shape as
        :func:`~benchmarks.kit.buildalgs.reference.full_cube_reference`.
        Every cuboid key is present even when pruning empties its cell
        dictionary.

    Raises
    ------
    CubeError, SchemaError
        As documented on
        :func:`~benchmarks.kit.buildalgs.reference.check_build_args`.
    """
    names = check_build_args(table, measure, resolutions, min_support)
    values = np.asarray(table.column(measure), dtype=np.float64)
    coords = project_coordinates(table, names, resolutions)
    num_dims = len(names)

    if prune is None:
        def prune(idx: np.ndarray, _vals: np.ndarray) -> bool:
            return idx.size >= min_support

    # Every cuboid key exists up front: pruning may empty a cuboid's
    # cell dictionary but never removes the cuboid from the result.
    cube: CuboidDict = {
        frozenset(combo): {} for k in range(num_dims + 1)
        for combo in combinations(names, k)
    }

    def recurse(idx: np.ndarray, first_dim: int, bound: tuple[tuple[int, int], ...]) -> None:
        # bound holds (dimension index, coordinate) pairs in increasing
        # dimension index == sorted-name order, the canonical key order.
        cuboid = frozenset(names[d] for d, _ in bound)
        key = tuple(coord for _, coord in bound)
        cube[cuboid][key] = float(values[idx].sum())

        for d in range(first_dim, num_dims):
            column = coords[idx, d]
            order = np.argsort(column, kind="stable")
            sorted_column = column[order]
            # group boundaries: positions where the coordinate changes
            cuts = np.flatnonzero(np.diff(sorted_column)) + 1
            for group in np.split(order, cuts):
                if prune(group, values[idx[group]]):
                    coord = int(column[group[0]])
                    recurse(idx[group], d + 1, bound + ((d, coord),))

    all_rows = np.arange(len(table))
    if prune(all_rows, values):
        recurse(all_rows, 0, ())
    return cube
