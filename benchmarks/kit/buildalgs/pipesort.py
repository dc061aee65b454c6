"""Top-down PipeSort construction (Agarwal et al.'s sort-based method).

PipeSort exploits that one sorted run of the data computes a whole
*pipeline* of cuboids at once: with rows ordered by ``(d1, d2, ..., dk)``
every prefix ``(d1..dL)`` groups into contiguous runs, so the cuboids
``{}, {d1}, {d1,d2}, ... {d1..dk}`` all fall out of a single scan.
Covering the 2^n-cuboid lattice therefore reduces to a **minimum path
cover** of the lattice by prefix chains.

:func:`plan_pipelines` builds that cover from the symmetric chain
decomposition of the Boolean lattice (de Bruijn / Tengbergen / Kruyswijk
construction): exactly ``C(n, n // 2)`` chains — provably minimal, since
each chain holds at most one cuboid of the largest rank — each extended
downward into a concrete sort order.  :func:`pipesort_cube` then
executes one :func:`numpy.lexsort` + prefix-scan per pipeline.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import CubeError
from benchmarks.kit.buildalgs.reference import CuboidDict, check_build_args, project_coordinates

if TYPE_CHECKING:  # avoid a hard olap -> relational dependency
    from repro.relational.table import FactTable

__all__ = ["pipesort_cube", "plan_pipelines"]


def plan_pipelines(names: Sequence[str]) -> list[tuple[str, ...]]:
    """Minimum prefix-chain cover of the cuboid lattice over ``names``.

    The result depends only on the *set* of names: names are sorted
    internally, the full sort order ``tuple(sorted(names))`` always
    comes first, and the remaining pipelines follow in
    (length-descending, lexicographic) order.

    Parameters
    ----------
    names:
        The dimension names spanning the lattice; order is irrelevant,
        duplicates are rejected.

    Returns
    -------
    list[tuple[str, ...]]
        Sort orders such that every one of the ``2^n`` cuboids is a
        prefix of at least one order, using the provably minimal
        ``C(n, n // 2)`` pipelines (symmetric chain decomposition).

    Raises
    ------
    CubeError
        If ``names`` contains duplicates.
    """
    ordered = sorted(names)
    if len(set(ordered)) != len(ordered):
        raise CubeError(f"duplicate dimension names: {list(names)}")

    # Symmetric chain decomposition, chains represented as (order, lo):
    # the chain's cuboids are the prefixes of ``order`` with lengths
    # lo .. len(order).
    chains: list[tuple[tuple[str, ...], int]] = [((), 0)]
    for name in ordered:
        grown: list[tuple[tuple[str, ...], int]] = []
        for order, lo in chains:
            # extend the chain's top set by the new element
            grown.append((order + (name,), lo))
            if len(order) > lo:
                # the sibling chain: every set except the old top,
                # each augmented with the new element
                grown.append((order[:lo] + (name,) + order[lo:-1], lo + 1))
        chains = grown

    return sorted((order for order, _ in chains), key=lambda o: (-len(o), o))


def pipesort_cube(
    table: "FactTable",
    measure: str,
    resolutions: Mapping[str, int],
    min_support: int = 1,
) -> CuboidDict:
    """Full/iceberg cube via sorted pipeline scans.

    Each pipeline from :func:`plan_pipelines` sorts the projected
    coordinates once (:func:`numpy.lexsort`) and aggregates every
    still-uncomputed prefix cuboid from the contiguous runs of that
    sorted order.

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

    Returns
    -------
    CuboidDict
        Same shape as
        :func:`~benchmarks.kit.buildalgs.reference.full_cube_reference`,
        cell-for-cell identical to it.

    Raises
    ------
    CubeError, SchemaError
        As documented on
        :func:`~benchmarks.kit.buildalgs.reference.check_build_args`.
    """
    names = check_build_args(table, measure, resolutions, min_support)
    values = np.asarray(table.column(measure), dtype=np.float64)
    num_rows = len(table)

    cube: CuboidDict = {
        frozenset(combo): {} for k in range(len(names) + 1)
        for combo in combinations(names, k)
    }
    if num_rows == 0:
        return cube

    column_of = {
        name: project_coordinates(table, [name], resolutions)[:, 0] for name in names
    }

    done: set[frozenset] = set()
    for order in plan_pipelines(names):
        if all(frozenset(order[:length]) in done for length in range(len(order) + 1)):
            continue
        columns = [column_of[name] for name in order]
        # lexsort's last key is primary, so reverse: d1 is the major key
        perm = np.lexsort(tuple(reversed(columns))) if columns else np.arange(num_rows)
        sorted_columns = [col[perm] for col in columns]
        sorted_values = values[perm]

        changed = np.zeros(max(num_rows - 1, 0), dtype=bool)
        run_change: list[np.ndarray] = []
        for col in sorted_columns:  # cumulative change marks per prefix length
            changed = changed | (col[1:] != col[:-1])
            run_change.append(changed.copy())

        for length in range(len(order), -1, -1):
            cuboid = frozenset(order[:length])
            if cuboid in done:
                continue
            done.add(cuboid)
            if length == 0:
                if num_rows >= min_support:
                    cube[cuboid][()] = float(values.sum())
                continue
            starts = np.concatenate(([0], np.flatnonzero(run_change[length - 1]) + 1))
            sums = np.add.reduceat(sorted_values, starts)
            counts = np.diff(np.append(starts, num_rows))
            # canonical key order is sorted dimension name, which may
            # differ from this pipeline's sort order
            key_order = sorted(range(length), key=lambda i: order[i])
            keys = np.column_stack([sorted_columns[i][starts] for i in key_order])
            keep = counts >= min_support
            cells = cube[cuboid]
            for key, total in zip(keys[keep].tolist(), sums[keep].tolist()):
                cells[tuple(key)] = total
    return cube
