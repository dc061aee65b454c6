"""Brute-force full-cube reference — the correctness oracle.

:func:`full_cube_reference` materialises every cuboid of the group-by
lattice (Section II-A, Gray et al.'s CUBE operator) by re-scanning the
fact table once per cuboid and accumulating cells in plain Python
dictionaries.  It is deliberately the slowest possible implementation:
no shared computation, no planning, no vectorised inner loop — just the
definition of the full cube, written down.  The three real construction
algorithms (:mod:`~benchmarks.kit.buildalgs.arraybased`,
:mod:`~benchmarks.kit.buildalgs.buc`, :mod:`~benchmarks.kit.buildalgs.pipesort`)
are cross-checked against it cell-for-cell.

All builders share one output contract (see the package docstring):
``frozenset(dimension names) -> {coordinate tuple -> sum}``, with
coordinates ordered by **sorted dimension name** and an optional
iceberg condition ``COUNT(*) >= min_support`` applied per cell.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import CubeError
from repro.olap.cube import level_columns

if TYPE_CHECKING:  # avoid a hard olap -> relational dependency
    from repro.relational.table import FactTable

__all__ = ["full_cube_reference", "project_coordinates"]

#: The cuboid-dictionary type every builder returns.
CuboidDict = dict


def check_build_args(
    table: "FactTable",
    measure: str,
    resolutions: Mapping[str, int],
    min_support: int,
) -> list[str]:
    """Validate the shared builder arguments; return sorted dimension names.

    Every construction algorithm calls this first, so the four builders
    accept and reject exactly the same inputs.

    Parameters
    ----------
    table:
        The fact table to cube.
    measure:
        Name of the measure column to aggregate (``SUM`` per cell).
    resolutions:
        Mapping of dimension name to resolution index; its keys define
        the dimension set the lattice is built over.
    min_support:
        The iceberg threshold of Beyer & Ramakrishnan's BUC paper: a
        cell survives iff at least ``min_support`` fact rows fall into
        it.  ``min_support=1`` (the default everywhere) keeps every
        non-empty cell, i.e. the ordinary full cube.

    Returns
    -------
    list[str]
        The dimension names in sorted order — the canonical coordinate
        order of every cell key the builders emit.

    Raises
    ------
    CubeError
        If ``min_support < 1`` or a resolution is out of range.
    SchemaError
        If a dimension or the measure is not in ``table``'s schema.
    """
    if min_support < 1:
        raise CubeError(f"min_support must be >= 1, got {min_support}")
    schema = table.schema
    names = sorted(resolutions)
    for name in names:
        schema.dimension(name).check_resolution(resolutions[name])
    table.column(measure)  # raises SchemaError for unknown measures
    return names


def project_coordinates(
    table: "FactTable",
    dimensions: Sequence[str],
    resolutions: Mapping[str, int],
) -> np.ndarray:
    """Per-row coordinates of ``dimensions`` at the requested resolutions.

    Parameters
    ----------
    dimensions:
        Dimension names to project, in the desired column order
        (callers pass sorted names for the canonical cell-key order).
    resolutions:
        Mapping of dimension name to the resolution index whose level
        column is read; may contain extra keys.

    Returns
    -------
    numpy.ndarray
        An ``(num_rows, len(dimensions))`` int64 array whose column
        ``i`` is the fact-table dimension column of ``dimensions[i]``
        at level ``resolutions[dimensions[i]]``, read by
        :func:`~repro.olap.cube.level_columns` like every dense cube's
        rows.
    """
    if not dimensions:
        return np.empty((len(table), 0), dtype=np.int64)
    dims = [table.schema.dimension(name) for name in dimensions]
    columns = level_columns(table, dims, [resolutions[name] for name in dimensions])
    return np.column_stack(columns).astype(np.int64)


def full_cube_reference(
    table: "FactTable",
    measure: str,
    resolutions: Mapping[str, int],
    min_support: int = 1,
) -> CuboidDict:
    """The full (or iceberg) cube by definition: one scan per cuboid.

    Every subset of the dimension set becomes a cuboid; every cuboid is
    computed independently by a row-at-a-time Python accumulation over
    the projected coordinates.  Cells whose row count falls below
    ``min_support`` are dropped after aggregation (the iceberg
    condition applied exactly, with no pruning shortcuts to trust).

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
        Iceberg threshold; see :func:`check_build_args`.

    Returns
    -------
    CuboidDict
        ``frozenset(dimension names) -> {coordinate tuple -> sum}``
        with one entry per subset of the dimension set, coordinates in
        sorted-name order.

    Raises
    ------
    CubeError, SchemaError
        As documented on :func:`check_build_args`.
    """
    names = check_build_args(table, measure, resolutions, min_support)
    values = np.asarray(table.column(measure), dtype=np.float64).tolist()

    cube: CuboidDict = {}
    for k in range(len(names) + 1):
        for combo in itertools.combinations(names, k):
            coords = project_coordinates(table, combo, resolutions)
            sums: dict[tuple[int, ...], float] = {}
            counts: dict[tuple[int, ...], int] = {}
            for key, value in zip(map(tuple, coords.tolist()), values):
                sums[key] = sums.get(key, 0.0) + value
                counts[key] = counts.get(key, 0) + 1
            cube[frozenset(combo)] = {
                key: total
                for key, total in sums.items()
                if counts[key] >= min_support
            }
    return cube
