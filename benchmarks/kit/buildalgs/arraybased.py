"""Array-based simultaneous aggregation (Zhao, Deshpande & Naughton).

The MOLAP-native construction algorithm the paper's CPU side builds on:
materialise the **base cuboid** as a dense NumPy array with one
:func:`~repro.olap.cube.fold_rows` pass over the fact table (the fold
every dense cube is built with), then derive every
coarser cuboid from its *smallest parent* along the minimum-size
spanning tree of the group-by lattice (:class:`benchmarks.kit.lattice.CubeLattice`)
— each derivation is a single axis-sum over an already-dense array, so
no cuboid ever touches the fact table twice.

Dense arrays are converted to the shared sparse cell dictionaries by a
cache-conscious chunked traversal: the count array is re-stored as a
:class:`benchmarks.kit.chunks.ChunkedCube` and cells are emitted chunk by
chunk, so the scan walks memory in contiguous blocks (the access
pattern Sirin & Ailamaki's micro-architectural OLAP analysis shows
dominates aggregation throughput) and sparse chunks surface their
occupied cells directly from their compressed offsets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from benchmarks.kit.buildalgs.reference import CuboidDict, check_build_args
from benchmarks.kit.chunks import ChunkedCube, DenseChunk
from benchmarks.kit.lattice import CubeLattice
from repro.olap.cube import fold_rows

if TYPE_CHECKING:  # avoid a hard olap -> relational dependency
    from repro.relational.table import FactTable

__all__ = ["array_based_cube"]

#: Default chunk extent per axis for the dense -> sparse traversal.
DEFAULT_CHUNK_EXTENT = 64


def _emit_cells(
    sums: np.ndarray,
    counts: np.ndarray,
    min_support: int,
    chunk_extent: int,
) -> dict[tuple[int, ...], float]:
    """Occupied cells of one dense cuboid, via chunked traversal."""
    if sums.ndim == 0:  # the apex: a single scalar cell
        return {(): float(sums)} if counts >= min_support else {}

    chunk_shape = tuple(min(chunk_extent, extent) for extent in counts.shape)
    chunked = ChunkedCube.from_dense(counts, chunk_shape)
    cells: dict[tuple[int, ...], float] = {}
    for chunk in chunked.iter_chunks():
        starts = tuple(i * c for i, c in zip(chunk.index, chunk_shape))
        if isinstance(chunk, DenseChunk):
            local = np.nonzero(chunk.data >= min_support)
        else:
            keep = chunk.values >= min_support
            local = np.unravel_index(chunk.offsets[keep], chunk.shape)
        if not local[0].size:
            continue
        global_idx = tuple(axis + start for axis, start in zip(local, starts))
        keys = np.column_stack(global_idx).tolist()
        for key, value in zip(keys, sums[global_idx].tolist()):
            cells[tuple(key)] = value
    return cells


def array_based_cube(
    table: "FactTable",
    measure: str,
    resolutions: Mapping[str, int],
    min_support: int = 1,
    chunk_extent: int = DEFAULT_CHUNK_EXTENT,
) -> CuboidDict:
    """Full/iceberg cube via dense-array simultaneous aggregation.

    One :func:`~repro.olap.cube.fold_rows` pass over the fact table
    builds the dense base cuboid (sum and count arrays); every coarser
    cuboid is then a single axis-sum over its smallest parent along the
    minimum-size spanning tree, so the fact table is scanned exactly
    once.

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
    chunk_extent:
        Per-axis block size of the chunked dense-to-sparse traversal
        that emits occupied cells.

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
    if not names:
        total = float(values.sum())
        return {frozenset(): {(): total} if len(table) >= min_support else {}}

    dims = [table.schema.dimension(name) for name in names]
    levels = [resolutions[name] for name in names]

    # one pass over the fact table: the dense base cuboid (sum + count)
    base = fold_rows(table, measure, dims, levels)

    # every other cuboid: axis-sum from its smallest parent
    lattice = CubeLattice(dims, levels)
    dense: dict[frozenset, tuple[np.ndarray, np.ndarray]] = {
        lattice.base: (base["sum"], base["count"])
    }
    for cuboid, parent in lattice.computation_order():
        if parent is None:
            continue
        dropped = next(iter(parent - cuboid))
        axis = sorted(parent).index(dropped)
        parent_sum, parent_count = dense[parent]
        dense[cuboid] = (parent_sum.sum(axis=axis), parent_count.sum(axis=axis))

    return {
        cuboid: _emit_cells(s, c, min_support, chunk_extent)
        for cuboid, (s, c) in dense.items()
    }
