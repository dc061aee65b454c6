"""GPU-side cube construction.

Section III-A assigns the GPU two tasks: answering queries *and*
*"building the cube from relational tables stored in GPU memory"* — the
path by which new pyramid levels are pre-calculated without streaming
the fact table through the host.

The simulated implementation mirrors the query kernels' structure
(:mod:`repro.gpu.kernels`): the resident table's rows are split into
per-SM shards, each shard folds a *partial cube* (dense sum/count
arrays by :func:`~repro.olap.cube.fold` — the array-based aggregation
of [20] on SIMT hardware), and the partials are reduced pairwise on the
device (a parallel tree reduction).  The result equals
:meth:`OLAPCube.from_fact_table`'s: counts exactly, sums up to the
order the tree adds the partials in, which the tests assert.

Timing follows the same bandwidth law as query scans: the build streams
every dimension column at the target resolutions plus the measure
column once, and writes the cube cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import CubeError, DeviceError
from repro.gpu.device import SimulatedGPU
from repro.gpu.kernels import _shard_bounds
from repro.olap.cube import OLAPCube, cell_index, fold, level_columns

__all__ = ["CubeBuildResult", "build_cube_on_device"]


@dataclass(frozen=True)
class CubeBuildResult:
    """Outcome of a device-side cube build."""

    cube: OLAPCube
    simulated_time: float
    n_sm: int
    bytes_streamed: int
    reduction_depth: int


def _tree_reduce(partials: list[dict[str, np.ndarray]]) -> tuple[dict[str, np.ndarray], int]:
    """Pairwise tree reduction of the per-SM partial cubes."""
    depth = 0
    level = partials
    while len(level) > 1:
        depth += 1
        nxt = [
            {name: a[name] + b[name] for name in a}
            for a, b in zip(level[0::2], level[1::2])
        ]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0], depth


def build_cube_on_device(
    device: SimulatedGPU,
    measure: str,
    resolutions: Sequence[int],
    n_sm: int | None = None,
    max_cells: int = 1 << 24,
) -> CubeBuildResult:
    """Build a dense cube from the device-resident fact table.

    Parameters
    ----------
    device:
        A :class:`SimulatedGPU` with a *materialised* table resident
        (analytic descriptors carry no data to aggregate).
    measure:
        Measure column to aggregate.
    resolutions:
        Target resolution per dimension.
    n_sm:
        SMs used for the build; defaults to the whole device (cube
        builds are batch jobs, not latency-bound queries).
    max_cells:
        Guard against cubes that exceed (simulated) device memory.
    """
    table = device.table
    if table is None:
        raise DeviceError(
            "cube building requires a materialised resident table; the "
            "analytic plane pre-computes pyramid levels from shapes alone"
        )
    if n_sm is None:
        n_sm = device.num_sms
    device._check_sm(n_sm)

    schema = table.schema
    dims = schema.dimensions
    if len(resolutions) != len(dims):
        raise CubeError(
            f"expected {len(dims)} resolutions, got {len(resolutions)}"
        )
    shape = tuple(d.cardinality(d.check_resolution(r)) for d, r in zip(dims, resolutions))
    n_cells = int(np.prod([int(s) for s in shape], dtype=object))
    if n_cells > max_cells:
        raise CubeError(
            f"cube of {n_cells} cells exceeds the device build budget ({max_cells})"
        )
    cell_bytes = n_cells * 16  # sum + count as float64
    if cell_bytes + table.nbytes > device.global_memory_bytes:
        raise DeviceError(
            "cube does not fit in device memory next to the fact table"
        )

    dim_bytes = sum(col.nbytes for col in level_columns(table, dims, resolutions))
    index = cell_index(table, dims, resolutions)
    values = np.asarray(table.column(measure), dtype=np.float64)

    partials = [
        fold(index[lo:hi], n_cells, values[lo:hi])
        for lo, hi in _shard_bounds(table.num_rows, n_sm)
    ]
    cells, depth = _tree_reduce(partials)
    cube = OLAPCube(
        dims,
        list(resolutions),
        {name: arr.reshape(shape) for name, arr in cells.items()},
        measure=measure,
    )

    # timing: stream the needed columns once through the partition's
    # bandwidth, write the cube, plus one reduction pass per tree level
    bytes_streamed = dim_bytes + values.nbytes
    scan_fraction = bytes_streamed / max(1, table.nbytes)
    scan_time = device.timing.query_time(min(1.0, max(1e-9, scan_fraction)), n_sm)
    write_time = cell_bytes / (144e9)  # full-device bandwidth for the cube write
    reduce_time = depth * cell_bytes / (144e9)
    return CubeBuildResult(
        cube=cube,
        simulated_time=scan_time + write_time + reduce_time,
        n_sm=n_sm,
        bytes_streamed=int(bytes_streamed + cell_bytes),
        reduction_depth=depth,
    )
