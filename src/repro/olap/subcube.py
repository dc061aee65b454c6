"""Sub-cube extraction and the eq.-3 size law.

Section III-C: the cost of answering a query from a cube is driven by
the amount of cube data that must be streamed from memory — the
*sub-cube* bounded by the query's per-dimension ranges (Figure 2, "area
of limited search").  Its size is (eq. 3)::

    SC_size [MB] = E_size * prod_i width_i / 1024^2

where ``E_size`` is the cell size in bytes and ``width_i`` is the extent
of the query's condition along dimension ``i`` (``t_i - f_i``; the paper
prints the operands in the opposite order).  Dimensions without a
condition contribute their full cardinality.

This module computes the spec (which axes, which ranges, at the cube's
resolution), the size law, and executes the aggregation against a
materialised :class:`~repro.olap.cube.OLAPCube`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import QueryError, ResolutionError
from repro.olap.cube import OLAPCube
from repro.query.model import Condition, Query
from repro.units import bytes_to_mb

__all__ = [
    "SubcubeSpec",
    "subcube_size_bytes",
    "subcube_size_mb",
    "spec_for_query",
    "answer_with_cube",
]


@dataclass(frozen=True)
class SubcubeSpec:
    """The selection a query induces on a cube, one selector per axis.

    ``widths[i]`` is the number of selected coordinates on axis ``i``;
    ``selectors[i]`` is either a ``slice`` (contiguous range, possibly
    full-axis) or an integer index array (translated code set).
    """

    widths: tuple[int, ...]
    selectors: tuple[object, ...]  # slice | np.ndarray per axis
    cell_nbytes: int

    @property
    def num_cells(self) -> int:
        n = 1
        for w in self.widths:
            n *= w
        return n

    @property
    def nbytes(self) -> int:
        """Bytes of cube data the aggregation must stream (eq. 3)."""
        return self.num_cells * self.cell_nbytes

    @property
    def size_mb(self) -> float:
        """:math:`SC_{size}` in MB, the argument of the CPU perf model."""
        return bytes_to_mb(self.nbytes)


def subcube_size_bytes(widths: Sequence[int], cell_nbytes: int) -> int:
    """Eq. 3 in bytes: ``E_size * prod(widths)``."""
    if cell_nbytes <= 0:
        raise QueryError(f"cell size must be positive, got {cell_nbytes}")
    n = 1
    for w in widths:
        if w <= 0:
            raise QueryError(f"sub-cube widths must be positive, got {list(widths)}")
        n *= w
    return n * cell_nbytes


def subcube_size_mb(widths: Sequence[int], cell_nbytes: int) -> float:
    """Eq. 3 as published: sub-cube size in (binary) MB."""
    return bytes_to_mb(subcube_size_bytes(widths, cell_nbytes))


def _selector_for(
    cond: Condition | None, axis_cardinality: int, cube_resolution: int, hierarchy
) -> tuple[int, object]:
    """(width, selector) for one cube axis given an optional condition."""
    if cond is None:
        return axis_cardinality, slice(None)
    if cond.is_text:
        raise QueryError(
            f"condition on {cond.dimension!r} carries untranslated text; the CPU "
            "path must resolve members before cube aggregation"
        )
    if cond.resolution > cube_resolution:
        raise ResolutionError(
            f"condition on {cond.dimension!r} needs resolution {cond.resolution} "
            f"but the cube is materialised at {cube_resolution}"
        )
    if cond.is_range:
        refined = cond.at_resolution(cube_resolution, hierarchy)
        assert refined.lo is not None and refined.hi is not None
        return refined.hi - refined.lo, slice(refined.lo, refined.hi)
    # code set: refine each code to its block of children at cube resolution
    factor = hierarchy.cardinality(cube_resolution) // hierarchy.cardinality(cond.resolution)
    codes = np.asarray(sorted(set(cond.codes)), dtype=np.intp)
    if codes.size and (codes.min() < 0 or codes.max() >= hierarchy.cardinality(cond.resolution)):
        raise QueryError(
            f"codes out of range for {cond.dimension!r} at resolution {cond.resolution}"
        )
    if factor == 1:
        return len(codes), codes
    expanded = (codes[:, None] * factor + np.arange(factor)[None, :]).ravel()
    return len(expanded), expanded


def spec_for_query(cube: OLAPCube, query: Query) -> SubcubeSpec:
    """Build the :class:`SubcubeSpec` a query induces on ``cube``.

    Conditions stated at coarser resolutions than the cube's are refined
    exactly (coarse ranges cover whole blocks of children).  Conditions
    finer than the cube's resolution are an error — the pyramid must
    pick a sufficiently fine cube first (eq. 2).  The cube must
    materialise the query's measure: a pyramid never hands this
    function another one (``CubePyramid.select_level`` refuses the
    query first), so the check guards direct callers with a bare cube
    on every answer path (scalar, thread-parallel, grouped).
    """
    if not query.answerable_from(cube.measure):
        raise QueryError(
            f"cube aggregates measure {cube.measure!r} but query asks for "
            f"{list(query.measures)}"
        )
    widths: list[int] = []
    selectors: list[object] = []
    for axis, (dim, res) in enumerate(zip(cube.dimensions, cube.resolutions)):
        cond = query.condition_on(dim.name)
        width, sel = _selector_for(cond, cube.shape[axis], res, dim)
        widths.append(width)
        selectors.append(sel)
    # conditions must not reference dimensions the cube lacks
    cube_dims = {d.name for d in cube.dimensions}
    for cond in query.conditions:
        if cond.dimension not in cube_dims:
            raise QueryError(
                f"query constrains dimension {cond.dimension!r} which the cube "
                f"does not have (cube dims: {sorted(cube_dims)})"
            )
    return SubcubeSpec(
        widths=tuple(widths),
        selectors=tuple(selectors),
        cell_nbytes=cube.cell_nbytes,
    )


def answer_with_cube(cube: OLAPCube, query: Query) -> float:
    """Answer a (translated) query from a materialised cube.

    Returns the aggregated value for the query's single measure.
    """
    return cube.aggregate(spec_for_query(cube, query).selectors, query.agg)
