"""Multi-resolution cube pyramids (Figure 1 of the paper).

A hybrid OLAP system keeps several pre-calculated cubes of the same
measure at different resolutions: coarse cubes are tiny and answer
low-resolution queries fast; fine cubes grow geometrically until they no
longer fit in memory (level *M* in Figure 1).  Queries needing still
finer resolution are answered by the GPU from the raw fact table; the
resolution where CPU cube processing and GPU raw processing break even
is level *G*.

:class:`CubePyramid` manages the level set, implements the paper's cube
selection rule (*"it is always desirable to respond to the query using a
cube with lowest possible resolution"*, Section III-C), the analytic
sub-cube size estimate the scheduler feeds to the CPU performance model,
and the level-M / level-G computations.  It is also the one owner of
*which cube may answer a query*: eq. 2's resolution test per level plus
the measure rule (:meth:`CubePyramid.aggregates` — a pyramid answers
only its own measure, ``count`` excepted), both enforced by
:meth:`CubePyramid.select_level`, which every estimate and every answer
on either plane goes through.

The selection rule also applies *per part of a query*: one CPU answer
(:meth:`CubePyramid.aggregate`) of a sum, count or avg over a box of
ranges reads the part of the box aligned to the next coarser
materialised level's blocks at that level, and only the ragged border
slabs at the selected one (:meth:`CubePyramid.boxes`).  Step 2 still
prices eq. 3's :math:`SC_{size}` of the selected level, so no Figure-10
decision depends on the split; only the bytes streamed fall.

Levels may be *materialised* (backed by a real
:class:`~repro.olap.cube.OLAPCube`) or *analytic* (shape and cell size
only).  The evaluation's paper-scale pyramid (~32 GB / ~500 MB / ~500 KB
/ ~4 KB cubes) is analytic; laptop-scale test pyramids are materialised
and answer real queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.errors import CubeError, CubeNotAvailableError
from repro.olap.cube import OLAPCube, reduce_sequential
from repro.olap.hierarchy import DimensionHierarchy
from repro.olap.parallel import streams_alone
from repro.olap.subcube import spec_for_query
from repro.query.model import Query
from repro.units import bytes_to_mb, fmt_bytes

if TYPE_CHECKING:  # avoid a hard olap -> relational dependency
    from repro.relational.table import FactTable

__all__ = ["PyramidLevel", "CubePyramid"]

#: the aggregates a sum over disjoint boxes answers exactly
_ADDITIVE = ("sum", "count", "avg")


@dataclass(frozen=True)
class PyramidLevel:
    """One pre-calculated cube of the pyramid.

    Attributes
    ----------
    resolutions:
        Resolution index per dimension (axis order of the pyramid).
    cell_nbytes:
        :math:`E_{size}`: bytes per cell.
    cube:
        The materialised cube, or ``None`` for an analytic level.
    """

    resolutions: tuple[int, ...]
    cell_nbytes: int
    cube: OLAPCube | None = None

    @property
    def materialised(self) -> bool:
        return self.cube is not None


class CubePyramid:
    """An ordered set of pre-calculated cubes for one measure.

    Parameters
    ----------
    dimensions:
        Dimension hierarchies shared by every level (axis order).
    levels:
        The pyramid levels; stored sorted by total size ascending.
    measure:
        The measure the cubes aggregate.
    """

    def __init__(
        self,
        dimensions: Sequence[DimensionHierarchy],
        levels: Iterable[PyramidLevel],
        measure: str = "value",
    ):
        self.dimensions = tuple(dimensions)
        self.measure = measure
        lvls = list(levels)
        if not lvls:
            raise CubeError("a pyramid needs at least one level")
        for lvl in lvls:
            if len(lvl.resolutions) != len(self.dimensions):
                raise CubeError(
                    f"level resolutions {lvl.resolutions} do not match "
                    f"{len(self.dimensions)} dimensions"
                )
            for d, r in zip(self.dimensions, lvl.resolutions):
                d.check_resolution(r)
            if lvl.cube is not None and lvl.cube.resolutions != lvl.resolutions:
                raise CubeError(
                    f"materialised cube resolutions {lvl.cube.resolutions} disagree "
                    f"with level {lvl.resolutions}"
                )
        self._levels = tuple(sorted(lvls, key=lambda l: self.level_nbytes(l)))
        # each level's next coarser materialised level: the finest other
        # one at a resolution <= on every axis, so its cells are whole
        # blocks of this level's cells
        self._coarser = {
            id(level): max(
                (
                    other
                    for other in self._levels
                    if other.cube is not None
                    and other.resolutions != level.resolutions
                    and all(c <= r for c, r in zip(other.resolutions, level.resolutions))
                ),
                key=lambda other: self.level_nbytes(other) // other.cell_nbytes,
                default=None,
            )
            for level in self._levels
        }

    # -- constructors -------------------------------------------------------

    @classmethod
    def analytic(
        cls,
        dimensions: Sequence[DimensionHierarchy],
        uniform_resolutions: Iterable[int],
        cell_nbytes: int = 16,
        measure: str = "value",
    ) -> "CubePyramid":
        """Pyramid of analytic levels at uniform resolutions.

        ``cell_nbytes`` defaults to 16 (sum + count as float64), the cell
        layout of our materialised cubes.
        """
        levels = [
            PyramidLevel(
                resolutions=tuple(min(r, d.finest_resolution) for d in dimensions),
                cell_nbytes=cell_nbytes,
            )
            for r in uniform_resolutions
        ]
        return cls(dimensions, levels, measure=measure)

    @classmethod
    def from_fact_table(
        cls,
        table: "FactTable",
        measure: str,
        uniform_resolutions: Iterable[int],
        with_minmax: bool = False,
    ) -> "CubePyramid":
        """Materialise a pyramid by building the finest cube then rolling up.

        Each coarser level is an exact roll-up of the finest requested
        level (decomposable aggregates), so the fact table is scanned
        once regardless of the number of levels — the core efficiency
        argument of the array-based algorithm [20].
        """
        dims = table.schema.dimensions
        # clamp first, then de-duplicate: two requests at or above a
        # dimension's finest level are one level, not two sharing a cube
        targets = sorted(
            {tuple(min(r, d.finest_resolution) for d in dims) for r in uniform_resolutions}
        )
        if not targets:
            raise CubeError("need at least one resolution")
        base_res = targets[-1]
        base = OLAPCube.from_fact_table(
            table, measure, resolutions=base_res, with_minmax=with_minmax
        )
        levels = []
        for target in targets:
            cube = base if target == base_res else base.rollup(target)
            levels.append(
                PyramidLevel(resolutions=target, cell_nbytes=cube.cell_nbytes, cube=cube)
            )
        return cls(dims, levels, measure=measure)

    # -- geometry ----------------------------------------------------------

    def level_shape(self, level: PyramidLevel) -> tuple[int, ...]:
        return tuple(
            d.cardinality(r) for d, r in zip(self.dimensions, level.resolutions)
        )

    def level_nbytes(self, level: PyramidLevel) -> int:
        n = level.cell_nbytes
        for extent in self.level_shape(level):
            n *= extent
        return n

    @property
    def levels(self) -> tuple[PyramidLevel, ...]:
        """Levels sorted by size, smallest (coarsest) first."""
        return self._levels

    @property
    def total_nbytes(self) -> int:
        """Memory footprint of the whole pyramid."""
        return sum(self.level_nbytes(l) for l in self._levels)

    def __repr__(self) -> str:
        sizes = ", ".join(fmt_bytes(self.level_nbytes(l)) for l in self._levels)
        return f"CubePyramid({self.measure!r}, {len(self._levels)} levels: {sizes})"

    # -- incremental maintenance ---------------------------------------------

    def ingest(self, table: "FactTable") -> int:
        """Fold a batch of new fact rows into every materialised level.

        All levels stay mutually consistent (each is updated from the
        same batch with mergeable aggregates), so queries keep selecting
        any level freely.  The fold runs level by level and readers do
        not wait for it, so a read beside it can see one level before
        the batch and another after it; an answer split into boxes
        (:meth:`boxes`) reads two levels, which widens that window from
        one level to two.  Raises on analytic pyramids — there is
        nothing to maintain.  Returns the rows ingested.
        """
        analytic = [l.resolutions for l in self._levels if l.cube is None]
        if analytic:
            raise CubeError(
                f"pyramid has analytic levels {analytic}; only materialised "
                "pyramids support incremental ingest"
            )
        rows = 0
        for level in self._levels:
            assert level.cube is not None
            rows = level.cube.ingest(table)
        return rows

    # -- cube selection (Section III-C) ---------------------------------------

    def _can_answer(self, level: PyramidLevel, query: Query) -> bool:
        res_of = {d.name: r for d, r in zip(self.dimensions, level.resolutions)}
        for cond in query.conditions:
            if cond.dimension not in res_of:
                return False
            if res_of[cond.dimension] < cond.resolution:
                return False
        for dim, res in query.group_by:
            if dim not in res_of or res_of[dim] < res:
                return False
        return True

    def aggregates(self, query: Query) -> bool:
        """Can these cubes hold ``query``'s aggregate?  The measure rule
        (:meth:`~repro.query.model.Query.answerable_from`) applied to
        the one measure this pyramid pre-calculates."""
        return query.answerable_from(self.measure)

    def select_level(self, query: Query) -> PyramidLevel:
        """The smallest pre-calculated cube able to answer ``query``.

        Implements eq. 2 + the lowest-possible-resolution rule.  Raises
        :class:`CubeNotAvailableError` when the pyramid holds another
        measure (:meth:`aggregates`) or every level is too coarse — the
        paper's signal that *"the query must be answered by GPU"*.
        """
        if not self.aggregates(query):
            raise CubeNotAvailableError(
                f"no pre-calculated cube for measure(s) {list(query.measures)}; "
                f"this pyramid aggregates {self.measure!r}"
            )
        for level in self._levels:  # smallest first
            if self._can_answer(level, query):
                return level
        raise CubeNotAvailableError(
            f"no pre-calculated cube reaches resolution {query.required_resolution} "
            f"needed by {query}"
        )

    def subcube_size_mb(self, query: Query) -> float:
        """:math:`SC_{size}` (eq. 3) for the level that would answer ``query``.

        This is the quantity the scheduler feeds to the CPU performance
        model :math:`P_{CPU}(SC_{size})`.  Works for analytic levels —
        only shapes and the condition widths are needed.
        """
        level = self.select_level(query)
        widths = []
        for d, r in zip(self.dimensions, level.resolutions):
            cond = query.condition_on(d.name)
            if cond is None:
                widths.append(d.cardinality(r))
            elif cond.is_range:
                refined = cond.at_resolution(r, d)
                assert refined.lo is not None and refined.hi is not None
                widths.append(refined.hi - refined.lo)
            elif cond.is_codes:
                factor = d.cardinality(r) // d.cardinality(cond.resolution)
                widths.append(len(set(cond.codes)) * factor)
            else:
                # text condition: the CPU resolves each literal to one
                # member coordinate natively (no GPU-style translation
                # needed, Section III-F), so the width is the literal
                # count refined to the cube's resolution.
                factor = d.cardinality(r) // d.cardinality(cond.resolution)
                widths.append(len(set(cond.text_values)) * factor)
        n = level.cell_nbytes
        for w in widths:
            n *= w
        return bytes_to_mb(n)

    # -- answers ----------------------------------------------------------

    def _materialised(self, query: Query) -> tuple[PyramidLevel, OLAPCube]:
        level = self.select_level(query)
        if level.cube is None:
            raise CubeError(
                f"selected level {level.resolutions} is analytic; cannot answer "
                "real queries (materialise the pyramid first)"
            )
        return level, level.cube

    def boxes(self, query: Query) -> list[tuple[OLAPCube, tuple]]:
        """The ``(cube, selectors)`` boxes the CPU answer of ``query`` reads.

        Section III-C's lowest-resolution rule, per part of the
        selection.  A box of ranges at the selected level splits in two
        when the selected level has a next coarser materialised level
        (resolution <= on every axis; its cells are blocks of the
        hierarchies' fanouts):

        - the part of the box aligned to those blocks, read at the
          coarser level, first;
        - the <= 2·d ragged border slabs around it, read at the selected
          level.  Axis ``k``'s two slabs span the aligned part on the
          axes before ``k`` and the whole selection on the axes after.

        The boxes are disjoint and cover the selection, so a sum, count
        or avg summed over them is the single-level answer.  Everything
        else is one box, the selection at the selected level: code
        sets, ``min`` / ``max``, group-bys, a level with no coarser
        materialised level, an empty aligned part, and a selection that
        fills no team block (:func:`~repro.olap.parallel.streams_alone`),
        whose extra calls would cost more than the bytes they save.
        """
        level, cube = self._materialised(query)
        spec = spec_for_query(cube, query)
        whole = [(cube, spec.selectors)]
        coarse = self._coarser[id(level)]
        if (
            coarse is None
            or query.agg not in _ADDITIVE
            or query.group_by
            or streams_alone(spec.nbytes)
            or not all(isinstance(sel, slice) for sel in spec.selectors)
        ):
            return whole
        ranges = [sel.indices(n)[:2] for sel, n in zip(spec.selectors, cube.shape)]
        blocks = [
            d.cardinality(r) // d.cardinality(c)
            for d, r, c in zip(self.dimensions, level.resolutions, coarse.resolutions)
        ]
        inner = [(-(-lo // b) * b, hi // b * b) for (lo, hi), b in zip(ranges, blocks)]
        if any(lo >= hi for lo, hi in inner):
            return whole
        aligned = tuple(slice(lo // b, hi // b) for (lo, hi), b in zip(inner, blocks))
        split = [(coarse.cube, aligned)]
        for k, ((lo, hi), (inner_lo, inner_hi)) in enumerate(zip(ranges, inner)):
            head = tuple(slice(*r) for r in inner[:k])
            tail = tuple(slice(*r) for r in ranges[k + 1:])
            for side in ((lo, inner_lo), (inner_hi, hi)):
                if side[0] < side[1]:
                    split.append((cube, head + (slice(*side),) + tail))
        return split

    def aggregate(
        self,
        query: Query,
        reduce: Callable[[np.ndarray, str], float] = reduce_sequential,
    ) -> float:
        """The CPU answer of ``query``: its :meth:`boxes`, each reduced by ``reduce``.

        ``reduce(array, how)`` streams the bytes (a
        :class:`~repro.olap.parallel.ParallelAggregator`'s
        ``reduce_array`` on the served plane, so a box that still fills
        two team blocks keeps the team).  One box is
        :meth:`OLAPCube.aggregate` on it; split boxes cost one index of
        the component each, and an avg is their summed sums over their
        summed counts.
        """
        (cube, selectors), *rest = boxes = self.boxes(query)
        if not rest:
            return cube.aggregate(selectors, query.agg, reduce)

        def total(component: str) -> float:
            return sum(reduce(c.component(component)[box], "add") for c, box in boxes)

        if query.agg == "avg":
            count = total("count")
            return total("sum") / count if count else float("nan")
        return total(query.agg)

    def answer(self, query: Query) -> float:
        """Answer a query from the materialised levels (:meth:`aggregate`)."""
        return self.aggregate(query)

    def answer_grouped(self, query: Query):
        """Answer a grouped query from the selected (materialised) level.

        ``select_level`` already honours the group-by resolutions
        (``Query.required_resolution`` includes them), so the chosen
        cube is always fine enough to coarsen onto the group grid.
        """
        from repro.groupby import groupby_with_cube

        return groupby_with_cube(self._materialised(query)[1], query)

    def scanned_bytes(self, query: Query) -> int:
        """Exact bytes the CPU answer of ``query`` streams: the cells of
        its :meth:`boxes` times each box's cell size (eq. 3 per box).
        An analytic level streams eq. 3's :math:`SC_{size}`."""
        level = self.select_level(query)
        if level.cube is None:
            return int(self.subcube_size_mb(query) * 2**20)
        total = 0
        for cube, selectors in self.boxes(query):
            cells = cube.cell_nbytes
            for sel, n in zip(selectors, cube.shape):
                cells *= len(range(*sel.indices(n))) if isinstance(sel, slice) else len(sel)
            total += cells
        return total

    # -- levels M and G (Figure 1) ----------------------------------------

    def level_m(self, memory_budget_bytes: float) -> PyramidLevel | None:
        """Level *M*: the finest level that still fits in ``memory_budget``.

        Returns ``None`` when even the coarsest cube exceeds the budget.
        The paper pre-calculates only levels up to *M*.
        """
        fitting = [l for l in self._levels if self.level_nbytes(l) <= memory_budget_bytes]
        return fitting[-1] if fitting else None

    def level_g(
        self,
        cpu_time_of_mb: Callable[[float], float],
        gpu_query_time: float,
    ) -> PyramidLevel | None:
        """Level *G*: finest level where CPU full-cube processing still
        beats the GPU's raw-table answer time.

        ``cpu_time_of_mb`` is :math:`P_{CPU}(SC_{size})` and
        ``gpu_query_time`` the GPU estimate for the query class of
        interest.  Beyond this level the GPU answers as fast as the CPU
        (Figure 1's equilibrium), so materialising finer cubes buys
        nothing.  Returns ``None`` if the GPU wins even at the coarsest
        level.
        """
        best: PyramidLevel | None = None
        for level in self._levels:
            size_mb = bytes_to_mb(self.level_nbytes(level))
            if cpu_time_of_mb(size_mb) <= gpu_query_time:
                best = level
            else:
                break
        return best
