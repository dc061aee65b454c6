"""Dense MOLAP cubes.

An :class:`OLAPCube` materialises one measure of a fact table as a dense
N-dimensional array at a chosen resolution per dimension.  Cells hold
pre-aggregated *components* — ``sum`` and ``count`` always, optionally
``min``/``max`` — from which any of the query aggregates (sum, count,
avg, min, max) can be answered over any sub-cube without rescanning the
fact table.  Sum/count/min/max are all *decomposable* aggregates, so a
coarser cube is an exact roll-up of a finer one (:meth:`rollup`), which
is how the multi-resolution pyramid of Figure 1 is built from a single
base cube.

Rows reach cells in one place, the array-based aggregation of Zhao,
Deshpande & Naughton [20] (the algorithm the paper's MOLAP side builds
on): :func:`cell_index` maps each fact row to its cell
(``np.ravel_multi_index`` over the level columns :func:`level_columns`
reads).  Builds fold: :func:`fold` accumulates rows, or a finer cube's
cells, into fresh dense components with ``np.bincount``, for builds,
the rollup catalog's cuboids, the device build and grouped cube
answers.  Ingest scatters: :meth:`OLAPCube.ingest` merges each new row
straight into its cell in place (``MERGE[name].at``), so a batch costs
its rows, not the cube's cells.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.errors import CubeError, DimensionError, QueryError
from repro.olap.hierarchy import DimensionHierarchy
from repro.query.model import dimension_column

if TYPE_CHECKING:  # avoid a hard olap -> relational dependency
    from repro.relational.table import FactTable

__all__ = [
    "OLAPCube",
    "AggregateOp",
    "cell_index",
    "fold",
    "fold_rows",
    "level_columns",
    "reduce_sequential",
]


class AggregateOp(str, Enum):
    """Aggregates answerable from cube components."""

    SUM = "sum"
    COUNT = "count"
    AVG = "avg"
    MIN = "min"
    MAX = "max"

    @property
    def components(self) -> tuple[str, ...]:
        """Cube components needed to answer this aggregate."""
        return {
            AggregateOp.SUM: ("sum",),
            AggregateOp.COUNT: ("count",),
            AggregateOp.AVG: ("sum", "count"),
            AggregateOp.MIN: ("min",),
            AggregateOp.MAX: ("max",),
        }[self]


_REDUCERS = {"add": np.sum, "min": np.min, "max": np.max}


def reduce_sequential(array: np.ndarray, how: str = "add") -> float:
    """Single-threaded reduction (sum / min / max) of an ndarray."""
    return float(_REDUCERS[how](array))


#: How two values of each component merge, and what an empty cell holds.
MERGE = {"sum": np.add, "count": np.add, "min": np.minimum, "max": np.maximum}
EMPTY_CELL = {"sum": 0.0, "count": 0.0, "min": np.inf, "max": -np.inf}


def level_columns(
    table: "FactTable",
    dimensions: Sequence[DimensionHierarchy],
    resolutions: Sequence[int],
) -> list[np.ndarray]:
    """The fact-table column of each dimension at its resolution, as stored."""
    return [
        table.column(dimension_column(d.name, d.level(r).name))
        for d, r in zip(dimensions, resolutions)
    ]


def cell_index(
    table: "FactTable",
    dimensions: Sequence[DimensionHierarchy],
    resolutions: Sequence[int],
) -> np.ndarray:
    """Each fact row's flat cell in the dense cube over ``dimensions``."""
    shape = tuple(d.cardinality(r) for d, r in zip(dimensions, resolutions))
    columns = level_columns(table, dimensions, resolutions)
    return np.ravel_multi_index([np.asarray(c, dtype=np.intp) for c in columns], shape)


def fold(
    index: np.ndarray,
    size: int,
    sums: np.ndarray,
    counts: np.ndarray | None = None,
    extremes: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Fold entries into ``size`` fresh dense cells: the one aggregation.

    Entry ``i`` adds ``sums[i]`` and a count of ``counts[i]`` (1 for a
    fact row, when ``counts`` is None) to cell ``index[i]``; with
    ``extremes = (mins, maxs)`` the cell also keeps the extremes of its
    entries, where an entry counting 0 rows carries none.  An empty cell
    holds :data:`EMPTY_CELL`.  The arrays are ``bincount``'s own, so a
    build owns them; ingest scatters into them (:meth:`OLAPCube.ingest`).
    """
    # weighing a row by 1.0 counts straight into float cells: an unweighted
    # bincount's int64 cells would be a second full-size array to convert
    weights = np.ones(len(index)) if counts is None else counts
    cells = {
        "sum": np.bincount(index, weights=sums, minlength=size),
        "count": np.bincount(index, weights=weights, minlength=size),
    }
    if extremes is not None:
        if counts is not None:
            populated = counts > 0
            index = index[populated]
            extremes = tuple(e[populated] for e in extremes)
        for name, values in zip(("min", "max"), extremes):
            cells[name] = np.full(size, EMPTY_CELL[name])
            MERGE[name].at(cells[name], index, values)
    return cells


def fold_rows(
    table: "FactTable",
    measure: str,
    dimensions: Sequence[DimensionHierarchy],
    resolutions: Sequence[int],
    with_minmax: bool = False,
) -> dict[str, np.ndarray]:
    """``table``'s rows folded into the dense components of a cube."""
    shape = tuple(d.cardinality(r) for d, r in zip(dimensions, resolutions))
    values = np.asarray(table.column(measure), dtype=np.float64)
    cells = fold(
        cell_index(table, dimensions, resolutions),
        int(np.prod(shape)),
        values,
        extremes=(values, values) if with_minmax else None,
    )
    return {name: arr.reshape(shape) for name, arr in cells.items()}


class OLAPCube:
    """A dense cube of one measure at fixed per-dimension resolutions.

    Parameters
    ----------
    dimensions:
        The dimension hierarchies, in axis order.
    resolutions:
        Resolution index per dimension (the cube's level).
    components:
        Mapping of component name (``"sum"``, ``"count"``, ``"min"``,
        ``"max"``) to a dense array of shape
        ``tuple(card(dim_i, res_i))``.
    measure:
        Name of the measure this cube aggregates.
    """

    def __init__(
        self,
        dimensions: Sequence[DimensionHierarchy],
        resolutions: Sequence[int],
        components: Mapping[str, np.ndarray],
        measure: str = "value",
    ):
        if len(dimensions) != len(resolutions):
            raise CubeError("dimensions and resolutions must have equal length")
        if not dimensions:
            raise CubeError("a cube needs at least one dimension")
        self.dimensions = tuple(dimensions)
        self.resolutions = tuple(
            d.check_resolution(r) for d, r in zip(dimensions, resolutions)
        )
        self.measure = measure
        expected_shape = tuple(
            d.cardinality(r) for d, r in zip(self.dimensions, self.resolutions)
        )
        if "sum" not in components or "count" not in components:
            raise CubeError("cube needs at least 'sum' and 'count' components")
        self._components: dict[str, np.ndarray] = {}
        for name, arr in components.items():
            if name not in ("sum", "count", "min", "max"):
                raise CubeError(f"unknown cube component {name!r}")
            arr = np.asarray(arr)
            if arr.shape != expected_shape:
                raise CubeError(
                    f"component {name!r} has shape {arr.shape}, expected {expected_shape}"
                )
            self._components[name] = np.ascontiguousarray(arr, dtype=np.float64)
        self.shape = expected_shape

    # -- construction ------------------------------------------------------

    @classmethod
    def from_fact_table(
        cls,
        table: "FactTable",
        measure: str,
        resolutions: Sequence[int] | None = None,
        with_minmax: bool = False,
        max_cells: int = 1 << 27,
    ) -> "OLAPCube":
        """Aggregate a fact table into a dense cube.

        ``resolutions`` defaults to the finest level of every dimension
        (the base cube, from which coarser pyramid levels roll up).
        ``max_cells`` fails fast on cubes too large to materialise — in
        the hybrid system such resolutions are precisely the ones served
        by the GPU from the raw fact table (Figure 1, level M).
        """
        schema = table.schema
        dims = schema.dimensions
        if resolutions is None:
            resolutions = [d.finest_resolution for d in dims]
        if len(resolutions) != len(dims):
            raise CubeError(
                f"expected {len(dims)} resolutions, got {len(resolutions)}"
            )
        shape = tuple(d.cardinality(r) for d, r in zip(dims, resolutions))
        n_cells = int(np.prod([int(s) for s in shape], dtype=object))
        if n_cells > max_cells:
            raise CubeError(
                f"dense cube at resolutions {tuple(resolutions)} would have "
                f"{n_cells} cells (> max_cells={max_cells}); this resolution "
                "belongs to the GPU side of the hybrid system"
            )
        components = fold_rows(table, measure, dims, resolutions, with_minmax)
        return cls(dims, resolutions, components, measure=measure)

    def ingest(self, table: "FactTable") -> int:
        """Incrementally merge another batch of fact rows into the cube.

        OLAP deployments append sales continuously; rebuilding the
        pyramid per batch would rescan everything.  Sum/count (and
        min/max when present) are all mergeable, so ingesting a batch
        scatters each row into its cell in place (``MERGE[name].at``):
        the cost and the scratch memory follow the batch, not the cube.
        Rows apply in row order, as a build's ``bincount`` adds them, so
        ``ingest`` on a cube built from table A with table B's rows
        equals a fresh build over A+B bit for bit (tested).  Returns the
        row count ingested.
        """
        by_name = {d.name: d for d in table.schema.dimensions}
        for d in self.dimensions:
            if by_name.get(d.name) != d:
                raise CubeError(f"table schema does not carry cube dimension {d.name!r}")
        index = cell_index(table, self.dimensions, self.resolutions)
        values = np.asarray(table.column(self.measure), dtype=np.float64)
        for name, arr in self._components.items():
            MERGE[name].at(arr.reshape(-1), index, 1.0 if name == "count" else values)
        return len(table)

    def with_rows(self, table: "FactTable") -> "OLAPCube":
        """A new cube of this cube's cells plus ``table``'s rows.

        The copy-on-write :meth:`ingest`: one copy of the components,
        then the scatter into the copy.  This cube is left untouched, so
        a reader holding it keeps a consistent version.
        """
        cube = OLAPCube(
            self.dimensions,
            self.resolutions,
            {name: arr.copy() for name, arr in self._components.items()},
            measure=self.measure,
        )
        cube.ingest(table)
        return cube

    def rollup(self, target_resolutions: Sequence[int]) -> "OLAPCube":
        """Exact roll-up to coarser resolutions (pyramid construction).

        Each axis is reshaped into ``(coarse, fanout)`` blocks and
        reduced: sums and counts add; min/max take extrema.  The result
        is identical to aggregating the fact table directly at the
        target resolutions, which the tests assert.  The result owns its
        arrays, even at this cube's own resolutions, so an ingest into
        it leaves this cube untouched.
        """
        if len(target_resolutions) != len(self.dimensions):
            raise CubeError("target_resolutions length mismatch")
        factors = []
        for d, cur, tgt in zip(self.dimensions, self.resolutions, target_resolutions):
            d.check_resolution(tgt)
            if tgt > cur:
                raise CubeError(
                    f"cannot roll up dimension {d.name!r} from resolution {cur} "
                    f"to finer resolution {tgt}"
                )
            factors.append(d.cardinality(cur) // d.cardinality(tgt))

        def _reduce(source: np.ndarray, merge: np.ufunc) -> np.ndarray:
            arr = source
            for axis, factor in enumerate(factors):
                if factor == 1:
                    continue
                shp = arr.shape
                new_shape = shp[:axis] + (shp[axis] // factor, factor) + shp[axis + 1:]
                arr = merge.reduce(arr.reshape(new_shape), axis=axis + 1)
            return arr.copy() if arr is source else arr

        components = {
            name: _reduce(arr, MERGE[name]) for name, arr in self._components.items()
        }
        return OLAPCube(self.dimensions, target_resolutions, components, measure=self.measure)

    # -- introspection -------------------------------------------------------

    @property
    def components(self) -> tuple[str, ...]:
        return tuple(self._components)

    def component(self, name: str) -> np.ndarray:
        try:
            return self._components[name]
        except KeyError:
            raise CubeError(
                f"cube has no {name!r} component (has {list(self._components)}); "
                "rebuild with with_minmax=True for min/max queries"
            ) from None

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_nbytes(self) -> int:
        """:math:`E_{size}` of eq. 3: bytes per cell across components."""
        return int(sum(arr.itemsize for arr in self._components.values()))

    @property
    def nbytes(self) -> int:
        return int(sum(arr.nbytes for arr in self._components.values()))

    def resolution_of(self, dimension: str) -> int:
        for d, r in zip(self.dimensions, self.resolutions):
            if d.name == dimension:
                return r
        raise DimensionError(f"cube has no dimension {dimension!r}")

    def axis_of(self, dimension: str) -> int:
        for axis, d in enumerate(self.dimensions):
            if d.name == dimension:
                return axis
        raise DimensionError(f"cube has no dimension {dimension!r}")

    def __repr__(self) -> str:
        res = ",".join(
            f"{d.name}@{d.level(r).name}" for d, r in zip(self.dimensions, self.resolutions)
        )
        return f"OLAPCube({self.measure!r}, {self.shape}, [{res}], {self.nbytes / 2**20:.3f} MB)"

    # -- aggregation -------------------------------------------------------

    def slice_component(
        self, name: str, selectors: Sequence[np.ndarray | slice]
    ) -> np.ndarray:
        """Sub-cube view/selection of one component.

        ``selectors`` is one slice (contiguous range) or index array
        (code set) per axis, applied with ``np.ix_``-style outer
        indexing so arbitrary combinations work.

        A slice is a view; a code set gathers only the cells it selects
        from the view so far, into one C-ordered buffer.  ``np.take``
        would first copy the whole strided view into a contiguous
        buffer — megabytes to select kilobytes — and those transient
        copies also raise glibc's dynamic mmap/trim threshold, after
        which every thread that runs a CPU stage keeps megabytes of
        freed heap.  Fancy indexing on a later axis allocates its result
        in another order, which a contiguous copy would then allocate a
        second time, so there the gather copies one slab per code.  The
        axis-by-axis order and the C-ordered gathers keep the layout
        ``np.take`` produced, so float sums stay bit-identical.
        """
        arr = self.component(name)
        # apply axis by axis to support mixed slice / index-array selectors
        for axis, sel in enumerate(selectors):
            lead = (slice(None),) * axis
            if isinstance(sel, slice):
                if sel != slice(None):
                    arr = arr[lead + (sel,)]
            elif axis == 0:
                arr = arr[sel]  # the first axis gathers into C order already
            else:
                out = np.empty(arr.shape[:axis] + (len(sel),) + arr.shape[axis + 1:], arr.dtype)
                for i, code in enumerate(sel):
                    out[lead + (i,)] = arr[lead + (code,)]
                arr = out
        return arr

    def aggregate(
        self,
        selectors: Sequence[np.ndarray | slice],
        op: AggregateOp | str = AggregateOp.SUM,
        reduce: Callable[[np.ndarray, str], float] = reduce_sequential,
    ) -> float:
        """Aggregate the sub-cube selected by ``selectors``.

        ``selectors`` must have one entry per cube axis (``slice(None)``
        for unconstrained dimensions).  ``avg`` is computed as total sum
        over total count, i.e. the row-weighted mean — identical to
        aggregating the underlying fact rows.  This is the one mapping
        of the five aggregates onto components; ``reduce(array, how)``
        (``how`` in ``"add"`` / ``"min"`` / ``"max"``) is how the bytes
        are streamed: sequentially here, thread-parallel when
        :class:`~repro.olap.parallel.ParallelAggregator` passes its own.
        """
        op = AggregateOp(op)
        if len(selectors) != len(self.shape):
            raise QueryError(
                f"need {len(self.shape)} selectors (one per axis), got {len(selectors)}"
            )
        if op is AggregateOp.SUM or op is AggregateOp.COUNT:
            return reduce(self.slice_component(op.value, selectors), "add")
        if op is AggregateOp.AVG:
            total = reduce(self.slice_component("sum", selectors), "add")
            count = reduce(self.slice_component("count", selectors), "add")
            return total / count if count else float("nan")
        # MIN / MAX over the populated cells only
        sub = self.slice_component(op.value, selectors)
        counts = self.slice_component("count", selectors)
        vals = sub[counts > 0]
        return reduce(vals, op.value) if vals.size else float("nan")
