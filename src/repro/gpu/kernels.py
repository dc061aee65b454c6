"""Simulated GPU query kernels.

The paper's GPU path follows the four-step pipeline of Lauer et al. [9]:

1. preprocessing on the CPU (query decomposition + translation — handled
   by :mod:`repro.query.model` and :mod:`repro.text.translator`);
2. parallel table scan on the GPU — each thread checks its tuples
   against every filtration condition;
3. parallel reduction on the GPU — per-block partial aggregates;
4. final aggregation on the CPU — combining the small number of partials.

This module reproduces steps 2-4 with per-SM row shards: the resident
table's rows are split into ``n_sm`` contiguous shards, each shard scans
and reduces independently, and the partials are combined on the host.

Steps 2 and 3 are one loop over tiles of :data:`TILE_ROWS` rows — the
tile is how vectorised NumPy stands in for the SIMT lanes of a thread
block.  For each tile the predicate conjunction is evaluated into a
scratch mask, the tile's measure values are reduced under that mask
through a scratch buffer, and the one component the aggregate needs
(:class:`ShardPartial`) is folded into the shard's partial.  Masks and
intermediate values are tile-sized and owned by the call, so they stay
in cache, nothing of shard or table length is allocated, and every
touched column streams through once — the data path Section III-E's
cost law assumes (*"a query that reads a column reads the entire
column"*: ``bytes_read`` is still the full columns).

Answers equal the reference :meth:`FactTable.scan` — row counts and
integer-valued measures exactly, float measures to the last bits (they
are summed per tile, then per shard) — so the hybrid system returns the
same result whichever resource the scheduler picks.  Step 2 is written
once: :class:`TilePredicate` is the predicate conjunction both the
scalar kernel here and the grouped kernel of :mod:`repro.groupby` scan
with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import DeviceError, QueryError, TranslationError
from repro.query.model import QueryDecomposition
from repro.relational.table import FactTable, ScanResult
from repro.units import block_bounds

__all__ = [
    "TILE_ROWS",
    "ShardPartial",
    "KernelResult",
    "TilePredicate",
    "shard_mask",
    "run_query_kernel",
    "combine_partials",
]

#: Rows per tile of the scan loop: one module constant, not an option.
#: Measured on ``scan-heavy``'s own GPU-served queries (1 M rows, 1-3
#: range predicates, best-of-5 ms per query; the whole-shard kernel this
#: loop replaced: 6.5): 8 192 rows 2.9, 16 384 rows 2.2, 32 768 rows 1.9,
#: 65 536 rows 2.0, 131 072 rows 2.4, 262 144 rows 3.1 — small tiles pay
#: Python call overhead per ufunc, large ones spill the scratch out of L2.
TILE_ROWS = 32_768


@dataclass(frozen=True)
class ShardPartial:
    """Partial aggregate produced by one SM's shard (step 3 output).

    A partial carries only the component its query's aggregate folds:
    ``sums`` for ``sum``/``avg``, ``mins`` for ``min``, ``maxs`` for
    ``max``, none of them for ``count`` (``rows_matched`` is the count).
    The other dicts stay at their identities (0.0, ``inf``, ``-inf``);
    :func:`combine_partials` never reads them.
    """

    shard: int
    rows_scanned: int
    rows_matched: int
    sums: dict[str, float]
    mins: dict[str, float]
    maxs: dict[str, float]


@dataclass(frozen=True)
class KernelResult:
    """Final result of a simulated kernel execution.

    Wraps the combined :class:`ScanResult` with the per-shard partials
    (useful for asserting the reduction is exact and for inspecting load
    balance across SMs).
    """

    result: ScanResult
    partials: tuple[ShardPartial, ...]

    @property
    def num_shards(self) -> int:
        return len(self.partials)


def _shard_bounds(num_rows: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous near-equal row shards, one per simulated SM."""
    if n_shards < 1:
        raise DeviceError(f"n_shards must be >= 1, got {n_shards}")
    return block_bounds(num_rows, n_shards)


class TilePredicate:
    """Step 2: the predicate conjunction, prepared once per query and
    evaluated a tile at a time.

    Preparing reads every condition once — before any row, so an
    untranslated text predicate is refused up front — and keeps, per
    predicate, the column view and a half-open coordinate range; a
    code-set condition becomes the range spanned by its codes plus,
    unless the codes fill that range, a boolean membership table indexed
    by coordinate.  The range guard is what makes the table lookup safe
    for every integer the column can hold: a value below 0 or beyond the
    last code fails the guard, so the clipped index it reads does not
    matter, and nothing wraps or raises.  Codes outside the level's
    ``[0, cardinality)`` are dropped: :class:`FactTable` admits no such
    coordinate, so they select nothing, as with ``np.isin``.

    The instance owns its scratch masks, so it serves one kernel call on
    one thread: the pool runs six partitions at once and a shared buffer
    would be a silent wrong answer.
    """

    def __init__(self, table: FactTable, decomposition: QueryDecomposition):
        terms = []
        for pred in decomposition.predicates:
            cond = pred.condition
            if cond.is_text:
                raise TranslationError(
                    f"kernel received untranslated text predicate on {pred.column!r}; "
                    "the scheduler must route the query through the translation "
                    "partition first"
                )
            column = table.column(pred.column)
            if cond.is_range:
                terms.append((column, cond.lo, cond.hi, None))
                continue
            card = table.schema.dimension(cond.dimension).cardinality(cond.resolution)
            codes = sorted({code for code in cond.codes if 0 <= code < card})
            lo, hi = (codes[0], codes[-1] + 1) if codes else (0, 0)
            members = None
            if len(codes) < hi - lo:
                members = np.zeros(hi, dtype=bool)
                members[codes] = True
            terms.append((column, lo, hi, members))
        self._terms = tuple(terms)
        #: rows per tile, and the length of scratch a caller needs beside it
        self.tile_rows = max(1, min(TILE_ROWS, table.num_rows))
        self._mask = np.empty(self.tile_rows, dtype=bool)
        self._term = np.empty(self.tile_rows, dtype=bool)

    def tiles(self, lo: int, hi: int) -> Iterator[tuple[int, int, np.ndarray, int]]:
        """``(start, stop, mask, matched)`` for each tile of rows ``[lo, hi)``.

        ``mask`` is this instance's scratch: it holds the tile's verdicts
        until the next tile is asked for.
        """
        for start in range(lo, hi, self.tile_rows):
            stop = min(start + self.tile_rows, hi)
            mask = self._mask[: stop - start]
            yield start, stop, mask, self._evaluate(start, stop, mask)

    def _evaluate(self, start: int, stop: int, mask: np.ndarray) -> int:
        """Fill ``mask`` for rows ``[start, stop)``; the number that pass.

        A tile no row of which survives a predicate skips the rest.
        """
        term = self._term[: stop - start]
        mask.fill(True)
        for column, lo, hi, members in self._terms:
            tile = column[start:stop]
            np.greater_equal(tile, lo, out=term)
            np.logical_and(mask, term, out=mask)
            np.less(tile, hi, out=term)
            np.logical_and(mask, term, out=mask)
            if members is not None:
                np.take(members, tile, out=term, mode="clip")
                np.logical_and(mask, term, out=mask)
            if not mask.any():
                return 0
        return int(np.count_nonzero(mask))


def shard_mask(
    table: FactTable, decomposition: QueryDecomposition, lo: int, hi: int
) -> np.ndarray:
    """Step 2 for one shard: the rows of ``[lo, hi)`` passing every predicate."""
    out = np.empty(hi - lo, dtype=bool)
    for start, stop, mask, _ in TilePredicate(table, decomposition).tiles(lo, hi):
        out[start - lo : stop - lo] = mask
    return out


def _masked_sum(
    values: np.ndarray, mask: np.ndarray, lanes: np.ndarray, scratch: np.ndarray
) -> float:
    """Exact sum of ``values[mask]`` without gathering them.

    Every value is ANDed, bit for bit, with its verdict widened to the
    value's width (all ones or all zeros), so an unselected row
    contributes ``+0.0`` whatever it holds — ``inf`` and ``nan``
    included, which a multiply by 0/1 weights would turn into ``nan`` —
    and a selected one contributes itself.  ``lanes`` (int8) and
    ``scratch`` (the values' dtype) are the caller's, a tile long.

    Measured per 1 M float64 rows in tiles of 32 768: 1.0 ms at any
    selectivity, against 1.5 (5 % selected) to 2.2 ms (90 %) for
    ``np.compress(out=)`` + ``sum`` and 0.9 ms for the inexact
    ``np.dot(values, mask)``.
    """
    lanes = lanes[: len(mask)]
    words = scratch[: len(mask)].view(f"i{values.itemsize}")
    np.negative(mask.view(np.int8), out=lanes)
    np.copyto(words, lanes)
    np.bitwise_and(values.view(words.dtype), words, out=words)
    return float(words.view(values.dtype).sum())


def combine_partials(
    decomposition: QueryDecomposition,
    partials: tuple[ShardPartial, ...],
    bytes_read: int,
) -> ScanResult:
    """Step 4: host-side final aggregation of the per-SM partials.

    Reads only the component the aggregate needs; ``min``/``max`` fold
    with NumPy's so a selected ``nan`` propagates as in the reference.
    """
    agg = decomposition.query.agg
    rows = sum(p.rows_matched for p in partials)
    values: dict[str, float] = {}
    if agg == "count":
        values["count"] = float(rows)
    else:
        for measure in decomposition.data_columns:
            if agg == "sum":
                values[measure] = sum(p.sums[measure] for p in partials) if rows else 0.0
            elif agg == "avg":
                total = sum(p.sums[measure] for p in partials)
                values[measure] = total / rows if rows else float("nan")
            elif agg == "min":
                m = float(np.min([p.mins[measure] for p in partials]))
                values[measure] = m if rows else float("nan")
            elif agg == "max":
                m = float(np.max([p.maxs[measure] for p in partials]))
                values[measure] = m if rows else float("nan")
            else:  # pragma: no cover - Query validates agg names
                raise QueryError(f"unknown aggregate {agg!r}")
    return ScanResult(
        values=values,
        rows_matched=rows,
        columns_read=decomposition.columns_accessed,
        bytes_read=bytes_read,
    )


def run_query_kernel(
    table: FactTable,
    decomposition: QueryDecomposition,
    n_sm: int,
) -> KernelResult:
    """Execute a decomposed query across ``n_sm`` simulated SM shards.

    Steps 2+3 per shard, a tile at a time: the mask, then per measure
    the one reduction the aggregate needs, folded into the partial.
    """
    bounds = _shard_bounds(table.num_rows, n_sm)
    predicate = TilePredicate(table, decomposition)
    agg = decomposition.query.agg
    names = decomposition.data_columns
    lanes = np.empty(predicate.tile_rows, dtype=np.int8)
    measures = [
        (name, column, np.empty(predicate.tile_rows, dtype=column.dtype))
        for name, column in zip(names, map(table.column, names))
    ]
    partials = []
    for shard, (lo, hi) in enumerate(bounds):
        matched = 0
        sums = dict.fromkeys(names, 0.0)
        mins = dict.fromkeys(names, float("inf"))
        maxs = dict.fromkeys(names, float("-inf"))
        for start, stop, mask, passed in predicate.tiles(lo, hi):
            if not passed:
                continue
            matched += passed
            for name, column, scratch in measures:
                tile = column[start:stop]
                if agg in ("sum", "avg"):
                    sums[name] += _masked_sum(tile, mask, lanes, scratch)
                elif agg == "min":
                    low = np.compress(mask, tile, out=scratch[:passed]).min()
                    mins[name] = float(np.minimum(mins[name], low))
                elif agg == "max":
                    high = np.compress(mask, tile, out=scratch[:passed]).max()
                    maxs[name] = float(np.maximum(maxs[name], high))
        partials.append(
            ShardPartial(
                shard=shard,
                rows_scanned=hi - lo,
                rows_matched=matched,
                sums=sums,
                mins=mins,
                maxs=maxs,
            )
        )
    bytes_read = sum(
        table.column_nbytes(p.column) for p in decomposition.predicates
    ) + sum(table.column_nbytes(m) for m in names)
    shards = tuple(partials)
    return KernelResult(
        result=combine_partials(decomposition, shards, int(bytes_read)),
        partials=shards,
    )
