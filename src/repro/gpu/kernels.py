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
and reduces independently (vectorised NumPy standing in for the SIMT
lanes), and the partials are combined on the host.  Answers are
bit-identical to the reference :meth:`FactTable.scan` — asserted by the
integration tests — so the hybrid system returns the same result
whichever resource the scheduler picks.  Step 2 is written once:
:func:`shard_mask` is the predicate conjunction both the scalar kernel
here and the grouped kernel of :mod:`repro.groupby` scan with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DeviceError, QueryError, TranslationError
from repro.query.model import QueryDecomposition
from repro.relational.table import FactTable, ScanResult

__all__ = ["ShardPartial", "KernelResult", "shard_mask", "run_query_kernel", "combine_partials"]


@dataclass(frozen=True)
class ShardPartial:
    """Partial aggregate produced by one SM's shard (step 3 output)."""

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
    edges = np.linspace(0, num_rows, n_shards + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(n_shards)]


def shard_mask(
    table: FactTable, decomposition: QueryDecomposition, lo: int, hi: int
) -> np.ndarray:
    """Step 2 for one shard: the rows of ``[lo, hi)`` passing every predicate."""
    mask = np.ones(hi - lo, dtype=bool)
    for pred in decomposition.predicates:
        cond = pred.condition
        if cond.is_text:
            raise TranslationError(
                f"kernel received untranslated text predicate on {pred.column!r}; "
                "the scheduler must route the query through the translation "
                "partition first"
            )
        col = table.column(pred.column)[lo:hi]
        if cond.is_range:
            assert cond.lo is not None and cond.hi is not None
            mask &= (col >= cond.lo) & (col < cond.hi)
        else:
            mask &= np.isin(col, np.asarray(cond.codes, dtype=col.dtype))
    return mask


def _scan_shard(
    table: FactTable,
    decomposition: QueryDecomposition,
    shard_idx: int,
    lo: int,
    hi: int,
) -> ShardPartial:
    """Steps 2+3 for one shard: predicate scan, conjunction, reduction."""
    mask = shard_mask(table, decomposition, lo, hi)
    matched = int(np.count_nonzero(mask))
    sums: dict[str, float] = {}
    mins: dict[str, float] = {}
    maxs: dict[str, float] = {}
    for measure in decomposition.data_columns:
        vals = table.column(measure)[lo:hi][mask]
        sums[measure] = float(vals.sum()) if matched else 0.0
        mins[measure] = float(vals.min()) if matched else float("inf")
        maxs[measure] = float(vals.max()) if matched else float("-inf")
    return ShardPartial(
        shard=shard_idx,
        rows_scanned=hi - lo,
        rows_matched=matched,
        sums=sums,
        mins=mins,
        maxs=maxs,
    )


def combine_partials(
    decomposition: QueryDecomposition,
    partials: tuple[ShardPartial, ...],
    bytes_read: int,
) -> ScanResult:
    """Step 4: host-side final aggregation of the per-SM partials."""
    agg = decomposition.query.agg
    rows = sum(p.rows_matched for p in partials)
    values: dict[str, float] = {}
    if agg == "count":
        values["count"] = float(rows)
    else:
        for measure in decomposition.data_columns:
            total = sum(p.sums[measure] for p in partials)
            if agg == "sum":
                values[measure] = total if rows else 0.0
            elif agg == "avg":
                values[measure] = total / rows if rows else float("nan")
            elif agg == "min":
                m = min(p.mins[measure] for p in partials)
                values[measure] = m if rows else float("nan")
            elif agg == "max":
                m = max(p.maxs[measure] for p in partials)
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
    """Execute a decomposed query across ``n_sm`` simulated SM shards."""
    bounds = _shard_bounds(table.num_rows, n_sm)
    partials = tuple(
        _scan_shard(table, decomposition, i, lo, hi)
        for i, (lo, hi) in enumerate(bounds)
    )
    bytes_read = sum(
        table.column_nbytes(p.column) for p in decomposition.predicates
    ) + sum(table.column_nbytes(m) for m in decomposition.data_columns)
    return KernelResult(
        result=combine_partials(decomposition, partials, int(bytes_read)),
        partials=partials,
    )
