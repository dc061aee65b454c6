"""BENCH-KERNEL — the simulated GPU kernel against its one-pass bound.

Section III-E's cost law is one pass over the ``C_QD`` columns a query
touches.  This harness states that bound for this host — the touched
columns' bytes at the streaming rate :func:`run_bandwidth_sweep`
measures for one thread at its largest size — and reports the real
kernel beside it as "measured / bound" (the method of Shanbhag et al.),
at 1, 2 and 3 range predicates x selectivity ~5 % / 30 % / 90 %, plus
one code-set predicate, on a 1 M-row table.

The GB/s here are computed ``bytes_read`` over host seconds: a CPU
figure for the NumPy tile loop, not a device's.  Only shape is
asserted, never an absolute rate: every answer equals
``FactTable.scan``, and the share of the bound does not fall, as
predicates are added, by more than their extra compare passes explain.
"""

import time

import numpy as np
import pytest

from repro.gpu.kernels import run_query_kernel
from repro.olap.bandwidth import run_bandwidth_sweep
from repro.query.model import Condition, Query, decompose, dimension_column
from repro.relational import generate_dataset, tpcds_like_schema
from repro.units import MB

ROWS = 1_000_000
MEASURE = "quantity"
#: finest level of each dimension, in the order predicates are added
PREDICATE_DIMS = ("date", "store", "item")
SELECTIVITIES = (0.05, 0.30, 0.90)
REPEATS = 7
#: measured-time slack on the shape assertion (the host is shared)
NOISE = 1.5


def _range_passing(schema, table, dim: str, alive: np.ndarray, share: float) -> Condition:
    """The range on ``dim``'s finest level that passes a share of the
    ``alive`` rows closest to ``share`` (the generator's columns are
    skewed — one coordinate holds a sixth of the rows — so the window is
    searched on the histogram, not taken from quantiles)."""
    hierarchy = schema.hierarchies[dim]
    resolution = hierarchy.num_levels - 1
    column = table.column(dimension_column(dim, hierarchy.level(resolution).name))
    passed = np.concatenate(
        [[0], np.cumsum(np.bincount(column[alive], minlength=hierarchy.cardinality(resolution)))]
    )
    wanted = share * passed[-1]
    # for every lo, the hi whose window [lo, hi) comes closest from above
    his = np.minimum(np.searchsorted(passed, passed[:-1] + wanted), len(passed) - 1)
    lo = int(np.argmin(np.abs(passed[his] - passed[:-1] - wanted)))
    return Condition(dim, resolution, lo=lo, hi=max(int(his[lo]), lo + 1))


def _ranges(schema, table, k: int, share: float) -> tuple[Condition, ...]:
    """``k`` range predicates whose conjunction passes about ``share`` of the rows."""
    alive = np.ones(table.num_rows, dtype=bool)
    conditions = []
    for dim in PREDICATE_DIMS[:k]:
        cond = _range_passing(schema, table, dim, alive, share ** (1 / k))
        conditions.append(cond)
        alive &= table.filter_mask(
            decompose(Query(conditions=(cond,), measures=(MEASURE,)), schema.hierarchies)
        )
    return tuple(conditions)


def _best_seconds(table, decomposition) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_query_kernel(table, decomposition, 1)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.experiment(
    "BENCH-KERNEL", "tile-fused scan kernel, measured against its one-pass bound"
)
def test_kernel_scan_against_the_streaming_bound(benchmark, report):
    schema = tpcds_like_schema(scale=1.0)
    table = generate_dataset(schema, num_rows=ROWS, seed=2012).table
    stream = run_bandwidth_sweep(sizes_mb=(64,), thread_counts=(1,), repeats=5).points[-1]
    stream_rate = stream.size_mb * MB / stream.seconds  # bytes per second

    cases = {}
    for share in SELECTIVITIES:
        for k in (1, 2, 3):
            cases[f"{k} range, ~{share:.0%}"] = (k, share, _ranges(schema, table, k, share))
    brands = schema.hierarchies["item"].cardinality(2)
    cases["1 code set (20 of the brands)"] = (
        1,
        None,
        (Condition("item", 2, codes=tuple(range(3, brands, brands // 20))[:20]),),
    )

    def measure():
        rows = {}
        for label, (k, share, conditions) in cases.items():
            q = Query(conditions=conditions, measures=(MEASURE,))
            d = decompose(q, schema.hierarchies)
            got = run_query_kernel(table, d, 1).result
            reference = table.scan(d)
            # integer-valued measure: any summation order is exact
            assert got.rows_matched == reference.rows_matched
            assert got.value() == reference.value()
            assert got.bytes_read == reference.bytes_read
            seconds = _best_seconds(table, d)
            rows[label] = (
                k,
                share,
                got.rows_matched / ROWS,
                got.bytes_read,
                seconds,
                (got.bytes_read / stream_rate) / seconds,
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    report.line(
        f"table: {ROWS} rows; kernel on 1 SM, best of {REPEATS}; GB/s is computed "
        "bytes_read / host seconds (a CPU figure)"
    )
    report.line(
        f"bound: one pass over the touched columns at {stream_rate / 1e9:.1f} GB/s "
        f"(run_bandwidth_sweep, 1 thread, {stream.size_mb:.0f} MB)"
    )
    report.line()
    report.line(
        f"  {'case':<32s} {'selected':>9s} {'MB read':>8s} {'ms':>7s} {'GB/s':>6s} "
        f"{'bound ms':>9s} {'measured / bound':>17s}"
    )
    for label, (_, _, selected, nbytes, seconds, of_bound) in rows.items():
        report.line(
            f"  {label:<32s} {selected:>9.1%} {nbytes / 1e6:>8.1f} {1e3 * seconds:>7.2f} "
            f"{nbytes / seconds / 1e9:>6.2f} {1e3 * nbytes / stream_rate:>9.2f} "
            f"{of_bound:>17.2f}"
        )

    # shape: the selectivity asked for is about the one measured ...
    for k, share, selected, *_ in rows.values():
        if share is not None:
            assert share / 2 < selected < min(1.0, share * 1.5), (k, share, selected)
    # ... and a query of k predicates takes no more than k one-predicate
    # queries (each of which also reduces the measure): per row the bound
    # grows from 12 to 4k + 8 bytes while the time grows at most k-fold
    by_case = {(row[0], row[1]): row[-1] for row in rows.values()}
    for share in SELECTIVITIES:
        for k in (2, 3):
            explained = (4 * k + 8) / (12 * k)
            assert by_case[k, share] >= by_case[1, share] * explained / NOISE, (k, share)
