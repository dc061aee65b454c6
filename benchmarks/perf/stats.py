"""Percentiles, quartiles and the "at least ten samples beyond" rule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: percentiles a report may quote, lowest first
LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: a percentile is quoted only with at least this many samples beyond it
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile `p` among `n` samples."""
    # rounded first: 99.9 / 100 * 10_000 is 9990.000000000002 in floating point
    return max(1, math.ceil(round(p / 100.0 * n, 6)))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def supported(n: int, p: float) -> bool:
    """True when `n` samples leave at least MIN_BEYOND beyond percentile `p`."""
    return n - _rank(n, p) >= MIN_BEYOND


def highest_supported(n: int) -> float | None:
    """The highest LADDER percentile `n` samples support, or None."""
    ok = [p for p in LADDER if supported(n, p)]
    return ok[-1] if ok else None


def summarise(values: Sequence[float]) -> dict[str, float]:
    """Median with the quartiles `statistics.quantiles(n=4)` gives, and the count."""
    values = list(values)
    if len(values) < 2:
        only = values[0]
        return {"value": only, "q1": only, "q3": only, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's noise measure)."""
    s = summarise(values)
    return (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else 0.0
