"""Performance-estimation function families (Sections III-B to III-F).

The scheduler never touches real hardware during dispatch: every
decision is driven by *estimation functions* measured once by benchmarks
and stored inside the scheduler (Section III-G).  The families are:

* **CPU OLAP cube processing** — a piecewise model over the sub-cube
  size :math:`SC_{size}` in MB (eq. 4): a power law :math:`f_A` below
  512 MB (cache/latency regime) and a linear law :math:`f_B` above
  (streaming-bandwidth regime).  Published coefficients for the paper's
  dual Xeon X5667 testbed are eq. 7 (4 threads) and eq. 10 (8 threads),
  shipped here as :data:`XEON_X5667_4T` / :data:`XEON_X5667_8T`.
* **GPU table processing** — linear in the scanned-column fraction,
  per SM count (eq. 14-15); lives in :mod:`repro.gpu.timing`.
* **Dictionary search** — linear in the dictionary length (eq. 17):
  :math:`P_{DICT}(D_L) = 0.0138\\,\\mu s \\cdot D_L`.

The previous single-threaded implementation [16] processed cubes at
~1 GB/s; :data:`XEON_X5667_1T_LEGACY` models it as a bandwidth line so
the Table-1/3 baseline columns can be reproduced.

All models expose ``time(x) -> seconds`` and are plain frozen
dataclasses, so calibrated replacements (from
:mod:`repro.core.calibration`) drop in transparently.  Step 2 feeds
them from one feature pass (``SystemEstimator.features``): ``estimate``
calls ``time`` on one query's features.  The power-law and linear
segments also expose ``time_many(xs) -> ndarray``, bit-identical to
``[time(x) for x in xs]``, for the online recalibrator's goodness-of-fit
check: the linear law evaluates as one NumPy pass, while the power-law
exponent is applied per element (NumPy's SIMD ``pow`` differs from libm
in the last ulp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import CalibrationError

__all__ = [
    "TimeModel",
    "PowerLawModel",
    "LinearModel",
    "PiecewiseModel",
    "CPUPerfModel",
    "DictPerfModel",
    "XEON_X5667_4T",
    "XEON_X5667_8T",
    "XEON_X5667_1T_LEGACY",
    "PAPER_DICT_MODEL",
    "PAPER_RANGE_BREAK_MB",
]

#: The paper's Range A / Range B breakpoint (Section III-D): 512 MB.
PAPER_RANGE_BREAK_MB: float = 512.0


@runtime_checkable
class TimeModel(Protocol):
    """Anything mapping a scalar workload measure to seconds."""

    def time(self, x: float) -> float:  # pragma: no cover - protocol
        ...


def _as_batch(xs: Sequence[float] | np.ndarray) -> np.ndarray:
    return np.asarray(xs, dtype=np.float64)


@dataclass(frozen=True)
class PowerLawModel:
    """:math:`t = a \\cdot x^p` — the :math:`f_A` family (eq. 5, 8)."""

    a: float
    p: float

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise CalibrationError(f"power-law coefficient a must be > 0, got {self.a}")

    def time(self, x: float) -> float:
        if x <= 0:
            raise CalibrationError(f"workload measure must be > 0, got {x}")
        return self.a * x**self.p

    def time_many(self, xs: Sequence[float] | np.ndarray) -> np.ndarray:
        arr = _as_batch(xs)
        if arr.size and float(arr.min()) <= 0:
            bad = float(arr[arr <= 0][0])
            raise CalibrationError(f"workload measure must be > 0, got {bad}")
        # Scalar ``x**p`` per element: NumPy's vectorised pow is not
        # bit-identical to libm, and time_many must match time() exactly.
        p = self.p
        powed = np.fromiter((x**p for x in arr.tolist()), dtype=np.float64, count=arr.size)
        return self.a * powed

    def __str__(self) -> str:
        return f"{self.a:g} * x^{self.p:g}"


@dataclass(frozen=True)
class LinearModel:
    """:math:`t = a \\cdot x + b` — the :math:`f_B` family (eq. 6, 9)."""

    a: float
    b: float = 0.0

    def time(self, x: float) -> float:
        if x < 0:
            raise CalibrationError(f"workload measure must be >= 0, got {x}")
        return self.a * x + self.b

    def time_many(self, xs: Sequence[float] | np.ndarray) -> np.ndarray:
        arr = _as_batch(xs)
        if arr.size and float(arr.min()) < 0:
            bad = float(arr[arr < 0][0])
            raise CalibrationError(f"workload measure must be >= 0, got {bad}")
        return self.a * arr + self.b

    def __str__(self) -> str:
        return f"{self.a:g} * x + {self.b:g}"


@dataclass(frozen=True)
class PiecewiseModel:
    """Eq. 4: :math:`f_A` below the breakpoint, :math:`f_B` above.

    The paper's eq. 4 leaves the point exactly at the breakpoint
    ambiguous (``<`` in one branch, ``>`` in the other); we assign it to
    Range B, whose linear fit anchors the large-cube regime.
    """

    breakpoint: float
    below: PowerLawModel | LinearModel
    above: PowerLawModel | LinearModel

    def __post_init__(self) -> None:
        if self.breakpoint <= 0:
            raise CalibrationError(f"breakpoint must be > 0, got {self.breakpoint}")

    def time(self, x: float) -> float:
        model = self.below if x < self.breakpoint else self.above
        return model.time(x)

    def continuity_gap(self) -> float:
        """|f_A - f_B| at the breakpoint — a calibration sanity metric."""
        return abs(self.below.time(self.breakpoint) - self.above.time(self.breakpoint))


@dataclass(frozen=True)
class CPUPerfModel:
    """:math:`P_{CPU}(SC_{size})` for one thread-count configuration.

    Attributes
    ----------
    model:
        The eq.-4 piecewise (or any) time model over MB.
    threads:
        OpenMP thread count this model was measured with.
    dispatch_overhead:
        Fixed per-query cost (parsing, member resolution, fork/join)
        *not* captured by the memory-streaming model.  The published
        :math:`f_A` extrapolates to ~0 below 1 MB, yet the measured
        system rates of Table 1 imply a per-query floor of a few ms;
        this constant is the reverse-engineered difference (documented
        in EXPERIMENTS.md).  Defaults to 0 (the pure paper model).
    """

    model: PiecewiseModel | LinearModel | PowerLawModel
    threads: int = 1
    dispatch_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise CalibrationError(f"threads must be >= 1, got {self.threads}")
        if self.dispatch_overhead < 0:
            raise CalibrationError("dispatch_overhead must be >= 0")

    def time(self, sc_size_mb: float) -> float:
        """Seconds to process a sub-cube of ``sc_size_mb`` MB (eq. 7/10)."""
        return self.model.time(sc_size_mb) + self.dispatch_overhead

    def with_overhead(self, dispatch_overhead: float) -> "CPUPerfModel":
        return CPUPerfModel(self.model, self.threads, dispatch_overhead)

    def bandwidth_gbps(self, sc_size_mb: float) -> float:
        """Achieved processing bandwidth at a sub-cube size (Figure 3)."""
        t = self.time(sc_size_mb)
        return (sc_size_mb / 1024.0) / t if t > 0 else float("inf")


#: Eq. 7 — OpenMP, 4 threads on dual Xeon X5667.
XEON_X5667_4T = CPUPerfModel(
    model=PiecewiseModel(
        breakpoint=PAPER_RANGE_BREAK_MB,
        below=PowerLawModel(a=1.0e-4, p=0.9341),
        above=LinearModel(a=5.0e-5, b=0.0096),
    ),
    threads=4,
)

#: Eq. 10 — OpenMP, 8 threads on dual Xeon X5667.
XEON_X5667_8T = CPUPerfModel(
    model=PiecewiseModel(
        breakpoint=PAPER_RANGE_BREAK_MB,
        below=PowerLawModel(a=6.0e-5, p=0.984),
        above=LinearModel(a=4.0e-5, b=0.0146),
    ),
    threads=8,
)

#: The previous single-threaded implementation [16]: ~1 GB/s streaming.
#: Modelled as a pure bandwidth line (1 s per 1024 MB).
XEON_X5667_1T_LEGACY = CPUPerfModel(
    model=LinearModel(a=1.0 / 1024.0, b=0.0),
    threads=1,
)


@dataclass(frozen=True)
class DictPerfModel:
    """:math:`P_{DICT}(D_L)` — dictionary search cost (eq. 17).

    ``cost_per_entry`` is seconds per dictionary entry; the paper's
    measured single-threaded value is 0.0138 µs (a linear scan; see
    :mod:`repro.text.dictionary`).
    """

    cost_per_entry: float = 0.0138e-6

    def __post_init__(self) -> None:
        if self.cost_per_entry < 0:
            raise CalibrationError("cost_per_entry must be >= 0")

    def time(self, dictionary_length: float) -> float:
        if dictionary_length < 0:
            raise CalibrationError("dictionary length must be >= 0")
        return self.cost_per_entry * dictionary_length

    def translation_time(self, dictionary_lengths: list[int] | tuple[int, ...]) -> float:
        """Eq. 18: the upper bound over all text parameters of a query.

        ``dictionary_lengths`` has one entry per text parameter (the
        length of the dictionary that parameter is searched in).
        """
        return sum(self.time(d_l) for d_l in dictionary_lengths)


#: Eq. 17 as published.
PAPER_DICT_MODEL = DictPerfModel(cost_per_entry=0.0138e-6)
