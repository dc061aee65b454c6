"""Size, time and rate helpers used throughout the library.

The paper expresses cube sizes in MB (eq. 3), memory bandwidth in GB/s
(Figure 3) and throughput in queries per second (Tables 1-3).  Mixing
binary prefixes by hand is a classic source of silent factor-of-1024
errors, so every conversion goes through this module.

All "MB"/"GB" in the paper are binary (MiB/GiB): the cube-size law in
eq. 3 divides a byte count by :math:`1024^2` to obtain MB.  We keep the
paper's naming (``MB``, ``GB``) but document the binary semantics here.

:func:`block_bounds` is the one static split of an extent into
near-equal blocks: the CPU team's blocks and the device's SM shards.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "bytes_to_mb",
    "mb_to_bytes",
    "bytes_to_gb",
    "gb_to_bytes",
    "bandwidth_gbps",
    "fmt_bytes",
    "fmt_seconds",
    "block_bounds",
    "Rate",
]

KB: int = 1024
MB: int = 1024**2
GB: int = 1024**3
TB: int = 1024**4


def bytes_to_mb(n_bytes: float) -> float:
    """Convert a byte count to (binary) megabytes, the unit of eq. 3."""
    return n_bytes / MB


def mb_to_bytes(n_mb: float) -> float:
    """Convert (binary) megabytes to bytes."""
    return n_mb * MB


def bytes_to_gb(n_bytes: float) -> float:
    """Convert a byte count to (binary) gigabytes."""
    return n_bytes / GB


def gb_to_bytes(n_gb: float) -> float:
    """Convert (binary) gigabytes to bytes."""
    return n_gb * GB


def bandwidth_gbps(n_bytes: float, seconds: float) -> float:
    """Achieved bandwidth in GB/s for ``n_bytes`` moved in ``seconds``.

    This is the quantity plotted in Figure 3 of the paper.  Raises
    :class:`ZeroDivisionError` for a zero duration on purpose: a zero-time
    measurement is a benchmarking bug, not a valid infinite bandwidth.
    """
    return bytes_to_gb(n_bytes) / seconds


def fmt_bytes(n_bytes: float) -> str:
    """Human readable size: ``fmt_bytes(32 * GB) == '32.00 GB'``."""
    if n_bytes >= TB:
        return f"{n_bytes / TB:.2f} TB"
    if n_bytes >= GB:
        return f"{n_bytes / GB:.2f} GB"
    if n_bytes >= MB:
        return f"{n_bytes / MB:.2f} MB"
    if n_bytes >= KB:
        return f"{n_bytes / KB:.2f} KB"
    return f"{n_bytes:.0f} B"


def fmt_seconds(seconds: float) -> str:
    """Human readable duration with µs/ms/s auto-scaling."""
    if seconds < 0:
        return "-" + fmt_seconds(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def block_bounds(extent: int, n_blocks: int) -> list[tuple[int, int]]:
    """``n_blocks`` contiguous near-equal ``(lo, hi)`` blocks of ``range(extent)``.

    The edges are ``np.linspace(0, extent, n_blocks + 1).astype(int)``
    without the array: ``linspace`` multiplies ``i`` by the float step
    and sets the last edge to ``extent``, and so does this.  (An integer
    ``extent * i // n_blocks`` rounds differently from n_blocks = 14 on
    and would move every shard partial that depends on the split.)
    With more blocks than rows some blocks are empty.
    """
    step = extent / n_blocks
    edges = [int(i * step) for i in range(n_blocks)] + [extent]
    return list(zip(edges[:-1], edges[1:]))


@dataclass(frozen=True)
class Rate:
    """A throughput measurement: ``count`` completions over ``seconds``.

    The paper's headline metric is queries per second; keeping numerator
    and denominator separate avoids averaging-of-rates mistakes when
    aggregating across partitions.
    """

    count: int
    seconds: float

    @property
    def per_second(self) -> float:
        """Completions per second; 0.0 for an empty interval."""
        if self.seconds <= 0.0:
            return 0.0
        return self.count / self.seconds

    def __add__(self, other: "Rate") -> "Rate":
        """Combine two measurements taken over the *same* interval.

        The durations must match (within 1e-9 relative tolerance):
        adding rates over different windows is meaningless.
        """
        if abs(self.seconds - other.seconds) > 1e-9 * max(
            1.0, abs(self.seconds), abs(other.seconds)
        ):
            raise ValueError(
                "cannot add Rate objects over different intervals: "
                f"{self.seconds} s vs {other.seconds} s"
            )
        return Rate(self.count + other.count, self.seconds)

    def __str__(self) -> str:
        return f"{self.per_second:.1f}/s ({self.count} in {fmt_seconds(self.seconds)})"
