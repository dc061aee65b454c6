"""Unit tests for size/time/rate helpers."""

import numpy as np
import pytest

from repro.units import (
    GB,
    KB,
    MB,
    Rate,
    TB,
    bandwidth_gbps,
    block_bounds,
    bytes_to_gb,
    bytes_to_mb,
    fmt_bytes,
    fmt_seconds,
    gb_to_bytes,
    mb_to_bytes,
)


class TestConversions:
    def test_constants_binary(self):
        assert KB == 1024
        assert MB == 1024**2
        assert GB == 1024**3
        assert TB == 1024**4

    def test_roundtrips(self):
        assert mb_to_bytes(bytes_to_mb(123456789)) == pytest.approx(123456789)
        assert gb_to_bytes(bytes_to_gb(987654321)) == pytest.approx(987654321)

    def test_eq3_scale(self):
        # eq. 3 divides a byte count by 1024^2
        assert bytes_to_mb(512 * MB) == 512.0

    def test_bandwidth(self):
        assert bandwidth_gbps(2 * GB, 2.0) == 1.0


class TestFormatting:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (500, "500 B"),
            (4 * KB, "4.00 KB"),
            (500 * MB, "500.00 MB"),
            (32 * GB, "32.00 GB"),
            (2 * TB, "2.00 TB"),
        ],
    )
    def test_fmt_bytes(self, n, expected):
        assert fmt_bytes(n) == expected

    @pytest.mark.parametrize(
        "t,expected",
        [
            (5e-7, "0.5 us"),
            (0.0138, "13.80 ms"),
            (1.5, "1.500 s"),
        ],
    )
    def test_fmt_seconds(self, t, expected):
        assert fmt_seconds(t) == expected

    def test_fmt_negative_seconds(self):
        assert fmt_seconds(-0.5).startswith("-")


class TestRate:
    def test_per_second(self):
        assert Rate(228, 1.0).per_second == 228.0

    def test_zero_interval(self):
        assert Rate(10, 0.0).per_second == 0.0

    def test_addition_same_interval(self):
        combined = Rate(100, 2.0) + Rate(56, 2.0)
        assert combined.count == 156
        assert combined.per_second == 78.0

    def test_addition_mismatched_interval_rejected(self):
        with pytest.raises(ValueError):
            Rate(1, 1.0) + Rate(1, 2.0)

    def test_str(self):
        assert "/s" in str(Rate(10, 1.0))


class TestBlockBounds:
    """The static split the CPU team and the device shards share: the
    edges ``np.linspace`` gave, so no block or shard partial moves."""

    @staticmethod
    def linspace_bounds(extent, n):
        edges = np.linspace(0, extent, n + 1).astype(int)
        return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]

    def test_edges_match_linspace(self):
        for n in range(1, 65):
            for extent in [*range(257), *range(257, 20_001, 101)]:
                assert block_bounds(extent, n) == self.linspace_bounds(extent, n), (extent, n)

    @pytest.mark.parametrize("extent", [100_000, 122_880, 1_000_000, 1_048_573, 5_760_000])
    def test_edges_match_linspace_on_large_extents(self, extent):
        for n in range(1, 65):
            assert block_bounds(extent, n) == self.linspace_bounds(extent, n)
