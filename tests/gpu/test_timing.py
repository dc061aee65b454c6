"""Unit tests for the GPU timing models (eq. 13-15)."""

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.gpu.timing import (
    BandwidthTiming,
    LinearColumnTiming,
    OverheadTiming,
    TESLA_C2070_TIMING,
)


class TestPublishedCoefficients:
    @pytest.mark.parametrize(
        "n_sm,slope,intercept",
        [(1, 0.0030, 0.0258), (2, 0.0015, 0.0130), (4, 0.0008, 0.0065), (14, 0.00021, 0.0020)],
    )
    def test_eq14_eq15(self, n_sm, slope, intercept):
        assert np.isclose(
            TESLA_C2070_TIMING.query_time(0.5, n_sm), slope * 0.5 + intercept
        )

    def test_full_scan_values(self):
        # eq. 14 at C/C_tot = 1 for the 1-SM partition: 28.8 ms
        assert np.isclose(TESLA_C2070_TIMING.query_time(1.0, 1), 0.0288)

    def test_more_sms_is_faster(self):
        times = [TESLA_C2070_TIMING.query_time(0.3, k) for k in (1, 2, 4, 14)]
        assert times == sorted(times, reverse=True)

    def test_more_columns_is_slower(self):
        t_few = TESLA_C2070_TIMING.query_time(0.1, 2)
        t_many = TESLA_C2070_TIMING.query_time(0.9, 2)
        assert t_many > t_few


class TestLinearColumnTiming:
    def test_interpolation_for_unmeasured_sm(self):
        model = LinearColumnTiming({2: (0.002, 0.010)})
        # 4 SMs: inverse scaling halves both coefficients
        assert np.isclose(model.query_time(1.0, 4), (0.002 + 0.010) / 2)

    def test_measured_counts(self):
        assert TESLA_C2070_TIMING.measured_sm_counts == (1, 2, 4, 14)

    def test_empty_coefficients_rejected(self):
        with pytest.raises(DeviceError):
            LinearColumnTiming({})

    def test_negative_coefficients_rejected(self):
        with pytest.raises(DeviceError):
            LinearColumnTiming({1: (-0.1, 0.0)})

    def test_fraction_bounds(self):
        # a query that reads no column costs the fixed part (intercept)
        assert TESLA_C2070_TIMING.query_time(0.0, 1) == 0.0258
        with pytest.raises(DeviceError):
            TESLA_C2070_TIMING.query_time(-0.1, 1)
        with pytest.raises(DeviceError):
            TESLA_C2070_TIMING.query_time(1.5, 1)

    def test_sm_bounds(self):
        with pytest.raises(DeviceError):
            TESLA_C2070_TIMING.query_time(0.5, 0)


class TestBandwidthTiming:
    def test_scaling_with_sms(self):
        model = BandwidthTiming(table_nbytes=4 * 2**30, launch_overhead=0.0)
        t1 = model.query_time(0.5, 1)
        t4 = model.query_time(0.5, 4)
        assert np.isclose(t1 / t4, 4.0)

    def test_overhead_added(self):
        base = BandwidthTiming(table_nbytes=1024, launch_overhead=0.0)
        with_oh = BandwidthTiming(table_nbytes=1024, launch_overhead=0.5)
        assert np.isclose(
            with_oh.query_time(1.0, 1) - base.query_time(1.0, 1), 0.5
        )

    def test_validation(self):
        with pytest.raises(DeviceError):
            BandwidthTiming(table_nbytes=0)
        with pytest.raises(DeviceError):
            BandwidthTiming(table_nbytes=1, per_sm_bandwidth=0)
        with pytest.raises(DeviceError):
            BandwidthTiming(table_nbytes=1, launch_overhead=-1)


class TestOverheadTiming:
    def test_constant_shift(self):
        wrapped = OverheadTiming(base=TESLA_C2070_TIMING, overhead=0.072)
        assert np.isclose(
            wrapped.query_time(0.25, 2),
            TESLA_C2070_TIMING.query_time(0.25, 2) + 0.072,
        )

    def test_negative_overhead_rejected(self):
        with pytest.raises(DeviceError):
            OverheadTiming(base=TESLA_C2070_TIMING, overhead=-0.1)
