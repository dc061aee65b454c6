"""SLO monitor: windowed hit rate, burn math, threshold crossings."""

import math

import pytest

from repro.errors import MetricsError
from repro.metrics import MetricsRegistry, SloMonitor


class TestValidation:
    def test_target_domain(self):
        with pytest.raises(MetricsError):
            SloMonitor(target=0.0)
        with pytest.raises(MetricsError):
            SloMonitor(target=1.1)
        SloMonitor(target=1.0)  # no error budget, but legal

    def test_window_must_be_positive(self):
        with pytest.raises(MetricsError):
            SloMonitor(window=0.0)


class TestBurnMath:
    def test_empty_window_is_healthy(self):
        mon = SloMonitor(target=0.9)
        assert mon.hit_rate == 1.0
        assert mon.burn_rate == 0.0
        assert not mon.breached

    def test_burn_one_means_budget_exactly_consumed(self):
        mon = SloMonitor(target=0.9, window=100.0)
        for i in range(9):
            mon.observe(True, now=float(i))
        mon.observe(False, now=9.0)  # 9/10 hit = exactly the target
        assert mon.hit_rate == pytest.approx(0.9)
        assert mon.burn_rate == pytest.approx(1.0)
        assert not mon.breached  # at the target is not under it

    def test_target_one_burns_infinitely_on_any_miss(self):
        mon = SloMonitor(target=1.0, window=100.0)
        mon.observe(True, now=0.0)
        assert mon.burn_rate == 0.0
        event = mon.observe(False, now=1.0)
        assert mon.burn_rate == math.inf
        assert event is not None and event.kind == "breach"


class TestWindow:
    def test_old_observations_fall_out(self):
        mon = SloMonitor(target=0.9, window=10.0)
        mon.observe(False, now=0.0)  # breaches
        assert mon.breached
        for t in (20.0, 21.0):  # the miss is now outside the window
            mon.observe(True, now=t)
        assert mon.hit_rate == 1.0
        assert mon.window_count == 2
        assert not mon.breached

    def test_crossing_fires_once_per_direction(self):
        mon = SloMonitor(target=0.9, window=100.0)
        returned = [mon.observe(False, now=0.0)]  # hit rate 0.0: breach
        returned.append(mon.observe(False, now=1.0))  # still under: no second event
        for t in range(2, 30):  # climb back over 0.9
            returned.append(mon.observe(True, now=float(t)))
        events = [e for e in returned if e is not None]
        kinds = [e.kind for e in events]
        assert kinds == ["breach", "recover"]
        assert mon.events == events
        recover = events[-1]
        assert recover.hit_rate >= 0.9
        # recovery fires at the first observation back over target:
        # 18 hits against 2 misses (18/20 = 0.9)
        assert recover.window_count == 20


class TestRegistryIntegration:
    def test_gauges_and_event_counter_published(self):
        reg = MetricsRegistry()
        mon = SloMonitor(target=0.9, window=100.0, registry=reg)
        snap = reg.collect()
        assert snap.value("repro_slo_target") == pytest.approx(0.9)
        assert snap.value("repro_slo_hit_rate") == 1.0
        mon.observe(False, now=0.0)
        mon.observe(True, now=1.0)
        snap = reg.collect()
        assert snap.value("repro_slo_hit_rate") == pytest.approx(0.5)
        assert snap.value("repro_slo_burn_rate") == pytest.approx(5.0)
        assert snap.value("repro_slo_events_total", kind="breach") == 1.0
