"""Windowed deadline-SLO monitoring with threshold-crossing events.

The paper's time constraint ``T_C`` (Section IV) is a *per-query*
deadline; an operator watching a live system cares about the *rate* at
which those deadlines are met over a recent window.  :class:`SloMonitor`
keeps a sliding window of (finish time, met?) observations, computes the
windowed hit rate and its **burn rate** — the fraction of the error
budget being consumed, ``(1 - hit_rate) / (1 - target)`` — and records
a :class:`SloEvent` in :attr:`SloMonitor.events` whenever the hit rate
crosses the target in either direction (``breach`` going under,
``recover`` coming back); the ``observe`` / ``tick`` that crossed
returns it.

A burn rate of 1.0 means the service is exactly consuming its budget;
above 1.0 the SLO will be missed if the window is representative.  With
``target=1.0`` there is no error budget, so any miss burns infinitely.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.stages import Outcome
from repro.errors import MetricsError
from repro.metrics.registry import MetricsRegistry

__all__ = ["SloEvent", "SloMonitor"]


@dataclass(frozen=True)
class SloEvent:
    """One threshold crossing: the hit rate moved across the target."""

    kind: str  # "breach" | "recover"
    time: float
    hit_rate: float
    burn_rate: float
    window_count: int

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "time": self.time,
            "hit_rate": self.hit_rate,
            "burn_rate": self.burn_rate,
            "window_count": self.window_count,
        }


class SloMonitor:
    """Track windowed deadline-hit-rate burn against a target.

    ``observe(met, now)`` is called once per completed query (the serve
    engine does this under its own lock; the monitor's internal lock
    makes standalone use safe too).  When a ``registry`` is given the
    monitor publishes ``repro_slo_target``, ``repro_slo_hit_rate`` and
    ``repro_slo_burn_rate`` gauges plus a ``repro_slo_events_total``
    counter labelled by crossing kind, so the scrape endpoint carries
    the SLO state alongside the raw latency histograms.
    """

    def __init__(
        self,
        target: float = 0.9,
        window: float = 60.0,
        registry: Optional[MetricsRegistry] = None,
    ):
        if not 0.0 < target <= 1.0:
            raise MetricsError(f"SLO target must be in (0, 1], got {target}")
        if window <= 0:
            raise MetricsError(f"SLO window must be positive, got {window}")
        self.target = float(target)
        self.window = float(window)
        self.events: list[SloEvent] = []
        self._lock = threading.Lock()
        self._observations: deque[tuple[float, bool]] = deque()
        self._hits = 0
        self._breached = False
        self._ever_observed = False
        self._hit_gauge = self._burn_gauge = self._event_counter = None
        if registry is not None:
            registry.gauge(
                "repro_slo_target", "Deadline hit-rate target for the SLO monitor."
            ).set(self.target)
            self._hit_gauge = registry.gauge(
                "repro_slo_hit_rate", "Windowed deadline hit rate."
            )
            self._burn_gauge = registry.gauge(
                "repro_slo_burn_rate",
                "Fraction of the SLO error budget being consumed "
                "((1 - hit_rate) / (1 - target)).",
            )
            self._event_counter = registry.counter(
                "repro_slo_events_total",
                "SLO threshold crossings observed.",
                labels=("kind",),
            )
            self._hit_gauge.set(1.0)
            self._burn_gauge.set(0.0)

    def observe(self, met: bool, now: float) -> Optional[SloEvent]:
        """Record one query outcome; return a crossing event if one fired."""
        with self._lock:
            self._observations.append((now, bool(met)))
            if met:
                self._hits += 1
            self._ever_observed = True
            hit_rate, burn, event = self._advance_locked(now)
        return self._publish(hit_rate, burn, event)

    # the query stage stream (see repro.core.stages): every query that
    # is served or fails is one observation, a rollup hit a met deadline

    def on_cache_hit(self, record, source, seconds, now: float) -> None:
        self.observe(True, now)

    def on_outcome(self, query_id, outcome, record, detail, in_flight, now) -> None:
        if outcome is Outcome.SERVED or outcome is Outcome.FAILED:
            self.observe(outcome is Outcome.SERVED and record.met_deadline, now)

    def tick(self, now: float, in_flight: int = 0) -> Optional[SloEvent]:
        """Advance the window without an observation (a heartbeat).

        The window used to slide only on :meth:`observe`, so a wedged
        system — queries in flight but none completing — kept exporting
        its last healthy burn rate forever.  A periodic ``tick`` expires
        old observations and refreshes the gauges; when the window
        empties *while work is still in flight* the hit rate drops to
        0.0 (silence under load is the worst miss), which latches a
        breach.  An idle empty window stays healthy: before the first
        observation or with ``in_flight == 0`` there is nothing to miss.
        """
        with self._lock:
            self._prune(now)
            starved = not self._observations and self._ever_observed and in_flight > 0
            if starved:
                hit_rate = 0.0
                burn = self._burn_locked(hit_rate)
                event = None
                if not self._breached:
                    self._breached = True
                    event = SloEvent("breach", now, hit_rate, burn, 0)
                    self.events.append(event)
            else:
                hit_rate, burn, event = self._advance_locked(now)
        return self._publish(hit_rate, burn, event)

    def _advance_locked(self, now: float) -> tuple[float, float, Optional[SloEvent]]:
        self._prune(now)
        hit_rate = self._hit_rate_locked()
        burn = self._burn_locked(hit_rate)
        event = None
        if not self._breached and hit_rate < self.target:
            self._breached = True
            event = SloEvent("breach", now, hit_rate, burn, len(self._observations))
        elif self._breached and hit_rate >= self.target:
            self._breached = False
            event = SloEvent("recover", now, hit_rate, burn, len(self._observations))
        if event is not None:
            self.events.append(event)
        return hit_rate, burn, event

    def _publish(
        self, hit_rate: float, burn: float, event: Optional[SloEvent]
    ) -> Optional[SloEvent]:
        if self._hit_gauge is not None:
            self._hit_gauge.set(hit_rate)
            self._burn_gauge.set(burn)
        if event is not None and self._event_counter is not None:
            self._event_counter.inc(kind=event.kind)
        return event

    def _prune(self, now: float) -> None:
        cutoff = now - self.window
        while self._observations and self._observations[0][0] < cutoff:
            _, was_met = self._observations.popleft()
            if was_met:
                self._hits -= 1

    def _hit_rate_locked(self) -> float:
        n = len(self._observations)
        return self._hits / n if n else 1.0

    def _burn_locked(self, hit_rate: float) -> float:
        budget = 1.0 - self.target
        missing = 1.0 - hit_rate
        if budget <= 0.0:
            return 0.0 if missing <= 0.0 else math.inf
        return missing / budget

    @property
    def hit_rate(self) -> float:
        with self._lock:
            return self._hit_rate_locked()

    @property
    def burn_rate(self) -> float:
        with self._lock:
            return self._burn_locked(self._hit_rate_locked())

    @property
    def breached(self) -> bool:
        with self._lock:
            return self._breached

    @property
    def window_count(self) -> int:
        with self._lock:
            return len(self._observations)
