"""SLO monitor edge cases the adapt plane leans on.

Three families the main :mod:`tests.metrics.test_slo` /
``test_slo_tick`` suites do not pin:

* **window-boundary pruning** — an observation aged *exactly*
  ``window`` seconds is still in the window (the prune is strict), and
  a hit falling out of the window can itself latch a breach with no
  new completion at all;
* **recover-then-rebreach inside one controller cooldown** — the
  monitor reports every crossing faithfully; debouncing is the
  controller's job, and its cooldown must swallow the whole
  recover/rebreach flap after one action;
* **ticks with zero completions** — a heartbeat on an empty window is
  pure (no event, no state), and a breached monitor whose window
  drains while *idle* recovers on the heartbeat alone;
* **the adapt plane's one SLO path** — a starved breach reaches the
  controller, and one crossing is one action even with no cooldown.
"""

from types import SimpleNamespace

from repro.adapt.controller import AdaptiveCapacityController, ControllerLimits
from repro.adapt.plane import AdaptivePlane
from repro.core.stages import NO_SUBSCRIBERS, Outcome
from repro.metrics import SloMonitor


class _StubHost:
    """Minimal actuator surface for driving the controller directly."""

    def __init__(self):
        self._lateness = 1.0
        self._workers = 1

    def lateness(self):
        return self._lateness

    def set_lateness(self, value):
        self._lateness = value

    def translation_workers(self):
        return self._workers

    def set_translation_workers(self, workers):
        self._workers = workers

    def can_resplit(self):
        return False

    def resplit(self, scheme):
        raise AssertionError("resplit must not be attempted without a ladder")


class TestWindowBoundary:
    def test_observation_at_exact_boundary_is_retained(self):
        """The prune cutoff is strict: an observation aged exactly
        ``window`` seconds still counts, so a breach fired at the
        boundary sees both samples."""
        monitor = SloMonitor(target=0.9, window=10.0)
        monitor.observe(met=True, now=0.0)
        event = monitor.observe(met=False, now=10.0)
        assert monitor.window_count == 2
        assert event is not None and event.kind == "breach"
        assert event.window_count == 2
        assert event.hit_rate == 0.5

    def test_observation_just_past_boundary_is_pruned(self):
        monitor = SloMonitor(target=0.9, window=10.0)
        monitor.observe(met=True, now=0.0)
        monitor.observe(met=False, now=10.0)
        monitor.tick(10.0 + 1e-9, in_flight=0)
        assert monitor.window_count == 1
        assert monitor.hit_rate == 0.0

    def test_hit_aging_out_latches_breach_without_a_completion(self):
        """Rate sits exactly at target; the oldest *hit* then slides
        out of the window on a heartbeat and the breach fires from
        ``tick`` — no query finished anywhere near the crossing."""
        monitor = SloMonitor(target=0.5, window=10.0)
        monitor.observe(met=True, now=0.0)
        monitor.observe(met=True, now=1.0)
        monitor.observe(met=False, now=5.0)
        monitor.observe(met=False, now=6.0)
        assert monitor.hit_rate == 0.5 and not monitor.breached

        event = monitor.tick(10.5, in_flight=2)
        assert event is not None and event.kind == "breach"
        assert event.window_count == 3  # the t=0 hit is gone
        assert event.hit_rate == 1.0 / 3.0
        assert monitor.breached


class TestRecoverThenRebreach:
    def _flap(self, monitor, react=None):
        """breach at t=1.0, recover at t=1.1, rebreach at t=1.2; each
        crossing ``observe`` returns is also fed to ``react``."""
        events = []
        for met, times in (
            (False, (1.0,)),
            (True, (1.02, 1.04, 1.06, 1.08, 1.08, 1.09, 1.09, 1.09, 1.1)),
            (False, (1.12, 1.16, 1.2)),
        ):
            for t in times:
                e = monitor.observe(met=met, now=t)
                if e is not None:
                    events.append(e)
                    if react is not None:
                        react(e)
        return events

    def test_monitor_reports_every_crossing(self):
        """The monitor never debounces: a recover and an immediate
        rebreach 0.2 s apart are both emitted, in order."""
        monitor = SloMonitor(target=0.9, window=60.0)
        events = self._flap(monitor)
        assert [e.kind for e in events] == ["breach", "recover", "breach"]
        assert events == monitor.events
        for prev, cur in zip(events, events[1:]):
            assert cur.time >= prev.time
        assert events[-1].time - events[0].time < 0.25

    def test_controller_cooldown_swallows_the_flap(self):
        """Wired to a controller with a 5 s cooldown, the same
        breach/recover/breach flap produces exactly one action: the
        first breach acts, the recover and the rebreach both land
        inside the cooldown and are ignored."""
        controller = AdaptiveCapacityController(
            ControllerLimits(cooldown=5.0), target=0.9
        )
        controller.bind(_StubHost())
        monitor = SloMonitor(target=0.9, window=60.0)
        self._flap(monitor, controller.on_slo_event)
        assert len(monitor.events) == 3
        assert len(controller.reconfigs) == 1
        assert controller.reconfigs[0].trigger == "breach"
        assert controller.applied_depth == 1  # the flap unwound nothing

    def test_action_resumes_after_the_cooldown_expires(self):
        controller = AdaptiveCapacityController(
            ControllerLimits(cooldown=5.0, hysteresis=0.02), target=0.9
        )
        controller.bind(_StubHost())
        monitor = SloMonitor(target=0.9, window=10.0)
        self._flap(monitor, controller.on_slo_event)
        # once the flap's misses age out of the window, the recover
        # crossing lands outside the cooldown and de-escalates
        for t in (12.0, 12.1, 12.2, 12.3, 12.4, 12.5, 12.6, 12.7, 12.8, 12.9):
            event = monitor.observe(met=True, now=t)
            if event is not None:
                controller.on_slo_event(event)
        assert [r.trigger for r in controller.reconfigs] == ["breach", "recover"]
        assert controller.applied_depth == 0


class TestZeroCompletionTicks:
    def test_tick_on_fresh_monitor_is_pure(self):
        monitor = SloMonitor(target=0.9, window=60.0)
        for now in (0.0, 5.0, 10.0):
            assert monitor.tick(now, in_flight=0) is None
        assert monitor.events == []
        assert monitor.window_count == 0
        assert monitor.hit_rate == 1.0
        assert monitor.burn_rate == 0.0
        assert not monitor.breached

    def test_breached_monitor_recovers_on_an_idle_empty_window(self):
        """The window drains with nothing in flight: an empty idle
        window is healthy by definition, so the heartbeat alone emits
        the recover crossing — zero completions involved."""
        monitor = SloMonitor(target=0.9, window=10.0)
        breach = monitor.observe(met=False, now=0.0)
        assert breach is not None and breach.kind == "breach"

        recover = monitor.tick(20.0, in_flight=0)
        assert recover is not None and recover.kind == "recover"
        assert recover.window_count == 0
        assert recover.hit_rate == 1.0
        assert not monitor.breached
        assert [e.kind for e in monitor.events] == ["breach", "recover"]

    def test_starved_breach_reports_empty_window(self):
        """Starvation (work in flight, window empty) breaches with a
        window_count of 0 — the adapt plane's min_window_count gate
        must therefore never filter on count for starvation breaches
        alone without also seeing the in-flight signal."""
        monitor = SloMonitor(target=0.9, window=10.0)
        monitor.observe(met=True, now=0.0)
        event = monitor.tick(50.0, in_flight=3)
        assert event is not None and event.kind == "breach"
        assert event.window_count == 0
        # and the starved breach is latched: the next idle heartbeat
        # with the window still empty flips it straight back
        assert monitor.tick(51.0, in_flight=3) is None


def sim_plane(**kwargs) -> AdaptivePlane:
    """A control-only plane attached to a bare admission actuator."""
    plane = AdaptivePlane(target=0.9, recalibrate=False, **kwargs)
    scheduler = SimpleNamespace(subscribers=NO_SUBSCRIBERS, lateness_factor=1.0)
    plane.attach(scheduler=scheduler, estimator=None)
    return plane


class TestPlaneSloPath:
    def test_starved_breach_acts(self):
        """A wedged system — work in flight, the window empty — breaches
        with ``window_count == 0``; that is starvation, not cold-start
        noise, so the ``min_window_count`` gate lets it through."""
        plane = sim_plane(window=10.0)
        plane.on_outcome(1, Outcome.SERVED, SimpleNamespace(met_deadline=True), None, 3, 0.0)
        plane.tick(50.0, in_flight=3)
        assert plane.monitor.window_count == 0 and plane.monitor.breached
        assert [(r.action, r.time) for r in plane.report().reconfigs] == [
            ("tighten_admission", 50.0)
        ]

    def test_cold_start_breach_is_still_gated(self):
        plane = sim_plane(window=10.0, min_window_count=3)
        plane.on_outcome(1, Outcome.SERVED, SimpleNamespace(met_deadline=False), None, 0, 1.0)
        assert plane.monitor.breached
        assert plane.report().reconfigs == ()

    def test_one_crossing_is_one_action_without_cooldown(self):
        """With ``cooldown=0`` nothing debounces: the crossing must reach
        the controller once, not once as an event and again when the
        plane re-drives the persisting breach."""
        plane = sim_plane(window=60.0, limits=ControllerLimits(cooldown=0.0))
        plane.on_outcome(1, Outcome.FAILED, None, "service", 0, 1.0)
        assert [(r.action, r.time) for r in plane.report().reconfigs] == [
            ("tighten_admission", 1.0)
        ]
