"""The adapt plane: recalibrator + capacity controller behind one facade.

:class:`AdaptivePlane` is the single object a host attaches, exactly
like a trace collector or metrics registry: ``ServeEngine(...,
adapt=plane)`` or ``HybridSystem.run(..., adapt=plane)``.  It is the
last subscriber of the run's query stage stream
(:mod:`repro.core.stages`) — the only one that acts on what it hears —
runs its own windowed :class:`~repro.metrics.slo.SloMonitor`, and wires
the two adaptive mechanisms together:

* the :class:`~repro.adapt.recalibrate.OnlineRecalibrator` listens to
  the estimate/decision/feedback stages and hot-swaps refit model
  bundles into the estimator;
* the :class:`~repro.adapt.controller.AdaptiveCapacityController`
  acts on the SLO window's breach/recover state (fed by the cache-hit
  and finished stages) and drives the host's capacity actuators, bound
  by :meth:`AdaptivePlane.attach`.

Both publish what they did (``on_refit``, ``on_epoch``,
``on_reconfig``) on the same stream, where the trace and the metrics
subscribe; the plane holds no sink of its own.

Lock ordering
-------------
On the serving engine every plane entry point already runs under the
engine-wide ``EngineState.cond`` lock: the scheduler's stages fire
inside ``submit``, feedback and finished stages inside pool ``on_done``
callbacks, and ``tick`` at the engine's sampling sites.
Actuator calls (``adapt_resplit``, ``adapt_resize_translation``,
lateness mutation) take the same re-entrant lock, so an action applied
from inside a stage call nests cleanly and nothing in this package
needs a lock of its own.  The simulated plane is
single-threaded, where the same code is trivially safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.adapt.controller import (
    AdaptiveCapacityController,
    ControllerLimits,
    ReconfigRecord,
)
from repro.adapt.recalibrate import ModelEpoch, OnlineRecalibrator, RecalGuards
from repro.core.stages import Outcome
from repro.errors import SchedulingError
from repro.gpu.partitioning import PartitionScheme, paper_partition_scheme, uniform_scheme
from repro.metrics.slo import SloEvent, SloMonitor

__all__ = ["AdaptivePlane", "AdaptReport", "default_scheme_ladder"]


def default_scheme_ladder() -> tuple[PartitionScheme, ...]:
    """The built-in re-split ladder: the paper's 2x1/2x2/2x4 mixed
    scheme, then a uniform seven-partition 2-SM split (more service
    stations for the same 14 SMs — higher throughput under a flood of
    small queries, at the cost of the large 4-SM express lanes)."""
    return (paper_partition_scheme(), uniform_scheme(7, 2))


@dataclass(frozen=True)
class AdaptReport:
    """Frozen audit surface of one adaptive run.

    Everything the ``adapt`` family of :func:`repro.sim.validate.audit`
    needs to reconcile the run: the guard/limit envelopes the plane ran
    under, the full epoch and reconfiguration histories, and the
    per-epoch decision accounting proving estimates were never served
    across a torn model swap.
    """

    target: float
    guards: RecalGuards
    limits: ControllerLimits
    epochs: tuple[ModelEpoch, ...]
    reconfigs: tuple[ReconfigRecord, ...]
    decisions_by_epoch: Mapping[int, int]
    total_decisions: int
    samples_ingested: int
    poisoned: int


class _SimHost:
    """Actuator surface for the simulated plane: admission only.

    The event-driven simulator replays a fixed queue topology and a
    fixed worker layout, so re-splits and pool resizes have nothing to
    actuate; the admission lateness factor is a plain scheduler
    attribute and works identically in both planes.
    """

    def __init__(self, scheduler):
        self._scheduler = scheduler

    def lateness(self):
        return getattr(self._scheduler, "lateness_factor", None)

    def set_lateness(self, value: float) -> None:
        self._scheduler.lateness_factor = value

    def translation_workers(self):
        return None

    def set_translation_workers(self, workers: int) -> None:
        raise SchedulingError("simulated plane cannot resize translation")

    def can_resplit(self) -> bool:
        return False

    def resplit(self, scheme) -> None:
        raise SchedulingError("simulated plane cannot re-split the GPU")


class _ServeHost(_SimHost):
    """Actuator surface for the live engine: all three knobs."""

    def __init__(self, engine):
        super().__init__(engine.scheduler)
        self._engine = engine

    def translation_workers(self):
        return self._engine.trans_queue.capacity

    def set_translation_workers(self, workers: int) -> None:
        self._engine.adapt_resize_translation(workers)

    def can_resplit(self) -> bool:
        return True

    def resplit(self, scheme) -> None:
        self._engine.adapt_resplit(scheme)


class AdaptivePlane:
    """Online recalibration + adaptive capacity control for one run.

    Parameters
    ----------
    target:
        Deadline-hit-rate SLO the plane defends (the paper's
        :math:`P_{BD}`-style service-level objective).
    window:
        SLO observation window in event-time seconds.
    guards:
        Recalibration safety envelope (:class:`RecalGuards`).
    limits:
        Controller envelope (:class:`ControllerLimits`).
    schemes:
        Partition-scheme re-split ladder; defaults to
        :func:`default_scheme_ladder` on serve hosts.  The first rung
        must match the host's configured scheme; with ``control`` on, a
        serve host refuses at :meth:`attach` a rung with an SM class
        step 2 does not estimate (:meth:`~repro.serve.engine.ServeEngine.check_scheme`).
    recalibrate / control:
        Independently disable either half (a disabled plane attached to
        a run must leave behaviour byte-identical to no plane at all —
        pinned by the property suite).
    min_window_count:
        A breach is ignored while the SLO window holds at least one but
        fewer than this many completions, so a single missed deadline
        during cold start (hit rate 0/1) cannot trigger a capacity
        action.  A starved breach — work in flight, nothing completing,
        an empty window — always acts, and so does a recovery:
        unwinding is safe at any sample size.

    A plane instance is single-use: it binds to one host via
    :meth:`attach` and accumulates that run's history.
    """

    def __init__(
        self,
        *,
        target: float = 0.9,
        window: float = 60.0,
        guards: RecalGuards | None = None,
        limits: ControllerLimits | None = None,
        schemes: tuple[PartitionScheme, ...] | None = None,
        recalibrate: bool = True,
        control: bool = True,
        min_window_count: int = 1,
    ):
        if min_window_count < 1:
            raise SchedulingError(
                f"min_window_count must be >= 1, got {min_window_count}"
            )
        self.min_window_count = min_window_count
        self.target = target
        self.guards = guards if guards is not None else RecalGuards()
        self.limits = limits if limits is not None else ControllerLimits()
        self._schemes = schemes
        self._recal_enabled = recalibrate
        self._ctrl_enabled = control
        # registry=None: the engine may run its own SLO monitor on the
        # shared registry; the plane's window is a private instrument
        self.monitor = SloMonitor(target=target, window=window, registry=None)
        self.recalibrator: OnlineRecalibrator | None = None
        self.controller: AdaptiveCapacityController | None = None
        self._attached = False
        self._time = 0.0

    # -- attachment --------------------------------------------------------

    def attach(self, *, scheduler, estimator, engine=None) -> None:
        """Bind one run's actuators (called once by its driver).

        The plane hears the run through the stage stream; this gives it
        what it may *move*.  Admission lateness is an attribute of
        ``scheduler`` on both planes; ``engine`` is the live
        :class:`~repro.serve.engine.ServeEngine` whose translation pool
        and GPU split can also be reconfigured — without one (a
        simulation) those two knobs do not exist.  Refit models are
        installed into ``estimator``; epochs, refits and
        reconfigurations are published on ``scheduler.subscribers``,
        the run's stage-stream table — epoch 0 here.
        """
        if self._attached:
            raise SchedulingError("AdaptivePlane is single-use; already attached")
        schemes = self._schemes
        if self._ctrl_enabled and engine is not None:
            if schemes is None:
                schemes = default_scheme_ladder()
                if engine.config.scheme != schemes[0]:
                    # unknown starting scheme: no safe ladder to climb
                    schemes = (engine.config.scheme,)
            for scheme in schemes:
                engine.check_scheme(scheme)
        self._attached = True
        subscribers = scheduler.subscribers
        if self._recal_enabled:
            self.recalibrator = OnlineRecalibrator(
                estimator, self.guards, now=self._time, subscribers=subscribers
            )
        if self._ctrl_enabled:
            if engine is None:
                host = _SimHost(scheduler)
                schemes = schemes or ()
            else:
                host = _ServeHost(engine)
            self.controller = AdaptiveCapacityController(
                self.limits,
                target=self.target,
                schemes=schemes,
                subscribers=subscribers,
            )
            self.controller.bind(host)

    # -- the stage stream (see repro.core.stages) --------------------------

    def on_estimated(self, query, est, deadline, now) -> None:
        self._time = max(self._time, now)
        if self.recalibrator is not None:
            self.recalibrator.note_estimate(query)

    def on_decision(self, decision, candidates, branch, now) -> None:
        self._time = max(self._time, now)
        if self.recalibrator is not None:
            self.recalibrator.note_decision(decision)

    def on_feedback(
        self, queue_name, query_id, measured, estimated, applied, stats, now=None
    ) -> None:
        # ``now`` is deliberately unused: samples keep the plane's own
        # high-water mark — the latest instant an earlier stage
        # announced.  ``ModelEpoch.time`` derives from it and the
        # adaptive golden master pins it, so closing that lag is a
        # behaviour change
        if self.recalibrator is not None:
            self.recalibrator.ingest(
                queue_name, query_id, measured, estimated, self._time
            )

    def on_cache_hit(self, record, source, seconds, now: float) -> None:
        """A rollup hit is a finished query that met its deadline."""
        self._observe(True, now)

    def on_outcome(self, query_id, outcome, record, detail, in_flight, now) -> None:
        """One served query's deadline outcome (failures are misses)."""
        if outcome is Outcome.SERVED or outcome is Outcome.FAILED:
            self._observe(outcome is Outcome.SERVED and record.met_deadline, now)

    # -- SLO observation ---------------------------------------------------

    def _observe(self, met: bool, now: float) -> None:
        self._time = max(self._time, now)
        self.monitor.observe(met, now)
        self._pump(now)

    def tick(self, now: float, in_flight: int = 0) -> None:
        """Heartbeat so starvation (no completions at all) still
        registers as a breach; fired from the engine sampling loop."""
        self._time = max(self._time, now)
        self.monitor.tick(now, in_flight)
        self._pump(now)

    # -- the controller's one input ---------------------------------------

    def _pump(self, now: float) -> None:
        """Drive the controller from the SLO state after every observe
        and tick — the one path a crossing reaches it by.

        One action is rarely enough: a breach that outlives the
        cooldown deserves the next escalation step, and a comfortable
        recovery deserves the next unwind.  Events are cooldown-gated
        inside the controller, so pumping on every completion cannot
        thrash."""
        ctrl = self.controller
        if ctrl is None:
            return
        monitor = self.monitor
        count = monitor.window_count
        if monitor.breached:
            if 0 < count < self.min_window_count:
                return  # cold-start noise; an empty window is starvation
            kind = "breach"
        elif (
            ctrl.applied_depth > 0
            and monitor.hit_rate >= self.target + self.limits.hysteresis
        ):
            kind = "recover"
        else:
            return
        ctrl.on_slo_event(
            SloEvent(kind, now, monitor.hit_rate, monitor.burn_rate, count)
        )

    # -- audit surface -----------------------------------------------------

    def report(self) -> AdaptReport:
        recal = self.recalibrator
        ctrl = self.controller
        return AdaptReport(
            target=self.target,
            guards=self.guards,
            limits=self.limits,
            epochs=tuple(recal.epochs) if recal is not None else (),
            reconfigs=tuple(ctrl.reconfigs) if ctrl is not None else (),
            decisions_by_epoch=MappingProxyType(
                dict(recal.decisions_by_epoch) if recal is not None else {}
            ),
            total_decisions=recal.total_decisions if recal is not None else 0,
            samples_ingested=recal.samples_ingested if recal is not None else 0,
            poisoned=recal.poisoned if recal is not None else 0,
        )
