"""Deterministic scenario harness for the adaptive serving engine.

The live :class:`~repro.serve.engine.ServeEngine` runs real worker
threads against a wall clock, which makes its behaviour — and therefore
the adapt plane's behaviour — timing-dependent and unrepeatable.  This
module removes the wall clock without removing the threads:

* :class:`SteppedClock` is a :class:`~repro.serve.clock.Clock` whose
  ``sleep`` *parks* the calling worker until the scenario driver
  explicitly releases it.  Time is a number the driver moves; nothing
  in a scenario run ever waits on real time (the driver's internal
  polling naps are liveness plumbing, not modelled time).
* :class:`TruthExecutor` replaces the materialised executor: instead of
  aggregating cubes it parks the worker for the query's *true* service
  time, read by a :class:`TruthWorld` from a second production
  :class:`~repro.sim.system.SystemEstimator` holding the truth bundle —
  the estimation error the online recalibrator has to learn is the
  drift between that bundle and the engine's.  Chaos hooks (worker
  stalls, drifting truth) live here too.
* :class:`ScenarioDriver` alternates two phases: wait until the engine
  is *quiescent* (every busy worker parked in the clock, every queue
  either empty or fully served) and then advance time to the next event
  — the earlier of the next scripted arrival and the earliest parked
  wake-up — releasing exactly one sleeper at a time, ties broken by
  ``(wake_at, thread name)``.  The resulting interleaving is a pure
  function of the scenario script, so epoch histories, reconfiguration
  sequences and per-class SLO outcomes can be pinned by golden tests.

The driver never calls ``engine.drain`` (a real-time wait); it drives
the system to empty with the clock and then stops the engine.

Each scenario builder returns a fully wired :class:`ScenarioKit` —
stepped clock, truth world, parking executor, adapt plane, engine and
driver — plus the scripted arrival schedule; ``kit.run()`` drives it.
The library of scripts mirrors the failure modes an adaptive OLAP front
door actually faces:

* :func:`spike_scenario` — the headline claim: a 3x open-loop load
  spike on a premium/batch tenant mix, which the controller must ride
  out without dropping the premium class below its 0.9 deadline SLO;
* :func:`regime_shift_scenario` — the data (and therefore true service
  times) grows mid-run; the recalibrator has to learn the new regime;
* :func:`diurnal_scenario` — a slow load wave that should trigger at
  most a tame number of reconfigurations (no thrash);
* :func:`adversary_scenario` — an estimate-poisoning adversary: truth
  decouples wildly from the models *and* poisoned feedback samples are
  injected; the guards must keep every installed epoch inside its
  clamps;
* :func:`multi_tenant_scenario` — three tenant classes with different
  rates sharing the engine; per-class SLO accounting comes from the
  scenario result.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.adapt.controller import ControllerLimits
from repro.adapt.plane import AdaptivePlane
from repro.adapt.recalibrate import RecalGuards
from repro.core.admission import AdmissionControlScheduler
from repro.core.partitions import QueueKind
from repro.core.perfmodel import (
    CPUPerfModel,
    DictPerfModel,
    LinearModel,
    PiecewiseModel,
    PowerLawModel,
)
from repro.errors import BackpressureError, SchedulingError, ServeError
from repro.gpu.timing import TESLA_C2070_TIMING, LinearColumnTiming
from repro.paper import paper_system_config, paper_workload
from repro.query.workload import TimedQuery
from repro.serve.engine import ServeEngine
from repro.sim.system import ModelBundle, SystemConfig, SystemEstimator

#: per-query jitter step: keeps every parked wake-up time distinct
JITTER = 1e-4
#: real seconds the driver waits for its threads before declaring the
#: scenario wedged (a deadlock guard; it never adds modelled time)
DEADLOCK_TIMEOUT = 60.0
#: real seconds between the driver's quiescence polls
POLL = 0.0005
#: admission starts admitting everything until the controller tightens
LATENESS_FACTOR = float("inf")
MAX_IN_FLIGHT = 64
#: breach events are ignored below this many completions in the window
MIN_WINDOW_COUNT = 6

#: scenario-scale guard/limit presets: small windows so refits and
#: reconfigurations happen within a few hundred scripted queries
SCENARIO_GUARDS = RecalGuards(
    min_samples=16, min_r2=0.5, max_step=0.5, refit_interval=24, window=128
)
SCENARIO_LIMITS = ControllerLimits(
    min_lateness_factor=0.02,
    max_lateness_factor=2.0,
    tighten_factor=0.05,
    cooldown=0.25,
    hysteresis=0.02,
    max_reconfigs=64,
)


class SteppedClock:
    """A discrete-event clock shared by real threads.

    ``sleep`` registers the caller as a *sleeper* and parks it until
    the driver calls :meth:`release_next`, which advances time to the
    earliest wake-up and releases exactly that one thread (ties broken
    deterministically by thread name).  ``advance`` moves time without
    releasing anyone — used for arrivals that precede every wake-up;
    sleepers due at exactly the arrival time stay parked until
    released, giving arrivals-first ordering at equal times.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._t = 0.0
        #: thread name -> (wake_at, registration token).  The token
        #: distinguishes *this* parking from the thread's next one: a
        #: released worker can finish its task and park again under the
        #: same name before the releaser observes its departure.
        self._sleepers: dict[str, tuple[float, int]] = {}
        self._released: set[int] = set()
        self._next_token = 0

    def now(self) -> float:
        with self._cond:
            return self._t

    def sleep(self, seconds: float) -> None:
        if seconds <= 0.0:
            return
        name = threading.current_thread().name
        with self._cond:
            token = self._next_token
            self._next_token += 1
            self._sleepers[name] = (self._t + seconds, token)
            self._cond.notify_all()
            while token not in self._released:
                self._cond.wait()
            self._released.discard(token)
            del self._sleepers[name]
            self._cond.notify_all()

    def sleeping(self) -> dict[str, float]:
        """Parked threads -> wake-up times (snapshot)."""
        with self._cond:
            return {name: wake for name, (wake, _) in self._sleepers.items()}

    def advance(self, t: float) -> None:
        with self._cond:
            if t < self._t:
                raise ServeError(f"clock cannot go backwards ({t} < {self._t})")
            self._t = t

    def release_next(self) -> tuple[str, float] | None:
        """Advance to the earliest wake-up and release that sleeper.

        Blocks (bounded by :data:`DEADLOCK_TIMEOUT` *real* seconds)
        until the released registration has actually left ``sleep``, so
        a caller can never release the same parking twice."""
        deadline = time.monotonic() + DEADLOCK_TIMEOUT
        with self._cond:
            if not self._sleepers:
                return None
            name, (wake, token) = min(
                self._sleepers.items(), key=lambda kv: (kv[1][0], kv[0])
            )
            if wake > self._t:
                self._t = wake
            self._released.add(token)
            self._cond.notify_all()
            while self._sleepers.get(name, (0.0, -1))[1] == token:
                remaining = deadline - time.monotonic()
                if remaining <= 0:  # pragma: no cover - deadlock guard
                    raise ServeError(f"sleeper {name!r} failed to wake")
                self._cond.wait(timeout=remaining)
            return name, wake


class TruthWorld:
    """Ground truth the engine's estimator does not know.

    ``estimator`` is a production :class:`SystemEstimator` with the
    truth bundle installed; a service time is its step-2 estimate for
    the stage, scaled by a per-family drift multiplier the scenario
    script can change mid-run (regime shifts, diurnal load) and a tiny
    deterministic per-query jitter that keeps every parked wake-up time
    distinct.  Jitter is keyed by submission order (assigned by the
    driver), never by the process-global ``query_id``, so scenario
    histories do not depend on how many queries earlier tests created.
    """

    def __init__(self, config: SystemConfig, bundle: ModelBundle):
        self.estimator = SystemEstimator(config)
        self.estimator.install(bundle)
        self.cpu_mult = 1.0
        self.gpu_mult = 1.0
        self.dict_mult = 1.0
        self._seq: dict[int, int] = {}  # query_id -> submission index

    def assign_seq(self, query_id: int, seq: int) -> None:
        self._seq[query_id] = seq

    def set_drift(
        self,
        cpu: float | None = None,
        gpu: float | None = None,
        dict_: float | None = None,
    ) -> None:
        if cpu is not None:
            self.cpu_mult = cpu
        if gpu is not None:
            self.gpu_mult = gpu
        if dict_ is not None:
            self.dict_mult = dict_

    def _jitter(self, query_id: int) -> float:
        seq = self._seq.get(query_id)
        if seq is None:
            raise ServeError(f"query {query_id} was never sequenced by the driver")
        return 1.0 + (seq % 997) * JITTER

    def translation_time(self, query) -> float:
        t = self.estimator.estimate(query).t_trans
        return t * self.dict_mult * self._jitter(query.query_id)

    def service_time(self, query, target) -> float:
        est = self.estimator.estimate(query)
        if target.kind is QueueKind.CPU:
            if est.t_cpu is None:
                raise SchedulingError(
                    f"query {query.query_id} routed to CPU without a sub-cube"
                )
            t = est.t_cpu * self.cpu_mult
        else:
            t = est.t_gpu[target.n_sm] * self.gpu_mult
        return t * self._jitter(query.query_id)


class TruthExecutor:
    """:class:`~repro.sim.executors.QueryExecutor` that parks workers
    for the query's true service time instead of doing OLAP work.

    Chaos hooks:

    * ``stall(query_id, seconds)`` — that query's processing stage
      takes ``seconds`` longer than the truth (an injected worker
      stall: GC pause, page fault storm, noisy neighbour);
    * the :class:`TruthWorld` drift multipliers model environment
      change underneath the frozen estimates.
    """

    def __init__(self, clock: SteppedClock, truth: TruthWorld):
        self.clock = clock
        self.truth = truth
        self._stalls: dict[int, float] = {}

    def stall(self, query_id: int, seconds: float) -> None:
        if seconds < 0:
            raise ServeError(f"stall must be >= 0, got {seconds}")
        self._stalls[query_id] = seconds

    def translate(self, query):
        self.clock.sleep(self.truth.translation_time(query))
        return query

    def execute(self, target, query):
        t = self.truth.service_time(query, target)
        t += self._stalls.pop(query.query_id, 0.0)
        self.clock.sleep(t)
        return None


@dataclass
class ScenarioResult:
    """What one driven scenario produced."""

    submitted: int = 0
    accepted: int = 0
    rejected: list[int] = field(default_factory=list)  # admission-shed query ids
    shed: list[int] = field(default_factory=list)  # backpressure-shed query ids
    #: query_class -> [met_deadline per completed record, arrival order]
    outcomes: dict[str, list[bool]] = field(default_factory=dict)

    def hit_rate(self, query_class: str) -> float:
        outcomes = self.outcomes.get(query_class, [])
        return sum(outcomes) / len(outcomes) if outcomes else 1.0


class ScenarioDriver:
    """Drives a :class:`~repro.serve.engine.ServeEngine` on a
    :class:`SteppedClock` through a scripted arrival schedule.

    The engine must have been built with the same clock instance and a
    parking executor (:class:`TruthExecutor`) over ``truth``, whose
    jitter indices the driver assigns in submission order.
    """

    def __init__(self, engine, clock: SteppedClock, truth: TruthWorld):
        self.engine = engine
        self.clock = clock
        self.truth = truth
        self._seq = 0

    # -- quiescence --------------------------------------------------------

    def _pool_of(self, thread_name: str) -> str | None:
        if not thread_name.startswith("serve-"):
            return None
        # thread names are "serve-{pool}-{seq}"
        return thread_name[len("serve-") :].rsplit("-", 1)[0]

    def _quiescent(self) -> bool:
        parked: dict[str, int] = {}
        for name in self.clock.sleeping():
            pool = self._pool_of(name)
            if pool is not None:
                parked[pool] = parked.get(pool, 0) + 1
        with self.engine._state.cond:
            for name, pool in self.engine.pools.items():
                if pool.in_service != parked.get(name, 0):
                    return False  # a busy worker is between states
                if pool.queue_length > 0 and pool.in_service < pool.capacity:
                    return False  # a queued task will still be picked up
        return True

    def _wait_quiescent(self) -> None:
        deadline = time.monotonic() + DEADLOCK_TIMEOUT
        while not self._quiescent():
            if time.monotonic() > deadline:  # pragma: no cover - deadlock guard
                raise ServeError(
                    "scenario never reached quiescence: "
                    f"sleeping={self.clock.sleeping()!r}"
                )
            time.sleep(POLL)

    # -- stepping ----------------------------------------------------------

    def _step_until(self, t: float) -> None:
        """Process every parked wake-up strictly before ``t``, then
        advance the clock to ``t`` (arrivals beat equal-time wake-ups)."""
        while True:
            self._wait_quiescent()
            sleeping = self.clock.sleeping()
            if not sleeping or min(sleeping.values()) >= t:
                break
            self.clock.release_next()
        self.clock.advance(t)

    def run_until_idle(self) -> None:
        """Release wake-ups until nothing is parked and nothing is in
        flight (the scenario's terminal quiescence)."""
        deadline = time.monotonic() + DEADLOCK_TIMEOUT
        while True:
            self._wait_quiescent()
            if self.clock.release_next() is None:
                if self.engine.in_flight == 0:
                    return
                if time.monotonic() > deadline:  # pragma: no cover
                    raise ServeError(
                        f"{self.engine.in_flight} queries in flight "
                        "with no parked workers"
                    )
                time.sleep(POLL)

    # -- the scenario loop -------------------------------------------------

    def run(
        self,
        arrivals: Iterable[TimedQuery],
        *,
        on_time: Callable[[float], None] | None = None,
    ) -> ScenarioResult:
        """Drive the scripted arrivals to completion.

        ``on_time(t)`` fires before time advances to each arrival
        instant — the hook scenario scripts use for drift changes and
        chaos injection, keyed to modelled time.
        """
        result = ScenarioResult()
        for entry in arrivals:
            if on_time is not None:
                on_time(entry.time)
            self._step_until(entry.time)
            self.truth.assign_seq(entry.query.query_id, self._seq)
            self._seq += 1
            result.submitted += 1
            try:
                outcome = self.engine.submit(
                    entry.query, entry.query_class, block=False
                )
            except BackpressureError:
                result.shed.append(entry.query.query_id)
                continue
            if outcome.accepted:
                result.accepted += 1
            else:
                result.rejected.append(entry.query.query_id)
        self.run_until_idle()
        self.engine.stop(finish_queued=True)
        for record in self.engine.records:
            result.outcomes.setdefault(record.query_class, []).append(
                record.met_deadline
            )
        return result


def retime(stream, times: Sequence[float]):
    """Re-stamp a :class:`~repro.query.workload.QueryStream`'s entries
    with an explicit arrival-time vector (scenario scripts control load
    shape separately from query shape)."""
    entries = list(stream)
    if len(entries) != len(times):
        raise ServeError(
            f"need one time per query, got {len(times)} for {len(entries)}"
        )
    return [e._replace(time=float(t)) for e, t in zip(entries, times)]


def phase_times(phases: Sequence[tuple[float, float]]) -> list[float]:
    """Uniform arrival times from ``(duration_s, rate_qps)`` phases.

    Deterministic by construction: each phase contributes
    ``floor(duration * rate)`` arrivals spaced ``1/rate`` apart.
    Zero-rate phases contribute silence.
    """
    times: list[float] = []
    t0 = 0.0
    for duration, rate in phases:
        if duration < 0 or rate < 0:
            raise ValueError("phase durations and rates must be >= 0")
        if rate > 0:
            n = int(duration * rate)
            times.extend(t0 + i / rate for i in range(n))
        t0 += duration
    return times


def scale_bundle(bundle: ModelBundle, s: float) -> ModelBundle:
    """Uniformly slow a model bundle down by ``s`` (scenario sizing).

    Scenarios size service capacity relative to the scripted arrival
    rates by scaling *both* the estimator's models and the truth world
    — estimates stay honest; only the capacity/load ratio changes.
    """
    cpu = bundle.cpu
    model = cpu.model
    scaled_cpu = CPUPerfModel(
        model=PiecewiseModel(
            breakpoint=model.breakpoint,
            below=PowerLawModel(a=model.below.a * s, p=model.below.p),
            above=LinearModel(a=model.above.a * s, b=model.above.b * s),
        ),
        threads=cpu.threads,
        dispatch_overhead=cpu.dispatch_overhead * s,
    )
    gpu = LinearColumnTiming(
        coefficients={
            n: (a * s, b * s) for n, (a, b) in bundle.gpu.coefficients.items()
        }
    )
    return ModelBundle(
        cpu=scaled_cpu,
        dict_model=DictPerfModel(cost_per_entry=bundle.dict_model.cost_per_entry * s),
        gpu=gpu,
    )


@dataclass
class ScenarioKit:
    """Everything one scripted scenario run needs, pre-wired."""

    clock: SteppedClock
    truth: TruthWorld
    executor: TruthExecutor
    plane: AdaptivePlane | None
    engine: ServeEngine
    driver: ScenarioDriver
    arrivals: list[TimedQuery]
    on_time: Callable[[float], None] | None = None

    def run(self):
        """Drive the scripted arrivals; returns the ScenarioResult."""
        return self.driver.run(self.arrivals, on_time=self.on_time)


def build_kit(
    *,
    arrivals: list[TimedQuery],
    adaptive: bool | AdaptivePlane = True,
    time_constraint: float = 0.25,
    slo_window: float = 5.0,
    service_scale: float = 1.0,
    collector=None,
    metrics=None,
) -> ScenarioKit:
    """Wire one scenario engine on a stepped clock.

    The engine's estimator and the truth world's are both production
    :class:`SystemEstimator` objects with the same bundle installed, so
    truth equals estimate until a script sets a drift.  With
    ``adaptive=False`` no plane is attached at all — the frozen-model
    baseline arm; a ready :class:`AdaptivePlane` is attached as given
    in place of the scenario-preset one.  ``collector`` and ``metrics``
    are handed to the engine as they are.
    """
    config = paper_system_config(
        include_32gb=False,
        scheduler_factory=lambda *args: AdmissionControlScheduler(
            *args, lateness_factor=LATENESS_FACTOR
        ),
        time_constraint=time_constraint,
    )
    timing = config.device.timing
    if not isinstance(timing, LinearColumnTiming):
        # the default device times by memory bandwidth; scenarios need
        # the refittable per-SM linear family, so fall back to the
        # published Tesla C2070 lines
        timing = TESLA_C2070_TIMING
    bundle = ModelBundle(
        cpu=config.cpu_model, dict_model=config.dict_model, gpu=timing
    )
    if service_scale != 1.0:
        bundle = scale_bundle(bundle, service_scale)
    estimator = SystemEstimator(config)
    estimator.install(bundle)
    clock = SteppedClock()
    truth = TruthWorld(config, bundle)
    executor = TruthExecutor(clock, truth)
    plane = adaptive if isinstance(adaptive, AdaptivePlane) else None
    if plane is None and adaptive:
        plane = AdaptivePlane(
            window=slo_window,
            guards=SCENARIO_GUARDS,
            limits=SCENARIO_LIMITS,
            min_window_count=MIN_WINDOW_COUNT,
        )
    engine = ServeEngine(
        config,
        clock=clock,
        executor=executor,
        estimator=estimator,
        max_in_flight=MAX_IN_FLIGHT,
        adapt=plane,
        collector=collector,
        metrics=metrics,
    ).start()
    return ScenarioKit(
        clock=clock,
        truth=truth,
        executor=executor,
        plane=plane,
        engine=engine,
        driver=ScenarioDriver(engine, clock, truth),
        arrivals=arrivals,
    )


def _tenants(
    entries: Sequence[TimedQuery], classes: Sequence[str]
) -> list[TimedQuery]:
    """Round-robin tenant labels over a retimed stream."""
    return [
        e._replace(query_class=classes[i % len(classes)])
        for i, e in enumerate(entries)
    ]


def _workload_entries(
    times: list[float], *, text_prob: float, seed: int
) -> list[TimedQuery]:
    stream = paper_workload(
        include_32gb=False, text_prob=text_prob, seed=seed
    ).generate(len(times))
    return retime(stream, times)


def spike_scenario(*, adaptive: bool = True, collector=None, metrics=None) -> ScenarioKit:
    """The headline: a 3x open-loop spike against a premium/batch mix.

    Load runs at 9 q/s for 8 s, spikes 3x to 27 q/s for 8 s, then
    recovers at 9 q/s for 14 s.  Service capacity is sized (via
    ``service_scale``) so the base load is comfortable and the spike is
    not — without shedding, queues grow without bound and the premium
    class breaches its 0.9 deadline SLO.  The adaptive arm must tighten
    admission (shedding provably-late work) and grow the translation
    pool fast enough that *completed* premium queries stay >= 0.9.
    """
    times = phase_times([(8.0, 9.0), (8.0, 27.0), (14.0, 9.0)])
    entries = _tenants(
        _workload_entries(times, text_prob=0.15, seed=42), ("premium", "batch")
    )
    return build_kit(
        arrivals=entries,
        adaptive=adaptive,
        time_constraint=0.4,
        slo_window=1.0,
        service_scale=17.0,
        collector=collector,
        metrics=metrics,
    )


#: the regime shift: from this modelled time on, true CPU/GPU times grow
SHIFT_AT = 10.0
GROWTH = 1.8


def regime_shift_scenario() -> ScenarioKit:
    """Data growth mid-run: true GPU/CPU times jump by :data:`GROWTH`.

    Before the shift the models are exact; after it every estimate is
    low by the growth factor.  The recalibrator must walk the installed
    models toward the new truth (max-step clamped, so over several
    epochs)."""
    times = phase_times([(30.0, 12.0)])
    entries = _tenants(
        _workload_entries(times, text_prob=0.2, seed=7), ("premium", "batch")
    )
    kit = build_kit(arrivals=entries, time_constraint=0.3, slo_window=4.0)

    def on_time(t: float) -> None:
        if t >= SHIFT_AT:
            kit.truth.set_drift(cpu=GROWTH, gpu=GROWTH)

    kit.on_time = on_time
    return kit


def diurnal_scenario() -> ScenarioKit:
    """A slow wave: quiet -> busy -> peak -> busy -> quiet.

    The controller may act near the peak but must not thrash: the
    cooldown and hysteresis bounds keep the reconfiguration count far
    below one action per SLO event."""
    times = phase_times(
        [(5.0, 6.0), (5.0, 12.0), (6.0, 20.0), (5.0, 12.0), (5.0, 6.0)]
    )
    entries = _tenants(
        _workload_entries(times, text_prob=0.15, seed=11), ("premium", "batch")
    )
    return build_kit(
        arrivals=entries, time_constraint=0.4, slo_window=1.0, service_scale=17.0
    )


def adversary_scenario() -> ScenarioKit:
    """Estimate poisoning: truth decouples 8x from the models mid-run
    and the feedback channel is additionally salted with non-finite
    samples (injected by the test via ``plane.on_feedback``).  The
    guards must hold: every installed epoch stays inside the max-step
    clamp and poisoned samples never reach a window."""
    times = phase_times([(24.0, 10.0)])
    entries = _tenants(
        _workload_entries(times, text_prob=0.25, seed=13), ("premium", "batch")
    )
    kit = build_kit(arrivals=entries, time_constraint=0.3, slo_window=4.0)

    def on_time(t: float) -> None:
        if t >= 8.0:
            kit.truth.set_drift(cpu=8.0, gpu=8.0, dict_=8.0)

    kit.on_time = on_time
    return kit


def multi_tenant_scenario() -> ScenarioKit:
    """Three tenant classes (premium/standard/batch) sharing the engine
    through one load hump; per-class deadline-hit accounting comes from
    the :class:`ScenarioResult`."""
    times = phase_times([(6.0, 8.0), (6.0, 20.0), (8.0, 8.0)])
    entries = _tenants(
        _workload_entries(times, text_prob=0.15, seed=17),
        ("premium", "standard", "batch"),
    )
    return build_kit(
        arrivals=entries, time_constraint=0.4, slo_window=1.0, service_scale=17.0
    )
