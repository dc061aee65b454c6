"""Scripted scenarios for the deterministic adapt harness.

Each builder returns a fully wired :class:`ScenarioKit` — config,
stepped clock, truth world, parking executor, hot-swappable estimator,
adapt plane, engine and driver — plus the scripted arrival schedule.
Tests (and the adaptive golden master / BENCH-ADAPT benchmark) run a
kit with ``kit.driver.run(kit.arrivals, on_time=kit.on_time)`` and
assert on the resulting records, epochs and reconfigurations; the
whole run is a pure function of the builder arguments.

The library of scripts mirrors the failure modes an adaptive OLAP
front door actually faces:

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

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.adapt.controller import ControllerLimits
from repro.adapt.plane import AdaptivePlane
from repro.adapt.recalibrate import RecalGuards
from repro.adapt.scenario import (
    ScenarioDriver,
    ScenarioEstimator,
    SteppedClock,
    TruthExecutor,
    TruthWorld,
    retime,
)
from repro.core.admission import AdmissionControlScheduler
from repro.gpu.timing import TESLA_C2070_TIMING, LinearColumnTiming
from repro.paper import paper_system_config, paper_workload
from repro.query.workload import TimedQuery
from repro.serve.engine import ServeEngine
from repro.sim.system import ModelBundle, SystemConfig

__all__ = [
    "ScenarioKit",
    "build_kit",
    "phase_times",
    "spike_scenario",
    "regime_shift_scenario",
    "diurnal_scenario",
    "adversary_scenario",
    "multi_tenant_scenario",
]


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
    from repro.core.perfmodel import (
        CPUPerfModel,
        LinearModel,
        PiecewiseModel,
        PowerLawModel,
    )

    cpu = bundle.cpu
    model = cpu.model
    if not isinstance(model, PiecewiseModel):  # pragma: no cover
        raise TypeError("scale_bundle needs a piecewise CPU model")
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
    from repro.core.perfmodel import DictPerfModel

    return ModelBundle(
        cpu=scaled_cpu,
        dict_model=DictPerfModel(cost_per_entry=bundle.dict_model.cost_per_entry * s),
        gpu=gpu,
    )


def _tenants(
    entries: Sequence[TimedQuery], classes: Sequence[str]
) -> list[TimedQuery]:
    """Round-robin tenant labels over a retimed stream."""
    return [
        e._replace(query_class=classes[i % len(classes)])
        for i, e in enumerate(entries)
    ]


@dataclass
class ScenarioKit:
    """Everything one scripted scenario run needs, pre-wired."""

    config: SystemConfig
    clock: SteppedClock
    truth: TruthWorld
    executor: TruthExecutor
    estimator: ScenarioEstimator
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
    time_constraint: float = 0.25,
    lateness_factor: float = float("inf"),
    translation_workers: int = 1,
    adaptive: bool | AdaptivePlane = True,
    target: float = 0.9,
    slo_window: float = 5.0,
    guards: RecalGuards | None = None,
    limits: ControllerLimits | None = None,
    truth_cpu: float = 1.0,
    truth_gpu: float = 1.0,
    truth_dict: float = 1.0,
    service_scale: float = 1.0,
    max_in_flight: int | None = 64,
    min_window_count: int = 6,
    collector=None,
    metrics=None,
    on_time: Callable[[float], None] | None = None,
) -> ScenarioKit:
    """Wire one scenario engine on a stepped clock.

    ``lateness_factor`` seeds the admission scheduler (``inf`` = admit
    everything until the controller tightens).  ``truth_*`` set the
    initial drift between the estimator's models and reality.  With
    ``adaptive=False`` no plane is attached at all — the frozen-model
    baseline arm; a ready :class:`AdaptivePlane` is attached as given
    in place of the scenario-preset one.
    """
    config = paper_system_config(
        include_32gb=False,
        scheduler_factory=lambda *args: AdmissionControlScheduler(
            *args, lateness_factor=lateness_factor
        ),
        time_constraint=time_constraint,
    )
    if translation_workers != config.translation_workers:
        config = replace(config, translation_workers=translation_workers)
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
    estimator = ScenarioEstimator(config, bundle)
    clock = SteppedClock()
    truth = TruthWorld(estimator.features, bundle)
    truth.set_drift(cpu=truth_cpu, gpu=truth_gpu, dict_=truth_dict)
    executor = TruthExecutor(clock, truth)
    plane = adaptive if isinstance(adaptive, AdaptivePlane) else None
    if plane is None and adaptive:
        plane = AdaptivePlane(
            target=target,
            window=slo_window,
            guards=guards if guards is not None else _SCENARIO_GUARDS,
            limits=limits if limits is not None else _SCENARIO_LIMITS,
            min_window_count=min_window_count,
        )
    engine = ServeEngine(
        config,
        clock=clock,
        executor=executor,
        estimator=estimator,
        collector=collector,
        metrics=metrics,
        max_in_flight=max_in_flight,
        adapt=plane,
    ).start()
    driver = ScenarioDriver(engine, clock, truth=truth)
    return ScenarioKit(
        config=config,
        clock=clock,
        truth=truth,
        executor=executor,
        estimator=estimator,
        plane=plane,
        engine=engine,
        driver=driver,
        arrivals=arrivals,
        on_time=on_time,
    )


#: scenario-scale guard/limit presets: small windows so refits and
#: reconfigurations happen within a few hundred scripted queries
_SCENARIO_GUARDS = RecalGuards(
    min_samples=16, min_r2=0.5, max_step=0.5, refit_interval=24, window=128
)
_SCENARIO_LIMITS = ControllerLimits(
    min_lateness_factor=0.02,
    max_lateness_factor=2.0,
    tighten_factor=0.05,
    cooldown=0.25,
    hysteresis=0.02,
    max_reconfigs=64,
)


def _workload_entries(
    n: int, times: list[float], *, text_prob: float = 0.2, seed: int = 42
) -> list[TimedQuery]:
    stream = paper_workload(
        include_32gb=False, text_prob=text_prob, seed=seed
    ).generate(n)
    return retime(stream, times[:n])


def spike_scenario(
    *, adaptive: bool = True, collector=None, metrics=None, seed: int = 42
) -> ScenarioKit:
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
        _workload_entries(len(times), times, text_prob=0.15, seed=seed),
        ("premium", "batch"),
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


def regime_shift_scenario(
    *, adaptive: bool = True, shift_at: float = 10.0, growth: float = 1.8,
    collector=None, metrics=None, seed: int = 7
) -> ScenarioKit:
    """Data growth mid-run: true GPU/CPU times jump by ``growth``.

    Before the shift the models are exact; after it every estimate is
    low by the growth factor.  The recalibrator must walk the installed
    models toward the new truth (max-step clamped, so over several
    epochs)."""
    times = phase_times([(30.0, 12.0)])
    entries = _tenants(
        _workload_entries(len(times), times, text_prob=0.2, seed=seed),
        ("premium", "batch"),
    )
    kit = build_kit(
        arrivals=entries,
        adaptive=adaptive,
        time_constraint=0.3,
        slo_window=4.0,
        collector=collector,
        metrics=metrics,
    )

    def on_time(t: float) -> None:
        if t >= shift_at:
            kit.truth.set_drift(cpu=growth, gpu=growth)

    kit.on_time = on_time
    return kit


def diurnal_scenario(
    *, adaptive: bool = True, collector=None, metrics=None, seed: int = 11
) -> ScenarioKit:
    """A slow wave: quiet -> busy -> peak -> busy -> quiet.

    The controller may act near the peak but must not thrash: the
    cooldown and hysteresis bounds keep the reconfiguration count far
    below one action per SLO event."""
    times = phase_times(
        [(5.0, 6.0), (5.0, 12.0), (6.0, 20.0), (5.0, 12.0), (5.0, 6.0)]
    )
    entries = _tenants(
        _workload_entries(len(times), times, text_prob=0.15, seed=seed),
        ("premium", "batch"),
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


def adversary_scenario(
    *, adaptive: bool = True, collector=None, metrics=None, seed: int = 13
) -> ScenarioKit:
    """Estimate poisoning: truth decouples 8x from the models mid-run
    and the feedback channel is additionally salted with non-finite
    samples (injected by the test via ``plane.on_feedback``).  The
    guards must hold: every installed epoch stays inside the max-step
    clamp and poisoned samples never reach a window."""
    times = phase_times([(24.0, 10.0)])
    entries = _tenants(
        _workload_entries(len(times), times, text_prob=0.25, seed=seed),
        ("premium", "batch"),
    )
    kit = build_kit(
        arrivals=entries,
        adaptive=adaptive,
        time_constraint=0.3,
        slo_window=4.0,
        collector=collector,
        metrics=metrics,
    )

    def on_time(t: float) -> None:
        if t >= 8.0:
            kit.truth.set_drift(cpu=8.0, gpu=8.0, dict_=8.0)

    kit.on_time = on_time
    return kit


def multi_tenant_scenario(
    *, adaptive: bool = True, collector=None, metrics=None, seed: int = 17
) -> ScenarioKit:
    """Three tenant classes (premium/standard/batch) sharing the engine
    through one load hump; per-class deadline-hit accounting comes from
    the :class:`~repro.adapt.scenario.ScenarioResult`."""
    times = phase_times([(6.0, 8.0), (6.0, 20.0), (8.0, 8.0)])
    entries = _tenants(
        _workload_entries(len(times), times, text_prob=0.15, seed=seed),
        ("premium", "standard", "batch"),
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
