"""The hybrid OLAP system model: scheduler + partitions + translation.

:class:`HybridSystem` wires every subsystem into the evaluation loop of
Section IV:

* the :class:`~repro.core.scheduler.HybridScheduler` (or a baseline)
  decides placement using the calibrated performance models;
* :class:`~repro.core.partitions.PartitionQueue` objects carry the
  scheduler's :math:`T_Q` beliefs;
* :class:`~repro.sim.resources.Server` objects realise service in
  simulated time — CPU cube processing, GPU partition scans, and the
  translation partition's dictionary searches;
* a :class:`~repro.sim.executors.QueryExecutor` does each stage's work
  at its simulated finish — the same object code the serving plane's
  workers run;
* :class:`~repro.core.feedback.FeedbackController` closes the
  measured-vs-estimated loop.

Two execution modes share all of the above:

* **analytic** (paper scale): the pyramid is analytic, the device holds
  a :class:`~repro.gpu.device.TableDescriptor`; only timing flows
  (:class:`~repro.sim.executors.NullExecutor`).
* **materialised** (laptop scale): real cubes and a real fact table;
  every completed query also carries its answer
  (:class:`~repro.sim.executors.MaterialisedExecutor`), and the
  integration tests assert CPU-path and GPU-path answers agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

import numpy as np

from repro.core.perfmodel import CPUPerfModel, DictPerfModel, PAPER_DICT_MODEL
from repro.core.scheduler import BaseScheduler, HybridScheduler, QueryEstimates
from repro.errors import (
    DimensionError,
    SimulationError,
    TranslationError,
)
from repro.gpu.device import SimulatedGPU
from repro.gpu.partitioning import PartitionScheme
from repro.olap.pyramid import CubePyramid
from repro.query.model import Query, dimension_column
from repro.query.workload import QueryStream
from repro.sim.engine import SimulationEngine
from repro.sim.executors import MaterialisedExecutor, NullExecutor, QueryExecutor
from repro.sim.lifecycle import QueryLifecycle
from repro.sim.metrics import SystemReport
from repro.sim.obs import TraceCollector
from repro.sim.resources import Job, Server
from repro.text.translator import TranslationService
from repro.units import bytes_to_mb

__all__ = ["SystemConfig", "HybridSystem", "SystemEstimator", "ModelBundle"]

SchedulerFactory = Callable[..., BaseScheduler]


@dataclass(frozen=True)
class ModelBundle:
    """The hot-swappable model families a :class:`SystemEstimator` reads.

    One frozen value object holds all three families so the online
    recalibrator (:mod:`repro.adapt`) can replace them with a *single*
    attribute assignment — decisions concurrent with a swap see either
    the whole old bundle or the whole new one, never a mix.

    ``gpu`` is a :class:`~repro.gpu.timing.LinearColumnTiming` (or any
    ``GPUTimingModel``); ``None`` delegates GPU estimates to the
    configured device's own timing model, which is the frozen-model
    behaviour and keeps unadapted runs bit-identical.
    """

    cpu: CPUPerfModel
    dict_model: DictPerfModel
    gpu: object | None = None


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to instantiate one system variant.

    Attributes
    ----------
    cpu_model:
        :math:`P_{CPU}` for the CPU OLAP partition (eq. 7/10 preset or a
        calibrated fit).
    pyramid:
        The pre-calculated cube set of one measure (analytic or
        materialised).  Queries on any other measure get no CPU
        estimate (``CubePyramid.select_level`` refuses them), so the
        scheduler places them on a GPU partition.
    device:
        The simulated GPU with its fact table loaded.
    scheme:
        SM partitioning of the device (the paper's 2x1+2x2+2x4 default).
    dict_model:
        :math:`P_{DICT}` (eq. 17) used for :math:`T_{TRANS}` estimates
        and realised translation service times.
    translation_service:
        Real per-column dictionaries (materialised mode); supplies both
        dictionary lengths and actual literal-to-code translation.
    dict_lengths:
        Column -> :math:`D_L` map for analytic mode (no real
        dictionaries needed to *time* translation).
    time_constraint:
        :math:`T_C`, the relative deadline every query receives.
    scheduler_factory:
        Constructor called as ``factory(cpu_q, gpu_qs, trans_q,
        estimator, T_C)``; defaults to the paper's
        :class:`HybridScheduler`.
    feedback_gain:
        1.0 = paper's full :math:`T_Q` correction; 0.0 = feedback off.
    noise_sigma:
        Lognormal sigma of realised/estimated service-time ratio
        (0 = deterministic, estimates exact).
    noise_bias:
        Multiplicative *systematic* estimation error: realised service
        times are ``bias x estimate x lognormal-noise``.  1.0 = unbiased
        models; 1.5 means every model under-estimates by 50 % — the
        regime the paper's feedback mechanism exists for (*"errors in
        the estimation do not significantly affect the scheduling
        algorithm"*), quantified in the ABL-FEEDBACK benchmark.
    translation_workers:
        Parallel service units on the translation partition.  1 is the
        paper's configuration (a single preprocessing partition, whose
        saturation causes the ~7 % GPU slowdown); higher values model
        the parallel translation the conclusion defers to future work.
        The translation :class:`~repro.sim.resources.Server` gets this
        many parallel units (a single job still takes the full
        :math:`T_{TRANS}`), and the queue's :math:`T_Q` backlog drains
        at ``workers`` jobs at a time (fluid approximation — exact for
        throughput, the quantity the future-work ablation measures).
    seed:
        RNG seed for service-time noise.
    """

    cpu_model: CPUPerfModel
    pyramid: CubePyramid
    device: SimulatedGPU
    scheme: PartitionScheme
    dict_model: DictPerfModel = PAPER_DICT_MODEL
    translation_service: TranslationService | None = None
    dict_lengths: Mapping[str, int] | None = None
    time_constraint: float = 0.5
    scheduler_factory: SchedulerFactory = HybridScheduler
    feedback_gain: float = 1.0
    noise_sigma: float = 0.0
    noise_bias: float = 1.0
    translation_workers: int = 1
    seed: int = 2012

    def __post_init__(self) -> None:
        if self.time_constraint <= 0:
            raise SimulationError("time_constraint must be > 0")
        if self.noise_sigma < 0:
            raise SimulationError("noise_sigma must be >= 0")
        if self.noise_bias <= 0:
            raise SimulationError("noise_bias must be > 0")
        if self.translation_workers < 1:
            raise SimulationError("translation_workers must be >= 1")
        self.scheme.validate_for(self.device)


class SystemEstimator:
    """Step-2 estimates from the configured performance models.

    One feature pass (:meth:`features`) turns a query into the three
    model inputs, and :meth:`estimate` evaluates each model on them.
    """

    def __init__(self, config: SystemConfig):
        self._config = config
        self._total_columns = config.device.descriptor.total_columns
        self._sm_counts = config.scheme.distinct_sm_counts
        self._hierarchies = config.device.descriptor.schema.hierarchies
        self._pyramid_dims = {d.name: d for d in config.pyramid.dimensions}
        self._dims, self._bases, self._all_levels = self._build_static(
            config.pyramid, self._hierarchies
        )
        # The live model bundle.  Every estimate reads this slot once;
        # install() replaces it wholesale, so a reader mid-swap sees one
        # coherent epoch.  Until install() is ever called the bundle
        # simply mirrors the frozen config (gpu=None delegates to the
        # device), keeping unadapted runs bit-identical to history.
        self._models = ModelBundle(
            cpu=config.cpu_model, dict_model=config.dict_model, gpu=None
        )

    # -- live models (online recalibration) ---------------------------------

    def models(self) -> ModelBundle:
        """The bundle currently answering estimates."""
        return self._models

    def install(self, bundle: ModelBundle) -> None:
        """Hot-swap the live models in one atomic attribute write.

        Callers serialise installs against decisions externally (the
        serving engine's lock; the simulator's single thread) — this
        method itself is a single reference assignment, so even an
        unserialised reader can never observe a torn bundle.
        """
        self._models = bundle

    @staticmethod
    def _build_static(pyramid: CubePyramid, hierarchies):
        """One-time tables of the feature pass, from immutable config.

        Returns ``(dims, bases, all_levels)``.  ``dims[name] = (cols,
        masks, per_level)`` for every fact-table dimension: the column
        per resolution; per resolution, the bitmask of the pyramid
        levels (smallest first, the selection order) fine enough to
        answer it — 0 throughout for a dimension the pyramid lacks; and
        per level ``(resolution, cardinality, cardinalities_per_res)``.
        ``bases[lvl]`` is the level's
        *full* cube size in bytes; a condition replaces its dimension's
        cardinality with its width by exact integer division, so the
        product equals ``CubePyramid.subcube_size_mb``'s.
        """
        levels = pyramid.levels
        bases = tuple(pyramid.level_nbytes(level) for level in levels)
        in_pyramid = {d.name: (j, d) for j, d in enumerate(pyramid.dimensions)}
        dims = {}
        for name, h in hierarchies.items():
            cols = tuple(dimension_column(name, lvl.name) for lvl in h.levels)
            j, d = in_pyramid.get(name, (None, None))
            if d is None:
                dims[name] = (cols, (0,) * len(cols), None)
                continue
            res_by_level = [level.resolutions[j] for level in levels]
            masks = tuple(
                sum(1 << i for i, lr in enumerate(res_by_level) if lr >= r)
                for r in range(len(cols))
            )
            cards = tuple(lvl.cardinality for lvl in d.levels)
            dims[name] = (cols, masks, tuple((r, cards[r], cards) for r in res_by_level))
        return dims, bases, (1 << len(levels)) - 1

    def dictionary_length(self, column: str) -> int:
        cfg = self._config
        if cfg.translation_service is not None:
            return cfg.translation_service.dictionary_length(column)
        if cfg.dict_lengths is not None and column in cfg.dict_lengths:
            return int(cfg.dict_lengths[column])
        raise TranslationError(
            f"no dictionary length known for column {column!r}; configure "
            "translation_service or dict_lengths"
        )

    def _reject(self, dimension: str, resolution: int, role: str):
        """Raise for an unknown dimension, or the hierarchy's own error
        for a resolution it lacks."""
        hierarchy = self._hierarchies.get(dimension)
        if hierarchy is None:
            raise DimensionError(f"{role} references unknown dimension {dimension!r}")
        hierarchy.check_resolution(resolution)

    def features(self, query: Query):
        """The step-2 feature pass: ``(sc_mb, column_fraction,
        text_terms)`` for any query, or the exception the reference
        path raises.

        ``sc_mb`` is :math:`SC_{size}` (eq. 3) of the smallest pyramid
        level able to answer the query, ``None`` when none can
        (Section III-C: the query must go to the GPU); the column
        fraction is :math:`C_{Q_D} / C_{TOTAL}` (eq. 12-13);
        ``text_terms`` is ``[(num_literals, dictionary_length), ...]``
        in condition order, the eq. 18 sum's terms.  The reference is
        ``CubePyramid.subcube_size_mb`` + ``decompose`` + eq. 18 over
        ``dictionary_length``: the maths is integer until the final
        ``bytes_to_mb`` and division, so the floats are identical.  The
        online recalibrator pairs the same tuple with realised
        latencies.
        """
        dims = self._dims
        # the measure rule: off-measure queries have no answering level
        mask = self._all_levels if self._config.pyramid.aggregates(query) else 0
        conditions = query.conditions
        picks = []  # (condition, its dimension's per-level table)
        text: list[tuple] = []  # (literal count, column), then (.., its D_L)
        for cond in conditions:
            entry = dims.get(cond.dimension)
            res = cond.resolution
            if entry is None or res >= len(entry[0]):
                self._reject(cond.dimension, res, "query condition")
            mask &= entry[1][res]
            picks.append((cond, entry[2]))
            if cond.text_values:
                text.append((len(cond.text_values), entry[0][res]))
        # conditions have unique dimensions, so each reads one distinct
        # column; a group-by column is read once even if also filtered
        ncols = len(conditions)
        if query.group_by:
            columns = {dims[c.dimension][0][c.resolution] for c in conditions}
            for dim, res in query.group_by:
                entry = dims.get(dim)
                if entry is None or res >= len(entry[0]):
                    self._reject(dim, res, "group-by")
                mask &= entry[1][res]
                columns.add(entry[0][res])
            ncols = len(columns)
        if query.agg != "count":
            ncols += len(query.measures)
        sc_mb: float | None = None
        if mask:
            lvl = (mask & -mask).bit_length() - 1  # the smallest answering level
            n = self._bases[lvl]
            for cond, per_level in picks:
                r, card_r, cards = per_level[lvl]
                if cond.lo is not None:  # numeric range
                    lo, hi = cond.lo, cond.hi
                    if r != cond.resolution:
                        lo, hi = self._pyramid_dims[cond.dimension].refine_range(
                            lo, hi, cond.resolution, r
                        )
                    width = hi - lo
                elif cond.codes:
                    width = len(set(cond.codes)) * (card_r // cards[cond.resolution])
                else:  # text literals resolved natively by the CPU
                    width = len(set(cond.text_values)) * (card_r // cards[cond.resolution])
                # swap this dimension's full cardinality for the width
                n = n // card_r * width
            sc_mb = bytes_to_mb(n)
        # dictionary lengths last: the reference raises a bad range first
        if text:
            text = [(count, self.dictionary_length(column)) for count, column in text]
        return sc_mb, ncols / self._total_columns, text

    def estimate(self, query: Query) -> QueryEstimates:
        """Step 2 for one query: each model on :meth:`features`."""
        models = self._models  # one read: estimates use one coherent epoch
        sc_mb, frac, terms = self.features(query)
        t_cpu = None if sc_mb is None else models.cpu.time(sc_mb)
        gpu = self._config.device.timing if models.gpu is None else models.gpu
        t_gpu = {n_sm: gpu.query_time(frac, n_sm) for n_sm in self._sm_counts}
        # Translation (Section III-F): eq. 18 upper bound.  This is the
        # full single-job service time: parallel translation workers do
        # not make one translation faster — they are modelled as extra
        # service units on the translation Server and a proportionally
        # faster-draining Q_TRANS backlog (PartitionQueue.capacity).
        t_trans = 0.0
        for count, d_l in terms:
            t_trans += count * models.dict_model.time(d_l)
        return QueryEstimates(t_cpu=t_cpu, t_gpu=t_gpu, t_trans=t_trans)

    def estimate_batch(self, queries) -> list[QueryEstimates]:
        """Step-2 estimates for a whole batch: :meth:`estimate` per
        query, so the batch equals the loop by construction."""
        return [self.estimate(q) for q in queries]


class HybridSystem:
    """Runs query streams through the full hybrid system in simulated time."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.estimator = SystemEstimator(config)
        #: the work of each stage: real answers over a materialised
        #: config (``cpu_threads=1`` is the sequential reduction), no-op
        #: work — timing only — over an analytic one
        self.executor: QueryExecutor = (
            MaterialisedExecutor(config, cpu_threads=1)
            if MaterialisedExecutor.missing(config) is None
            else NullExecutor()
        )

    # -- service-time realisation -----------------------------------------

    def _noise(self, rng: np.random.Generator) -> float:
        sigma = self.config.noise_sigma
        bias = self.config.noise_bias
        if sigma == 0.0:
            return bias
        # mean-`bias` lognormal: sigma adds jitter, bias adds systematic
        # estimation error
        return bias * float(rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))

    # -- the run ------------------------------------------------------------

    def run(
        self,
        stream: QueryStream,
        collector: TraceCollector | None = None,
        metrics=None,
        snapshots=None,
        rollup=None,
        batch_size: int | None = None,
        adapt=None,
        spans=None,
    ) -> SystemReport:
        """Simulate one query stream; returns the aggregated report.

        The run is the discrete-event *driver* of one
        :class:`~repro.sim.lifecycle.QueryLifecycle`: the core owns the
        queue books, the scheduler, the records and the stage stream
        the attached views subscribe to; this method owns the event
        heap, the :class:`~repro.sim.resources.Server` stations,
        service-time noise and the batch arrival buffer, and realises
        each stage's work through :attr:`executor`.
        ``collector``, ``metrics``, ``rollup``, ``adapt`` and ``spans``
        are attachments handed to that core.

        ``collector`` attaches a :class:`~repro.sim.obs.TraceCollector`
        to the run's stage stream.  Tracing is read-only: the
        returned report is identical with or without a collector.

        ``metrics`` attaches a :class:`~repro.metrics.registry.
        MetricsRegistry`: the same families the serving engine exports
        get fed from simulated-time events — the ``repro_pool_*``
        families from the admissions and the :class:`~repro.sim.
        resources.Server` start/finish hooks — so one dashboard/
        validation path covers both planes.  ``snapshots`` (a :class:`~repro.
        metrics.snapshots.SnapshotWriter` over the same registry) is
        ticked at every arrival and completion — simulated time stands
        in for the clock, making snapshot cadence fully deterministic.
        Both are read-only like the collector.

        ``rollup`` attaches a :class:`~repro.olap.rollup.RollupRouter`:
        arrivals the catalog covers are answered at their arrival
        instant (the simulated analogue of a microsecond cache hit —
        zero simulated cost), land in :attr:`SystemReport.cache_hits`
        and never reach the scheduler; misses proceed through Figure 10
        untouched.  When ``metrics`` is also given, a
        :class:`~repro.metrics.instrument.RollupMetrics` subscribes to
        the run's stage stream.

        ``adapt`` attaches an :class:`~repro.adapt.plane.AdaptivePlane`
        as the last subscriber of the same stream: the online
        recalibrator consumes this run's estimate/decision/feedback
        stages and may hot-swap refitted models into the estimator;
        the capacity controller acts on SLO breach/recover events fed
        by every finished query, cache hits included (admission
        tightening only in simulation — partition re-splits and worker
        resizes are serve-plane actuators).  Its refits, model epochs
        and reconfigurations are stages of the stream too, traced by
        ``collector`` and counted in ``metrics``.  ``adapt=None`` leaves
        the run byte-identical to an unadapted one.

        ``spans`` attaches a :class:`~repro.obs.span.SpanTracer` (the
        distributed span plane): one ``sim.query`` root span per
        head-sampled admitted query, with ``scheduler.estimate`` /
        ``scheduler.decision`` point spans and ``queue.wait`` /
        ``pool.service`` stage spans booked from the realised simulated
        timeline (:class:`~repro.obs.hooks.QuerySpans`).  The tracer's
        clock is re-bound to simulated time, so span timelines are
        deterministic and live in the report's timebase.  Read-only
        like every other view.

        ``batch_size`` coarsens the admission cadence: arrivals buffer
        (after their arrival events and rollup lookups fire at arrival
        time) until ``batch_size`` of them need a decision, and the
        whole buffer is decided, one query at a time, at the
        batch-completing arrival's instant — a trailing partial batch
        flushes with the final arrival.  Buffering changes *when*
        queries are booked, so reports differ from ``batch_size=None``
        exactly as a coarser admission cadence should.
        ``batch_size=1`` flushes every arrival immediately.
        """
        if batch_size is not None and batch_size < 1:
            raise SimulationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        cfg = self.config
        engine = SimulationEngine()
        rng = np.random.default_rng(cfg.seed)
        servers: dict[str, Server] = {}

        def run_stage(stage, station, decision, resolved, done) -> None:
            """Realise one stage as a noisy service on ``station``.

            The stage's work runs on the executor at the simulated
            finish; an exception it raises propagates out of the run.
            """
            if stage == "translation":
                booked = decision.translation
                work = partial(self.executor.translate, resolved)
            else:
                booked = decision.processing
                work = partial(self.executor.execute, decision.target, resolved)
            realised = booked.estimated_time * self._noise(rng)

            def _on_complete(finish: float, job: Job) -> None:
                done(realised, finish, work(), None)
                if stage == "service" and snapshots is not None:
                    snapshots.tick(finish)

            servers[station].submit(
                Job(
                    query_id=decision.query.query_id,
                    service_time=realised,
                    on_complete=_on_complete,
                )
            )

        # simulated-clock domain: every instant the lifecycle core books
        # is an engine.now reading, the same timebase as the report
        core = QueryLifecycle(
            cfg,
            self.estimator,
            now_fn=lambda: engine.now,
            root_span="sim.query",
            run_stage=run_stage,
            collector=collector,
            metrics=metrics,
            rollup=rollup,
            spans=spans,
            adapt=adapt,
        )
        # the translation Server mirrors its queue's parallel units; the
        # paper's CPU and GPU partitions are single service stations
        for name, q in core.queues.items():
            servers[name] = Server(engine, name, capacity=q.capacity)
        subs = core.subscribers
        if subs.on_stage_start or subs.on_stage_finish:
            # station transitions, reported only when a view consumes
            # them: an unobserved run keeps its Server hooks None
            def started(stage: str, station: str, now: float, job: Job) -> None:
                core.stage_started(
                    stage, station, job.query_id, now, job.waiting_time, job.service_time
                )

            def finished(stage: str, station: str, finish: float, job: Job) -> None:
                core.stage_finished(
                    stage,
                    station,
                    job.query_id,
                    job.submitted_at,
                    job.started_at,
                    finish,
                    job.service_time,
                    None,
                )

            for name, server in servers.items():
                stage = "translation" if name == core.trans_queue.name else "service"
                server.on_start = partial(started, stage, name)
                server.on_finish = partial(finished, stage, name)
        if collector is not None:
            collector.bind(core.queues, servers)
            engine.observer = collector.sample
        if adapt is not None:
            # admission lateness is the one actuator a simulation has
            adapt.attach(scheduler=core.scheduler, estimator=self.estimator)

        # arrivals wait here for their decision: one at a time without
        # batch_size, else until batch_size of them passed the arrival
        # half — then one pass decides the whole buffer at the
        # buffer-completing arrival's instant
        pending: list[tuple[Query, str]] = []

        def flush() -> None:
            core.decide(pending, engine.now, dispatch=core.start)
            pending.clear()

        def on_arrival(query: Query, query_class: str) -> None:
            if (
                query.needs_translation
                and cfg.translation_service is None
                and isinstance(self.executor, MaterialisedExecutor)
            ):
                # fail at arrival with a clear message rather than
                # deep inside the executor at stage-finish time
                raise TranslationError(
                    f"query {query.query_id} carries text parameters but "
                    "this materialised run has no translation_service "
                    "configured; text-free workloads run fine without one"
                )
            hit = core.arrive(query, query_class, engine.now)
            if snapshots is not None:
                snapshots.tick(engine.now)
            if hit is None:
                pending.append((query, query_class))
                if len(pending) >= (batch_size or 1):
                    flush()

        last_time: float | None = None
        for timed in stream:
            engine.schedule_at(
                timed.time, partial(on_arrival, timed.query, timed.query_class)
            )
            last_time = timed.time
        if (batch_size or 1) > 1 and last_time is not None:
            # trailing partial batch (only a batch_size > 1 buffer can
            # hold one): the heap's FIFO tie-break fires this after the
            # final arrival at the same instant
            engine.schedule_at(last_time, flush)

        engine.run()

        if snapshots is not None:
            snapshots.write(engine.now)

        return core.report(
            engine.now,
            servers,
            {name: server.capacity for name, server in servers.items()},
            exact_estimates=cfg.noise_sigma == 0.0 and cfg.noise_bias == 1.0,
        )
