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
    CubeNotAvailableError,
    SimulationError,
    TranslationError,
)
from repro.gpu.device import SimulatedGPU
from repro.gpu.partitioning import PartitionScheme
from repro.olap.pyramid import CubePyramid
from repro.query.model import Query, decompose, dimension_column
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

    :meth:`estimate` is the per-query path; :meth:`estimate_batch`
    produces the same :class:`QueryEstimates` — bit-identical floats —
    for a whole batch, amortising the Python-level feature extraction
    and evaluating each model family as one NumPy pass.
    """

    def __init__(self, config: SystemConfig):
        self._config = config
        self._hierarchies = config.device.descriptor.schema.hierarchies
        self._total_columns = config.device.descriptor.total_columns
        # Static lookup tables for the batch fast path (pyramid level
        # tables, dictionary lengths), all derived from immutable config.
        self._dl_cache: dict[str, int] = {}
        self._static = self._build_static()
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

    def _build_static(self):
        """One-time tables for the single-pyramid batch fast path.

        Returns ``(info, bases, n_levels)`` — or ``None`` when the
        configured pyramid has non-monotone per-dimension
        resolutions (O(conditions) level selection would be wrong);
        :meth:`features` then covers no query and :meth:`estimate_batch`
        estimates each one with :meth:`estimate`.

        ``info[dim] = (cols, first_ok, per_level)``: the fact-table
        column per resolution, the smallest answering level index per
        resolution (``None`` when the dimension is absent from the
        pyramid), and per level ``(resolution, cardinality,
        cardinalities_per_res)``, levels smallest-first (the selection
        order).  ``first_ok[r]`` is valid for level selection because
        per-dimension resolutions are non-decreasing across the
        size-sorted levels (checked here).  ``bases[lvl]`` is the
        level's *full* cube size in bytes (cell size times every
        dimension's cardinality); a condition on a dimension replaces
        that dimension's full cardinality with its width via exact
        integer division, so the product equals the scalar path's.
        """
        pyramid = self._config.pyramid
        n_levels = len(pyramid.levels)
        bases = []
        rows_by_dim: dict[str, list[tuple[int, int, tuple[int, ...]]]] = {}
        for level in pyramid.levels:
            base = level.cell_nbytes
            for d, r in zip(pyramid.dimensions, level.resolutions):
                card_r = d.cardinality(r)
                base *= card_r
                cards = tuple(l.cardinality for l in d.levels)
                rows_by_dim.setdefault(d.name, []).append((r, card_r, cards))
            bases.append(base)
        first_ok: dict[str, tuple[int, ...]] = {}
        for j, d in enumerate(pyramid.dimensions):
            res_by_level = [lvl.resolutions[j] for lvl in pyramid.levels]
            if any(a > b for a, b in zip(res_by_level, res_by_level[1:])):
                return None
            first_ok[d.name] = tuple(
                next((i for i, lr in enumerate(res_by_level) if lr >= r), n_levels)
                for r in range(len(d.levels))
            )
        info: dict[str, tuple] = {}
        for dim, h in self._hierarchies.items():
            # fact-table column per (dimension, resolution)
            cols = tuple(dimension_column(dim, lvl.name) for lvl in h.levels)
            fo = first_ok.get(dim)
            rows = rows_by_dim.get(dim)
            if fo is None or rows is None:
                info[dim] = (cols, None, None)
            else:
                info[dim] = (cols, fo, tuple(rows))
        return info, tuple(bases), n_levels

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

    def estimate(self, query: Query) -> QueryEstimates:
        cfg = self._config
        models = self._models  # one read: estimates use one coherent epoch
        # CPU (Section III-B/C): sub-cube size through the pyramid.
        try:
            sc_mb = cfg.pyramid.subcube_size_mb(query)
            t_cpu: float | None = models.cpu.time(sc_mb)
        except CubeNotAvailableError:
            t_cpu = None

        # GPU (Section III-E): column fraction per SM class.
        decomposition = decompose(query, self._hierarchies)
        if models.gpu is None:
            t_gpu = {
                n_sm: cfg.device.estimate_time(decomposition, n_sm)
                for n_sm in cfg.scheme.distinct_sm_counts
            }
        else:
            frac = decomposition.column_fraction(self._total_columns)
            t_gpu = {
                n_sm: models.gpu.query_time(frac, n_sm)
                for n_sm in cfg.scheme.distinct_sm_counts
            }

        # Translation (Section III-F): eq. 18 upper bound.  This is the
        # full single-job service time: parallel translation workers do
        # not make one translation faster — they are modelled as extra
        # service units on the translation Server and a proportionally
        # faster-draining Q_TRANS backlog (PartitionQueue.capacity).
        t_trans = 0.0
        for pred in decomposition.text_predicates:
            d_l = self.dictionary_length(pred.column)
            t_trans += len(pred.condition.text_values) * models.dict_model.time(d_l)
        return QueryEstimates(t_cpu=t_cpu, t_gpu=t_gpu, t_trans=t_trans)

    # -- batch estimation (the vectorised step-2 pass) ---------------------

    def _dl(self, column: str) -> int:
        d_l = self._dl_cache.get(column)
        if d_l is None:
            d_l = self.dictionary_length(column)
            self._dl_cache[column] = d_l
        return d_l

    def features(self, query: Query):
        """Integer features of one query: the step-2 feature extractor.

        Returns ``(sc_mb, column_fraction, text_terms)`` where
        ``text_terms`` is ``[(num_literals, dictionary_length), ...]`` in
        condition order, or ``None`` when the query's shape is outside
        the fast path (grouped queries, unknown dimensions, invalid
        resolutions or ranges, a non-monotone pyramid) —
        :meth:`estimate_batch` hands those to :meth:`estimate`, which
        computes, or raises, exactly what the per-query path would.
        The online recalibrator pairs the same tuple with realised
        latencies to build refit windows without re-deriving pyramid or
        decomposition state.

        Every arithmetic step mirrors ``CubePyramid.subcube_size_mb`` /
        ``decompose`` operation for operation; the maths is integer
        until the final ``bytes_to_mb`` and division, so the floats
        handed to the models are identical to the scalar path's.
        """
        if query.group_by or self._total_columns <= 0:
            return None
        if self._static is None:
            return None
        info, bases, n_levels = self._static
        conditions = query.conditions
        terms: list[tuple[int, int]] = []
        # off-measure queries have no answering level (the pyramid's
        # measure rule): sc_mb stays None, as in the scalar path
        lvl = 0 if self._config.pyramid.aggregates(query) else n_levels
        ents: list[tuple] = []
        for cond in conditions:
            entry = info.get(cond.dimension)
            if entry is None:
                return None  # unknown dimension: scalar path raises
            cols, fo, rows = entry
            res = cond.resolution  # Condition validates res >= 0
            if res >= len(cols):
                return None  # invalid resolution: scalar path raises
            text_values = cond.text_values
            if text_values:
                terms.append((len(text_values), self._dl(cols[res])))
            if lvl < n_levels:
                if fo is None or res >= len(fo):
                    lvl = n_levels  # dimension absent from the pyramid
                else:
                    idx = fo[res]
                    if idx > lvl:
                        lvl = idx
                    ents.append((cond, rows))
        # conditions have unique dimensions, so each contributes one
        # distinct predicate column — exactly decompose()'s set size
        ncols = len(conditions) + (len(query.measures) if query.agg != "count" else 0)
        frac = ncols / self._total_columns
        sc_mb: float | None = None
        if lvl < n_levels:
            n = bases[lvl]
            for cond, rows in ents:
                r, card_r, cards = rows[lvl]
                if cond.lo is not None:  # numeric range
                    if r == cond.resolution:
                        width = cond.hi - cond.lo
                    else:
                        card_from = cards[cond.resolution]
                        if not 0 <= cond.lo <= cond.hi <= card_from:
                            return None  # scalar path raises ResolutionError
                        factor = card_r // card_from
                        width = cond.hi * factor - cond.lo * factor
                elif cond.codes:
                    width = len(set(cond.codes)) * (card_r // cards[cond.resolution])
                else:  # text literals resolved natively by the CPU
                    width = len(set(cond.text_values)) * (card_r // cards[cond.resolution])
                # swap this dimension's full cardinality for the width;
                # integer-exact, so the product matches subcube_size_mb
                n = n // card_r * width
            sc_mb = bytes_to_mb(n)
        return sc_mb, frac, terms

    def estimate_batch(self, queries) -> list[QueryEstimates]:
        """Step-2 estimates for a whole batch, bit-identical to looping
        :meth:`estimate`.

        Feature extraction (sub-cube sizes, column fractions, dictionary
        lengths) runs as a lean integer pass per query against
        precomputed lookup tables; each model family — :math:`P_{CPU}`,
        :math:`P_{GPU}` per SM class, :math:`P_{DICT}` — is then
        evaluated as one vectorised ``time_many`` /
        ``estimate_time_many`` call over the whole batch.  Queries whose
        shape the fast path does not cover are estimated individually,
        so the result is always defined (or raises) exactly as the
        scalar path would.
        """
        queries = list(queries)
        cfg = self._config
        models = self._models  # one read: the batch uses one coherent epoch
        results: list[QueryEstimates | None] = [None] * len(queries)

        fast_idx: list[int] = []
        fracs: list[float] = []
        sc_idx: list[int] = []
        sc_vals: list[float] = []
        all_counts: list[int] = []
        all_dls: list[int] = []
        term_spans: list[tuple[int, int, int]] = []  # (query index, start, stop)
        for i, query in enumerate(queries):
            feats = self.features(query)
            if feats is None:
                results[i] = self.estimate(query)
                continue
            sc_mb, frac, terms = feats
            fast_idx.append(i)
            fracs.append(frac)
            if sc_mb is not None:
                sc_idx.append(i)
                sc_vals.append(sc_mb)
            if terms:
                start = len(all_counts)
                for count, d_l in terms:
                    all_counts.append(count)
                    all_dls.append(d_l)
                term_spans.append((i, start, len(all_counts)))
        if not fast_idx:
            return results  # type: ignore[return-value]

        nonnegative = True
        t_cpu_by_idx: dict[int, float] = {}
        if sc_vals:
            cpu_times = models.cpu.time_many(np.asarray(sc_vals, dtype=np.float64))
            nonnegative &= float(cpu_times.min()) >= 0
            for i, t in zip(sc_idx, cpu_times.tolist()):
                t_cpu_by_idx[i] = t

        sm_counts = cfg.scheme.distinct_sm_counts
        frac_arr = np.asarray(fracs, dtype=np.float64)
        gpu_cols = {}
        for n_sm in sm_counts:
            if models.gpu is None:
                col = cfg.device.estimate_time_many(frac_arr, n_sm)
            else:
                col = models.gpu.query_time_many(frac_arr, n_sm)
            if col.size:
                nonnegative &= float(col.min()) >= 0
            gpu_cols[n_sm] = col.tolist()

        t_trans_by_idx: dict[int, float] = {}
        if all_counts:
            per_term = np.asarray(all_counts, dtype=np.float64) * models.dict_model.time_many(
                np.asarray(all_dls, dtype=np.float64)
            )
            costs = per_term.tolist()
            for i, start, stop in term_spans:
                # accumulate in condition order with the scalar loop's
                # `+=` so rounding matches estimate() exactly
                t_trans = 0.0
                for c in costs[start:stop]:
                    t_trans += c
                t_trans_by_idx[i] = t_trans
                nonnegative &= t_trans >= 0

        # Non-negativity was checked vectorised above, so the per-query
        # __post_init__ re-check can be skipped; a pathological model
        # (negative output) drops to the validating constructor, which
        # raises exactly where the scalar loop would.
        build = QueryEstimates.trusted if nonnegative else QueryEstimates
        cpu_get = t_cpu_by_idx.get
        trans_get = t_trans_by_idx.get
        sm_list = list(sm_counts)  # a scheme always has >= 1 partition
        for i, row in zip(fast_idx, zip(*(gpu_cols[n_sm] for n_sm in sm_list))):
            results[i] = build(cpu_get(i), dict(zip(sm_list, row)), trans_get(i, 0.0))
        return results  # type: ignore[return-value]


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

        ``batch_size`` switches admission to the vectorised
        :meth:`~repro.core.scheduler.BaseScheduler.schedule_batch`
        path: arrivals buffer (after their arrival events and rollup
        lookups fire at arrival time) until ``batch_size`` of them need
        a decision, and the whole buffer is decided in one pass at the
        batch-completing arrival's instant — a trailing partial batch
        flushes with the final arrival.  Decisions are byte-identical
        to the sequential scheduler's given the same queue states, but
        buffering changes *when* queries are booked, so reports differ
        from ``batch_size=None`` exactly as a coarser admission cadence
        should.  ``batch_size=1`` flushes every arrival immediately.
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
            core.decide(
                pending, engine.now, batched=batch_size is not None, dispatch=core.start
            )
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
