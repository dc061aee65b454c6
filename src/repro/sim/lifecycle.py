"""The query lifecycle, written once for both planes.

Every query — simulated or served — passes through the same stages::

    arrival -> rollup lookup -> decide -> [translate] -> service
            -> feedback -> complete

:class:`QueryLifecycle` owns what those stages do to the books: it
builds the :class:`~repro.core.partitions.PartitionQueue` set, the
Figure-10 scheduler and the :class:`~repro.core.feedback.
FeedbackController`, books each stage's outcome (the
:class:`~repro.sim.metrics.QueryRecord`, rejection, failure and
in-flight counts) and sequences the stages.  It also builds the run's
one :class:`~repro.core.stages.Subscribers` table from the attached
views and *publishes* every stage to it — the views (trace, metrics,
spans, SLO, adapt) hold what a stage means to them, this module holds
none of it.  The *work* of a stage (translate the literals, answer from
a cube or a table scan) is written once too, in the
:class:`~repro.sim.executors.QueryExecutor` both drivers call.  What
realises a stage *in time* differs by necessity and stays with the
plane, the core's driver:

* :meth:`repro.sim.system.HybridSystem.run` — the event heap and
  :class:`~repro.sim.resources.Server` stations, simulated time,
  service-time noise, the batch arrival buffer;
* :class:`repro.serve.engine.ServeEngine` — the engine lock and
  :class:`~repro.serve.pool.WorkerPool` threads, an injected clock, the
  ``max_in_flight`` wait, :class:`~repro.serve.engine.Ticket` handles.

The core never reads a clock and never takes a lock: every method gets
its instant from the driver, and the serve plane calls it with the
engine lock held.  A driver reports its stations' transitions through
:meth:`QueryLifecycle.stage_started` / :meth:`~QueryLifecycle.
stage_finished` and ticks its own periodic observers (trace series,
snapshots, SLO and adapt heartbeat) after the stage call returns.
"""

from __future__ import annotations

from collections import Counter
from copy import deepcopy
from functools import partial
from typing import Callable, Mapping, Sequence

from repro.core.feedback import FeedbackController
from repro.core.partitions import PartitionQueue, QueueKind
from repro.core.scheduler import BaseScheduler, ScheduleDecision
from repro.core.stages import Outcome, Subscribers
from repro.errors import AdmissionRejected
from repro.metrics.instrument import (
    AdaptMetrics,
    ObsMetrics,
    RollupMetrics,
    RuntimeMetrics,
)
from repro.obs.hooks import QuerySpans
from repro.query.model import Query
from repro.sim.metrics import QueryRecord, Retired, SystemReport

__all__ = ["QueryLifecycle"]


class QueryLifecycle:
    """Books and stage transitions of one run, independent of its driver.

    ``config`` is the run's :class:`~repro.sim.system.SystemConfig` and
    ``estimator`` the step-2 source handed to its scheduler factory.
    ``now_fn`` is the driver's clock (simulated or engine-relative),
    only bound into the span tracer and never read here; ``root_span``
    names the per-query root span (``sim.query`` / ``serve.query``).
    ``run_stage(stage, station, decision, resolved, done)`` is the
    driver: it realises ``"translation"`` or ``"service"`` for one
    query on its station named ``station`` and calls
    ``done(service_time, finished, result, error)`` once at the end.
    ``collector``, ``metrics`` (a registry), ``rollup``, ``spans``,
    ``slo`` and ``adapt`` are the optional attachments, and this
    constructor is the one place they are attached: the views among
    them become the run's :attr:`subscribers`.
    """

    def __init__(
        self,
        config,
        estimator,
        *,
        now_fn: Callable[[], float],
        root_span: str,
        run_stage: Callable[..., None],
        collector=None,
        metrics=None,
        rollup=None,
        spans=None,
        slo=None,
        adapt=None,
    ):
        self.config = config
        self.cpu_queue = PartitionQueue("Q_CPU", QueueKind.CPU)
        self.trans_queue = PartitionQueue(
            "Q_TRANS", QueueKind.TRANSLATION, capacity=config.translation_workers
        )
        self.gpu_queues = [
            PartitionQueue(f"Q_{p.name}", QueueKind.GPU, n_sm=p.n_sm)
            for p in config.scheme
        ]
        self.scheduler: BaseScheduler = config.scheduler_factory(
            self.cpu_queue,
            self.gpu_queues,
            self.trans_queue,
            estimator,
            config.time_constraint,
        )
        self.feedback = FeedbackController(gain=config.feedback_gain)
        self.queues: dict[str, PartitionQueue] = {
            q.name: q for q in [self.cpu_queue, self.trans_queue, *self.gpu_queues]
        }

        self.records: list[QueryRecord] = []
        self.cache_hits: list[QueryRecord] = []
        self.errors: list[tuple[int, BaseException]] = []
        #: what :meth:`retire` dropped from the books, as running totals
        self.retired = Retired()
        self.rejected = 0
        #: admitted queries not yet finished (translation + processing)
        self.in_flight = 0

        self.rollup = rollup
        self._run_stage = run_stage
        if spans is not None:
            # clock-domain rule: span timestamps are the driver's now()
            # readings — never time.monotonic() directly — so span
            # timelines share the report/trace timebase and are
            # deterministic under FakeClock and in simulation
            spans.bind_clock(now_fn)
        #: the run's stage-stream table.  The order is fixed — trace,
        #: metrics (runtime, rollup, adapt), spans and their metrics,
        #: SLO, adapt — and adapt must stay last: it is the only
        #: subscriber that acts (it moves actuators and installs models,
        #: publishing ``on_refit`` / ``on_epoch`` / ``on_reconfig`` back
        #: here), so every read-only view has booked a stage before
        #: adapt reacts to it.  The router and the translator outlive
        #: the run and hold no sink of it: what they measure comes back
        #: to :meth:`arrive` and is published here, so concurrent runs
        #: over one router each count only their own queries
        self.subscribers = self.scheduler.subscribers = Subscribers(
            collector,
            RuntimeMetrics(metrics) if metrics is not None else None,
            RollupMetrics(metrics) if metrics is not None and rollup is not None else None,
            AdaptMetrics(metrics) if metrics is not None and adapt is not None else None,
            QuerySpans(spans, root_span) if spans is not None else None,
            ObsMetrics(metrics, spans) if metrics is not None and spans is not None else None,
            slo,
            adapt,
        )

    # -- arrival half --------------------------------------------------------

    def arrive(self, query: Query, query_class: str, now: float) -> QueryRecord | None:
        """Arrival-time front half of Figure 10's dispatcher.

        Announces the arrival and consults the rollup tier.  Returns the
        zero-cost record when the query is finished here (cache hit) —
        answered before the scheduler was consulted: no submitted/
        admitted counts, no books, no in-flight slot, which the
        ``rollup`` validation family audits — and ``None`` when it goes
        on to :meth:`decide`.
        """
        subs = self.subscribers
        for publish in subs.on_arrival:
            publish(query, query_class, now)
        if self.rollup is not None:
            hit = self.rollup.lookup(
                query, query_class, now, deadline=now + self.config.time_constraint
            )
            if hit is not None:
                record = hit.record
                self.cache_hits.append(record)
                for publish in subs.on_cache_hit:
                    publish(record, hit.source, hit.seconds, now)
                return record
        for publish in subs.on_submitted:
            publish(query, query_class, now)
        return None

    # -- decision half -------------------------------------------------------

    def decide(
        self,
        pending: Sequence[tuple[Query, str]],
        now: float,
        *,
        dispatch: Callable[[ScheduleDecision, str], object],
    ) -> list[tuple[ScheduleDecision, object] | None]:
        """Decision half: steps 1-6 for arrivals that passed :meth:`arrive`.

        ``pending`` holds ``(query, query_class)`` pairs, decided in order
        by ``schedule_batch`` (``schedule`` per query).  Each admitted
        query goes to the driver's ``dispatch(decision, query_class)``
        straight after its books.  Returns, per pair, ``(decision,
        dispatch's result)`` or ``None`` for a rejection.
        """
        outcomes = self.scheduler.schedule_batch([q for q, _ in pending], now)
        on_admitted = self.subscribers.on_admitted
        results: list[tuple[ScheduleDecision, object] | None] = []
        for (query, query_class), outcome in zip(pending, outcomes):
            if isinstance(outcome, AdmissionRejected):
                self.end(query.query_id, Outcome.REJECTED, now, str(outcome))
                results.append(None)
                continue
            self.in_flight += 1
            for publish in on_admitted:
                publish(outcome, self.in_flight, now)
            results.append((outcome, dispatch(outcome, query_class)))
        return results

    # -- stages --------------------------------------------------------------

    def start(
        self,
        decision: ScheduleDecision,
        query_class: str,
        finish: Callable[..., None] | None = None,
    ) -> None:
        """Drive one admitted query: [translate ->] service -> complete.

        Each stage runs on the driver's ``run_stage``.  ``finish(outcome,
        record, error)``, when given, tells the driver the query ended
        (see :meth:`end`); its books are done by then.
        """
        if decision.translation is None:
            self._process(decision, query_class, finish, decision.query)
            return
        done = partial(self._translated, decision, query_class, finish)
        self._run_stage(
            "translation", self.trans_queue.name, decision, decision.query, done
        )

    def _process(self, decision, query_class, finish, resolved: Query) -> None:
        """Hand the (text-resolved) query to its target partition."""
        done = partial(self._processed, decision, query_class, finish)
        self._run_stage("service", decision.target.name, decision, resolved, done)

    def stage_started(
        self, stage, station, query_id, now, waited, service_time=None
    ) -> None:
        """The driver's station took ``query_id``'s ``stage`` into service."""
        for publish in self.subscribers.on_stage_start:
            publish(stage, station, query_id, now, waited, service_time)

    def stage_finished(
        self, stage, station, query_id, arrived, started, finished, service_time, error
    ) -> None:
        """The driver's station finished ``query_id``'s ``stage``.

        Reported at the station's finish transition, before the driver
        calls the stage's ``done`` — in simulation the successor job
        starts in between, which is the causal order a trace shows.
        """
        for publish in self.subscribers.on_stage_finish:
            publish(
                stage, station, query_id, arrived, started, finished, service_time, error
            )

    def _feed_back(self, queue, query_id, measured, estimated, now) -> None:
        """Section III-G's correction for one finished stage, announced."""
        applied = self.feedback.on_completion(queue, measured, estimated)
        on_feedback = self.subscribers.on_feedback
        if on_feedback:
            stats = self.feedback.stats(queue.name)
            for publish in on_feedback:
                publish(queue.name, query_id, measured, estimated, applied, stats, now)

    def _translated(
        self, decision, query_class, finish, service_time, finished, resolved, error
    ) -> None:
        """The translation stage ended after ``service_time`` seconds.

        Feeds the measurement back to ``Q_TRANS``.  With an ``error``
        the query ends here (no record: it never reached a processing
        partition) and counts as a deadline miss.
        """
        query_id = decision.query.query_id
        estimated = decision.translation.estimated_time
        try:
            self._feed_back(self.trans_queue, query_id, service_time, estimated, finished)
        finally:
            if error is None:
                # realised pipeline handoff: the query reaches its
                # partition at translation finish, exactly the dependency
                # edge the audit's `dependency` family checks against the
                # realised translation timeline
                self._process(decision, query_class, finish, resolved)
            else:
                self.end(query_id, Outcome.FAILED, finished, "translation", None, error, finish)

    def _processed(
        self, decision, query_class, finish, service_time, finished, answer, error
    ) -> None:
        """The processing stage ended: feedback, the record, the outcome."""
        query_id = decision.query.query_id
        estimated = decision.processing.estimated_time
        record = QueryRecord(
            query_id=query_id,
            query_class=query_class,
            target=decision.target.name,
            submit_time=decision.processing.submit_time,
            finish_time=finished,
            deadline=decision.deadline,
            estimated_time=estimated,
            measured_time=service_time,
            translated=decision.translation is not None,
            answer=None if error is not None else answer,
        )
        try:
            self._feed_back(decision.target, query_id, service_time, estimated, finished)
        finally:
            self.records.append(record)
            if error is None:
                self.end(query_id, Outcome.SERVED, finished, None, record, None, finish)
            else:
                self.end(query_id, Outcome.FAILED, finished, "service", record, error, finish)

    def end(
        self, query_id, outcome, now, detail=None, record=None, error=None, finish=None
    ) -> None:
        """The one place a submitted query ends: book ``outcome`` and
        publish it.  A rejection counts in :attr:`rejected`; a served or
        failed query leaves :attr:`in_flight` (a failure's ``error``
        goes to :attr:`errors`); an abandoned one stays in flight.  The
        driver's ``finish(outcome, record, error)`` runs even when a
        subscriber raises, here or in the stage's feedback before it.
        """
        if outcome is Outcome.REJECTED:
            self.rejected += 1
        elif outcome is not Outcome.ABANDONED:
            if error is not None:
                self.errors.append((query_id, error))
            self.in_flight -= 1
        try:
            for publish in self.subscribers.on_outcome:
                publish(query_id, outcome, record, detail, self.in_flight, now)
        finally:
            if finish is not None:
                finish(outcome, record, error)

    # -- retention -----------------------------------------------------------

    def retire(self, keep: int, stations: Mapping[str, object]) -> None:
        """Drop all but the newest ``keep`` records and cache hits.

        A retired query leaves every book in the same call: its record,
        its entries on its target's and (when translated) the
        translation station's timeline, and the matching submissions —
        so the kept books stay one-to-one and every books family of
        :func:`repro.sim.validate.audit` holds on them as it did on the
        whole run.  Its counts go to :attr:`retired`.  A
        query that failed in translation left no record and is never
        retired.  ``stations`` are the driver's stations by name; each
        must offer ``forget(query_ids)``, as the queues do.
        """
        old = len(self.records) - keep
        if old > 0:
            dropped: dict[str, Counter] = {}
            for record in self.records[:old]:
                self.retired.add(record)
                names = [record.target]
                if record.translated:
                    names.append(self.trans_queue.name)
                for name in names:
                    dropped.setdefault(name, Counter())[record.query_id] += 1
            del self.records[:old]
            tasks = self.retired.tasks
            for name, query_ids in dropped.items():
                self.queues[name].forget(query_ids)
                stations[name].forget(query_ids)
                tasks[name] = tasks.get(name, 0) + sum(query_ids.values())
        old = len(self.cache_hits) - keep
        if old > 0:
            for record in self.cache_hits[:old]:
                self.retired.add(record, hit=True)
            del self.cache_hits[:old]

    # -- reporting -----------------------------------------------------------

    def report(
        self,
        horizon: float,
        stations: Mapping[str, object],
        capacities: Mapping[str, int],
        exact_estimates: bool,
    ) -> SystemReport:
        """Aggregate the run into a standard :class:`SystemReport`.

        ``stations`` maps partition name to the driver's service
        station — a :class:`~repro.sim.resources.Server` or a
        :class:`~repro.serve.pool.WorkerPool`, read through
        ``utilisation(horizon)`` and ``history``.
        """
        return SystemReport.from_records(
            list(self.records),
            utilisations={
                name: station.utilisation(horizon) for name, station in stations.items()
            },
            horizon=horizon,
            timelines={
                name: tuple(station.history) for name, station in stations.items()
            },
            rejected=self.rejected,
            submissions={name: q.submissions for name, q in self.queues.items()},
            capacities=dict(capacities),
            outstanding={name: q.outstanding for name, q in self.queues.items()},
            exact_estimates=exact_estimates,
            feedback_stats=self.feedback.all_stats,
            cache_hits=list(self.cache_hits),
            retired=deepcopy(self.retired),
        )
