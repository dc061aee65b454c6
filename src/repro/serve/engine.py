"""The wall-clock serving engine — Figure 10 against live clocks.

:class:`ServeEngine` is the production-shaped counterpart of
:class:`~repro.sim.system.HybridSystem.run`: a second *driver* of the
one :class:`~repro.sim.lifecycle.QueryLifecycle` (queue books,
scheduler, feedback loop and what each stage does to them), with every
partition realised as a :class:`~repro.serve.pool.WorkerPool`
executing *real* work in *real* (injected-clock) time:

* the CPU OLAP partition runs :class:`~repro.olap.parallel.
  ParallelAggregator` reductions;
* each GPU partition of the :class:`~repro.gpu.partitioning.
  PartitionScheme` is a capacity-limited pool running the
  :mod:`repro.gpu` kernel substitutes;
* the translation partition runs :class:`~repro.text.translator.
  TranslationService` lookups before GPU dispatch, exactly Figure 10's
  pipeline (a translated query's processing task is enqueued by the
  translation worker at realised translation finish).

Three production concerns the simulated plane never needed:

* **admission & backpressure** — ``max_in_flight`` bounds accepted but
  unfinished queries; blocking submits wait for space (closed-loop
  clients), non-blocking ones raise
  :class:`~repro.errors.BackpressureError` (open-loop shed), and
  :class:`~repro.core.admission.AdmissionControlScheduler` rejections
  surface as :class:`SubmitOutcome` rejections;
* **graceful drain** — :meth:`drain` stops admission, waits for
  in-flight work to finish, and joins every worker;
* **observability of live runs** — the lifecycle core publishes the
  same stage stream on both planes, so an attached :class:`~repro.sim.
  obs.TraceCollector` records the identical lifecycle events the
  simulator emits and :func:`repro.sim.validate.audit` (``collector=``)
  audits serving exactly like simulation.

Every lifecycle-core call happens under one engine-wide lock (see
:mod:`repro.serve.pool`); executor work runs outside it.
:meth:`report` emits a standard
:class:`~repro.sim.metrics.SystemReport`, so every metric, dashboard
and invariant checker in the repo consumes live runs unchanged.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial

from repro.core.partitions import PartitionQueue, QueueKind
from repro.core.scheduler import ScheduleDecision
from repro.core.stages import Outcome
from repro.errors import BackpressureError, PartitionError, ServeError
from repro.obs.span import SpanTracer
from repro.olap.rollup import RollupRouter
from repro.metrics.exporter import MetricsExporter
from repro.metrics.registry import MetricsRegistry
from repro.metrics.slo import SloMonitor
from repro.metrics.snapshots import SnapshotWriter
from repro.query.model import Query
from repro.serve.clock import Clock, RealClock
from repro.serve.pool import EngineState, ServeTask, WorkerPool
from repro.sim.executors import MaterialisedExecutor, QueryExecutor
from repro.sim.lifecycle import QueryLifecycle
from repro.sim.metrics import QueryRecord, SystemReport
from repro.sim.obs import TraceCollector
from repro.sim.system import SystemConfig, SystemEstimator

__all__ = ["RETAIN_QUERIES", "ServeEngine", "SubmitOutcome", "Ticket"]

#: finished queries whose books an engine keeps in full (and as many
#: cache hits); once either book holds twice this many, the older half
#: retires into running totals (:meth:`~repro.sim.lifecycle.
#: QueryLifecycle.retire`), so a long run's books stay a few MB
RETAIN_QUERIES = 2048


class Ticket:
    """Completion handle for one accepted query (closed-loop clients)."""

    __slots__ = ("_event", "outcome", "record", "error")

    def __init__(self) -> None:
        self._event = threading.Event()
        #: how the query ended; None while it is in flight
        self.outcome: Outcome | None = None
        self.record: QueryRecord | None = None
        self.error: BaseException | None = None

    def _end(self, outcome: Outcome, record=None, error=None) -> None:
        self.record = record
        self.error = error
        self.outcome = outcome  # last: a set outcome means the rest is set
        self._event.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the query ended; False on timeout and when it was
        abandoned, so a stopped engine never leaves a waiter hanging."""
        return self._event.wait(timeout=timeout) and self.outcome is not Outcome.ABANDONED

    @property
    def done(self) -> bool:
        """True once a result is available (not set for abandonment)."""
        return self.outcome not in (None, Outcome.ABANDONED)


@dataclass(frozen=True)
class SubmitOutcome:
    """Result of one submission attempt.

    ``accepted`` is False when admission control shed the query
    (``decision``/``ticket`` are then None).  Backpressure is *not* an
    outcome — it raises :class:`~repro.errors.BackpressureError` so
    open-loop generators can count shed load explicitly.
    """

    accepted: bool
    decision: ScheduleDecision | None = None
    ticket: Ticket | None = None
    #: True when the rollup tier answered before the scheduler was
    #: consulted: ``decision`` is None and ``ticket`` is already done
    cache_hit: bool = False


_REJECTED = SubmitOutcome(accepted=False)


class ServeEngine:
    """Serve queries on live worker pools under the Figure-10 scheduler.

    Parameters
    ----------
    config:
        The standard :class:`~repro.sim.system.SystemConfig`; the
        scheduler factory, partition scheme, translation workers, and
        time constraint all mean exactly what they mean in simulation.
    clock:
        Time source; defaults to :class:`~repro.serve.clock.RealClock`.
        Tests inject :class:`~repro.serve.clock.FakeClock`.
    executor:
        The per-partition work; defaults to
        :class:`~repro.sim.executors.MaterialisedExecutor` (requires
        a materialised config).
    estimator:
        Step-2 estimate source; defaults to
        :class:`~repro.sim.system.SystemEstimator` over ``config``.
        Tests inject stubs to drive scheduling deterministically.
    collector:
        Optional :class:`~repro.sim.obs.TraceCollector`: the trace view
        of the core's stage stream, sampled by the engine at every
        lifecycle transition.
    metrics:
        Optional :class:`~repro.metrics.registry.MetricsRegistry`.  When
        given, the lifecycle core subscribes :class:`~repro.metrics.
        instrument.RuntimeMetrics` to its stage stream, which also
        derives the per-pool ``repro_pool_*`` families from the
        admissions and stage transitions it sees; every publish runs in
        the engine-lock hold of the pool transition it mirrors, so the
        depth and busy gauges equal each pool's ``queue_length`` /
        ``in_service`` whenever the lock is free.  With ``metrics=None``
        every publish site iterates an empty tuple.
    slo:
        Optional :class:`~repro.metrics.slo.SloMonitor`; fed one
        observation per finished query (``met_deadline`` at the realised
        finish time, failures counting as misses).
    snapshots:
        Optional :class:`~repro.metrics.snapshots.SnapshotWriter`;
        ticked at every lifecycle transition the engine already observes
        and force-written once at the end of :meth:`drain`, so snapshot
        cadence is a pure function of event times under ``FakeClock``.
    exporter:
        Optional :class:`~repro.metrics.exporter.MetricsExporter` the
        engine *owns*: :meth:`stop` (and therefore :meth:`drain` and the
        context-manager exit) calls its ``close()``, releasing the
        scrape port with the engine instead of leaking the bound socket
        into the rest of the process.  The engine does not start it —
        callers start the exporter whenever they want scrapes to begin
        (typically before the world build, as ``repro serve`` does).
    max_in_flight:
        Bound on accepted-but-unfinished queries (None = unbounded).
        The front door of the backpressure chain.
    rollup:
        Optional :class:`~repro.olap.rollup.RollupRouter`.  When given,
        every submission first asks the rollup catalog for coverage
        (under the engine lock; the catalog lock nests inside — see
        ``docs/architecture.md``).  A hit completes immediately with a
        zero-cost record on :data:`~repro.olap.rollup.ROLLUP_TARGET`,
        bypassing estimation, dispatch, and the in-flight bound; a miss
        proceeds through Figure 10 untouched.  If ``metrics`` is also
        given, the lifecycle core subscribes :class:`~repro.metrics.
        instrument.RollupMetrics` to its stage stream; the router itself
        holds nothing of this engine, so engines may share one.
    spans:
        Optional :class:`~repro.obs.span.SpanTracer` (the distributed
        span plane).  The tracer's clock is re-bound to the injected
        engine clock, one ``serve.query`` root span opens per
        head-sampled submission (or cache hit), and the lifecycle core
        subscribes :class:`~repro.obs.hooks.QuerySpans` to its stage
        stream, followed by :class:`~repro.metrics.instrument.ObsMetrics`
        when ``metrics`` is also given.

    The books — records, cache hits, timelines, submissions — keep the
    newest :data:`RETAIN_QUERIES` finished queries and running totals
    of the rest, which :meth:`report` carries as
    :class:`~repro.sim.metrics.Retired`.  An engine with a ``collector``
    or ``spans`` keeps full books instead: those views record every
    query, and their audits join each recording to its books.
    """

    def __init__(
        self,
        config: SystemConfig,
        *,
        clock: Clock | None = None,
        executor: QueryExecutor | None = None,
        estimator=None,
        collector: TraceCollector | None = None,
        metrics: MetricsRegistry | None = None,
        slo: SloMonitor | None = None,
        snapshots: SnapshotWriter | None = None,
        exporter: MetricsExporter | None = None,
        max_in_flight: int | None = 1024,
        cpu_threads: int = 4,
        rollup: RollupRouter | None = None,
        adapt=None,
        spans: SpanTracer | None = None,
    ):
        if max_in_flight is not None and max_in_flight < 1:
            raise ServeError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.config = config
        self.clock = clock if clock is not None else RealClock()
        self._state = EngineState(self.clock)
        self.executor: QueryExecutor = (
            executor
            if executor is not None
            else MaterialisedExecutor(config, cpu_threads=cpu_threads)
        )
        self.estimator = (
            estimator if estimator is not None else SystemEstimator(config)
        )
        self.max_in_flight = max_in_flight

        core = self._core = QueryLifecycle(
            config,
            self.estimator,
            now_fn=self._state.now,
            root_span="serve.query",
            run_stage=self._run_stage,
            collector=collector,
            metrics=metrics,
            rollup=rollup,
            spans=spans,
            slo=slo,
            adapt=adapt,
        )
        # the core's books under the engine's public names (shared
        # objects, not copies; ``rejected``/``in_flight`` are properties)
        self.cpu_queue = core.cpu_queue
        self.trans_queue = core.trans_queue
        self.gpu_queues = core.gpu_queues
        self.scheduler = core.scheduler
        self.feedback = core.feedback
        self.queues = core.queues
        self.records = core.records
        self.cache_hits = core.cache_hits
        self.errors = core.errors

        #: live tickets of in-flight queries, for drain diagnostics and
        #: stop-time abandonment (keyed by identity: query_ids stay
        #: readable even if a client resubmits the same query object)
        self._tickets: dict[Ticket, int] = {}
        self._retain = (
            RETAIN_QUERIES if collector is None and spans is None else None
        )
        self._accepting = True
        self._started = False

        self.rollup = rollup
        self.metrics = metrics
        self.spans = spans
        self.pools: dict[str, WorkerPool] = {
            name: WorkerPool(name, self._state, capacity=q.capacity)
            for name, q in self.queues.items()
        }
        self._collector = collector
        if collector is not None:
            collector.bind(self.queues, self.pools)
        # the periodic observers this driver ticks (see _sample)
        self._snapshots = snapshots
        self._slo = slo
        self._adapt = adapt
        self._exporter = exporter
        #: generation counter for live GPU re-splits: each re-split's
        #: queues get a one-letter suffix so names never collide with a
        #: previous generation's books
        self._generation = 0
        if adapt is not None:
            # the plane already subscribes to the core's stage stream;
            # this hands it the actuators for capacity reconfiguration
            adapt.attach(
                scheduler=self.scheduler, estimator=self.estimator, engine=self
            )

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ServeEngine":
        """Spawn every partition's worker threads (idempotent)."""
        for pool in self.pools.values():
            pool.start()
        self._started = True
        return self

    def __enter__(self) -> "ServeEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.drain()
        else:  # error path: stop quickly, keep the original exception
            self.stop(finish_queued=False)

    @property
    def in_flight(self) -> int:
        """Accepted queries not yet finished (translation + processing)."""
        return self._core.in_flight

    @property
    def rejected(self) -> int:
        """Queries the admission controller turned away."""
        return self._core.rejected

    @property
    def elapsed(self) -> float:
        """Engine-relative clock reading (report/trace timebase)."""
        return self._state.now()

    # -- submission (the dispatcher) ----------------------------------------

    def submit(
        self,
        query: Query,
        query_class: str = "default",
        *,
        block: bool = True,
        timeout: float | None = 30.0,
    ) -> SubmitOutcome:
        """Schedule one query and hand it to its partition pools.

        Runs steps 1-6 of Figure 10 via the configured scheduler — the
        *same* object code as simulated-time dispatch — then enqueues
        the translation and/or processing task.  Blocks (or raises
        :class:`~repro.errors.BackpressureError` when ``block=False``)
        while ``max_in_flight`` queries are outstanding.
        """
        return self._submit_chunks([(query, query_class)], block, timeout)[0]

    def submit_batch(
        self,
        queries,
        query_class="default",
        *,
        block: bool = True,
        timeout: float | None = 30.0,
    ) -> list[SubmitOutcome]:
        """Schedule a batch of queries with one lock hold per admitted chunk.

        Outcomes are positionally aligned with ``queries`` and identical
        to calling :meth:`submit` per query in order — same decisions
        (both run :meth:`~repro.core.scheduler.BaseScheduler.schedule`
        per query), same rollup short-circuits, same admission
        rejections — but the engine lock is acquired, and the engine
        sampled, once per chunk instead of once per query.
        ``query_class`` is one class for the whole batch or a
        same-length sequence of per-query classes.

        A chunk is as many remaining queries as ``max_in_flight``
        currently leaves room for.  When the engine is full, a blocking
        call waits for space before starting the next chunk;
        ``block=False`` raises :class:`~repro.errors.BackpressureError`
        at the first full chunk boundary — queries of earlier chunks
        are already admitted and their tickets remain live, and the
        outcomes collected so far ride on the exception as its
        ``outcomes`` attribute (load generators count them as accepted
        and shed only the remainder).
        """
        queries = list(queries)
        if isinstance(query_class, str):
            classes = [query_class] * len(queries)
        else:
            classes = [str(c) for c in query_class]
            if len(classes) != len(queries):
                raise ServeError(
                    f"query_class sequence has {len(classes)} entries "
                    f"for {len(queries)} queries"
                )
        entries = list(zip(queries, classes))
        return self._submit_chunks(entries, block, timeout)

    def _submit_chunks(
        self,
        entries: list[tuple[Query, str]],
        block: bool,
        timeout: float | None,
    ) -> list[SubmitOutcome]:
        """The one submission body: :meth:`submit` is a chunk of one.

        Per chunk, under one lock hold: wait for ``max_in_flight`` room,
        the arrival half for every query (hits finish here), one
        decision pass for the rest (``schedule`` per query) dispatching
        each admitted query, one sample.  ``timeout`` is one real-time budget shared
        by the waits of all chunks.
        """
        core = self._core
        deadline = None if timeout is None else time.monotonic() + timeout
        outcomes: list[SubmitOutcome] = []
        while len(outcomes) < len(entries):
            idx = len(outcomes)
            with self._state.cond:
                while (
                    self.max_in_flight is not None
                    and core.in_flight >= self.max_in_flight
                    and self._accepting
                ):
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if not block or (remaining is not None and remaining <= 0):
                        raise self._backpressure(block, timeout, outcomes, len(entries))
                    self._state.cond.wait(timeout=remaining)
                if not self._accepting:
                    raise ServeError("engine is draining; submission refused")
                space = len(entries) - idx
                if self.max_in_flight is not None:
                    space = min(space, self.max_in_flight - core.in_flight)
                now = self._state.now()

                pending: list[tuple[Query, str]] = []
                slots: list[int] = []
                for query, qclass in entries[idx : idx + space]:
                    hit = core.arrive(query, qclass, now)
                    if hit is not None:
                        ticket = Ticket()
                        ticket._end(Outcome.SERVED, hit)
                        outcomes.append(
                            SubmitOutcome(accepted=True, ticket=ticket, cache_hit=True)
                        )
                    else:
                        pending.append((query, qclass))
                        slots.append(len(outcomes))
                        # stands unless the decision pass admits the query
                        outcomes.append(_REJECTED)
                admitted = core.decide(pending, now, dispatch=self._dispatch)
                for slot, result in zip(slots, admitted):
                    if result is not None:
                        decision, ticket = result
                        outcomes[slot] = SubmitOutcome(
                            accepted=True, decision=decision, ticket=ticket
                        )
                self._sample(now)
                self._trim()
        return outcomes

    def _backpressure(
        self,
        block: bool,
        timeout: float | None,
        outcomes: list[SubmitOutcome],
        total: int,
    ) -> BackpressureError:
        """The error of a full engine, carrying the outcomes so far."""
        in_flight = self._core.in_flight
        limit = f"(max_in_flight={self.max_in_flight})"
        if block:
            message = f"still {in_flight} queries in flight after {timeout}s {limit}"
        else:
            message = f"{in_flight} queries in flight {limit}"
        if total > 1:
            message = f"{message}; {len(outcomes)} of {total} batch queries admitted"
        error = BackpressureError(message)
        error.outcomes = list(outcomes)
        return error

    def _dispatch(self, decision: ScheduleDecision, query_class: str) -> Ticket:
        """Ticket one admitted query and start its first stage (lock held)."""
        ticket = Ticket()
        self._tickets[ticket] = decision.query.query_id
        self._core.start(decision, query_class, partial(self._finish, ticket))
        return ticket

    def _run_stage(self, stage, pool, decision, resolved, done) -> None:
        """The core's driver hook: one stage as a task on ``pool`` (lock held).

        ``done`` fires under the engine lock at the task's finish, between
        the published stage finish and a sample.
        """
        core = self._core
        query_id = decision.query.query_id
        book = partial(self._book, query_id)
        if stage == "translation":
            run = partial(self.executor.translate, resolved)
        else:
            run = partial(self.executor.execute, decision.target, resolved)

        def on_start(task: ServeTask) -> None:
            book(core.stage_started, stage, pool, query_id, task.started, task.waited)
            self._sample(task.started)

        def on_done(task: ServeTask) -> None:
            finished, service_time, error = task.finished, task.service_time, task.error
            book(
                core.stage_finished, stage, pool, query_id,
                task.arrived, task.started, finished, service_time, error,
            )
            book(done, service_time, finished, task.result, error)
            self._sample(finished)

        self.pools[pool].submit(
            ServeTask(query_id=query_id, run=run, on_start=on_start, on_done=on_done)
        )

    def _book(self, query_id: int, call, *args, **kwargs) -> None:
        """Run one lifecycle call (lock held); a subscriber's exception is
        booked on :attr:`errors` for :meth:`drain` to re-raise instead of
        ending a worker thread, and the lifecycle still ends the query."""
        try:
            call(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - surfaced by drain()
            self.errors.append((query_id, exc))

    def _finish(self, ticket: Ticket, outcome: Outcome, record, error) -> None:
        """Release an ended query's ticket (its books are already done)."""
        self._tickets.pop(ticket, None)
        ticket._end(outcome, record, error)
        self._state.cond.notify_all()
        self._trim()

    def _trim(self) -> None:
        """Retire the older half of a book that reached twice the window."""
        keep, core = self._retain, self._core
        if keep is None:
            return
        if max(len(core.records), len(core.cache_hits)) >= 2 * keep:
            core.retire(keep, self.pools)

    # -- adaptive capacity actuators ----------------------------------------

    def adapt_resplit(self, scheme) -> tuple[str, ...]:
        """Replace the live GPU partition set with ``scheme``.

        A new generation of queues and pools is created (names carry a
        generation suffix — ``Q_G1b`` — so the previous generation's
        books stay intact and auditable), started if the engine is
        running, and handed to the scheduler; in-flight work on the old
        partitions completes against the old queues.  Returns the new
        queue names.  Caller is the adaptive capacity controller, which
        fires under the engine lock; the re-entrant lock makes this safe
        from both inside and outside it.
        """
        with self._state.cond:
            self.check_scheme(scheme)
            self._generation += 1
            suffix = chr(ord("a") + self._generation)
            new_queues = [
                PartitionQueue(
                    f"Q_{p.name}{suffix}", QueueKind.GPU, n_sm=p.n_sm
                )
                for p in scheme
            ]
            for q in new_queues:
                pool = self.pools[q.name] = WorkerPool(
                    q.name, self._state, capacity=q.capacity
                )
                self.queues[q.name] = q
                if self._started:
                    pool.start()
            self.gpu_queues = new_queues
            self.scheduler.replace_gpu_queues(new_queues)
            return tuple(q.name for q in new_queues)

    def check_scheme(self, scheme) -> None:
        """Refuse a GPU split this engine cannot serve: one the device
        cannot hold, or one with an SM class step 2 does not estimate.

        Step 2 is taken to price ``config.scheme``'s SM classes, which
        is what the default :class:`~repro.sim.system.SystemEstimator`
        over ``config`` does; an injected ``estimator`` must price the
        same classes for this check to hold.
        """
        scheme.validate_for(self.config.device)
        estimated = self.config.scheme.distinct_sm_counts
        unknown = sorted(set(scheme.sm_counts) - set(estimated))
        if unknown:
            raise PartitionError(
                f"{scheme} has SM classes {unknown} that step 2 does not "
                f"estimate (it estimates {list(estimated)})"
            )

    def adapt_resize_translation(self, workers: int) -> None:
        """Resize the translation partition's worker pool live.

        The pool's thread count and the translation queue's fluid
        :math:`T_Q` drain rate move together, so backlog estimates stay
        consistent with the capacity that actually serves them.
        """
        with self._state.cond:
            self.pools[self.trans_queue.name].resize(workers)
            self.trans_queue.capacity = workers

    # -- observability helpers ----------------------------------------------

    def _sample(self, when) -> None:
        in_flight = self._core.in_flight
        if self._collector is not None:
            self._collector.sample(when)
        if self._snapshots is not None:
            self._snapshots.tick(when)
        if self._slo is not None:
            # heartbeat: slides the SLO window even when nothing is
            # completing, so a wedged run cannot export a stale healthy
            # burn rate (an empty window under load reads as all-missed)
            self._slo.tick(when, in_flight=in_flight)
        if self._adapt is not None:
            self._adapt.tick(when, in_flight)

    # -- drain / stop ------------------------------------------------------------

    def drain(self, timeout: float | None = 60.0) -> None:
        """Stop admission, wait for in-flight work, join all workers.

        ``timeout`` is a *real-time* liveness bound (independent of the
        injected clock): a hung executor fails the drain loudly instead
        of blocking forever.  Accepted queries that failed during
        execution re-raise here as :class:`~repro.errors.ServeError` —
        a drained engine either served everything or says why not.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._state.cond:
            self._accepting = False
            self._state.cond.notify_all()
            while self._core.in_flight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    stranded = sorted(self._tickets.values())
                    raise ServeError(
                        f"drain timed out with {self._core.in_flight} queries in "
                        f"flight after {timeout}s; stranded query ids: "
                        f"{stranded}"
                    )
                self._state.cond.wait(timeout=remaining)
            # final forced snapshot: the drained registry state is what
            # the audit's metrics family reconciles with the report books
            if self._snapshots is not None:
                self._snapshots.write(self._state.now())
        self.stop()
        if self.errors:
            qid, first = self.errors[0]
            raise ServeError(
                f"{len(self.errors)} quer{'y' if len(self.errors) == 1 else 'ies'} "
                f"failed during execution; first: query {qid}: {first!r}"
            ) from first

    def stop(self, finish_queued: bool = True) -> None:
        """Join every pool's workers (no drain semantics; see drain()).

        A query still in flight when the workers are gone ends
        ``ABANDONED`` (its span root closes so): its ticket's ``wait``
        returns False instead of hanging on work that no longer has
        anyone to run it.
        """
        for pool in self.pools.values():
            pool.stop(finish_queued=finish_queued)
        self._started = False
        if self._exporter is not None:
            # engine-owned exporter: release the scrape port with the
            # engine (close() is idempotent, so an outer finally that
            # also stops the exporter stays correct)
            self._exporter.close()
        with self._state.cond:
            now, end = self._state.now(), self._core.end
            for ticket, query_id in list(self._tickets.items()):
                finish = partial(self._finish, ticket)
                self._book(query_id, end, query_id, Outcome.ABANDONED, now, finish=finish)

    # -- reporting ------------------------------------------------------------

    def report(self) -> SystemReport:
        """Aggregate the run into a standard :class:`SystemReport`.

        The result carries the same audit trail as a simulated report
        (submission books, capacities, outstanding counts, timelines —
        over the retention window, with the retired totals), so every
        family of :func:`repro.sim.validate.audit` applies unchanged.
        ``exact_estimates`` is always False: realised wall-clock service
        can never exactly equal the model estimate, so the
        deterministic-drift family is (correctly) skipped.
        """
        with self._state.cond:
            return self._core.report(
                self._state.now(),
                self.pools,
                {name: pool.peak_capacity for name, pool in self.pools.items()},
                exact_estimates=False,
            )
