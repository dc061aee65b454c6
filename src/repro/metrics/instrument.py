"""Bind the runtime's observation points to a :class:`MetricsRegistry`.

Every adapter here is the metrics view of the query stage stream: a
subscriber in the run's :class:`~repro.core.stages.Subscribers` table,
beside the trace and span views, so they count the same stages by
construction.  Each looks up its instrument families once at
construction and then only does counter/gauge/histogram updates on the
hot path.  :class:`RuntimeMetrics` also derives the worker-pool
families: a station gains a waiting task at its query's admission
(first station) or at the translation's finish (processing station),
and loses it at the stage's start.  :class:`AdaptMetrics` counts the
adapt plane's own stages, and :class:`ObsMetrics` reads the span
tracer's totals behind the span view.

Metric family reference (all prefixed ``repro_``):

====================================  =========  ==================  =============================
family                                kind       labels              meaning
====================================  =========  ==================  =============================
queries_submitted_total               counter    —                   offered to the scheduler
queries_admitted_total                counter    —                   accepted (got a ticket)
queries_rejected_total                counter    —                   shed by admission control
queries_completed_total               counter    target              finished with a record
queries_failed_total                  counter    stage               errored in translation/service
in_flight_queries                     gauge      —                   admitted minus finished
query_latency_seconds                 histogram  target              end-to-end (submit→finish)
stage_latency_seconds                 histogram  stage               per-stage service time
scheduler_estimates_total             counter    —                   Figure-10 step-2 estimates
scheduler_decisions_total             counter    branch              Figure-10 branch taken
feedback_bias_ratio                   gauge      queue               measured/estimated ratio
feedback_correction_seconds           histogram  queue               signed applied deltas
pool_queue_depth                      gauge      pool                tasks waiting
pool_busy_workers                     gauge      pool                tasks in service
pool_wait_seconds                     histogram  pool                queue wait per task
pool_service_seconds                  histogram  pool                service time per task
pool_tasks_total                      counter    pool, outcome       ok/failed completions
rollup_hits_total                     counter    —                   answered from the rollup cache
rollup_misses_total                   counter    —                   fell through to the scheduler
rollup_hit_latency_seconds            histogram  —                   wall time to answer a cache hit
adapt_model_epoch                     gauge      —                   live estimator model version
adapt_refits_total                    counter    family, outcome     recalibration attempts by result
adapt_reconfigurations_total          counter    action              capacity controller actions
spans_recorded_total                  counter    —                   spans buffered by the tracer
spans_dropped_total                   counter    —                   spans lost to the buffer bound
span_traces_sampled_total             counter    outcome             head-sampling decisions by outcome
====================================  =========  ==================  =============================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.stages import Outcome
from repro.metrics.histogram import CORRECTION_BUCKETS
from repro.metrics.registry import MetricsRegistry

if TYPE_CHECKING:
    from repro.core.feedback import FeedbackStats
    from repro.core.partitions import PartitionQueue
    from repro.core.scheduler import QueryEstimates, ScheduleDecision
    from repro.query.model import Query

__all__ = [
    "RuntimeMetrics",
    "RollupMetrics",
    "AdaptMetrics",
    "ObsMetrics",
]


class RuntimeMetrics:
    """Engine-level instruments, fed by the query stage stream."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.submitted = registry.counter(
            "repro_queries_submitted_total",
            "Queries offered to the scheduler (admitted or not).",
        )
        self.admitted = registry.counter(
            "repro_queries_admitted_total", "Queries accepted for execution."
        )
        self.rejected = registry.counter(
            "repro_queries_rejected_total", "Queries shed by admission control."
        )
        self.completed = registry.counter(
            "repro_queries_completed_total",
            "Queries that finished with a record, by placement target.",
            labels=("target",),
        )
        self.failed = registry.counter(
            "repro_queries_failed_total",
            "Queries whose execution raised, by failing stage.",
            labels=("stage",),
        )
        self.in_flight = registry.gauge(
            "repro_in_flight_queries", "Admitted queries not yet finished."
        )
        self.e2e_latency = registry.histogram(
            "repro_query_latency_seconds",
            "End-to-end latency (submit to finish), by placement target.",
            labels=("target",),
        )
        self.stage_latency = registry.histogram(
            "repro_stage_latency_seconds",
            "Realised service time per pipeline stage.",
            labels=("stage",),
        )
        self.estimates = registry.counter(
            "repro_scheduler_estimates_total",
            "Figure-10 step-2 estimate computations.",
        )
        self.decisions = registry.counter(
            "repro_scheduler_decisions_total",
            "Placement decisions by Figure-10 branch.",
            labels=("branch",),
        )
        self.bias_ratio = registry.gauge(
            "repro_feedback_bias_ratio",
            "Running measured/estimated ratio per partition queue "
            "(1.0 = estimates unbiased).",
            labels=("queue",),
        )
        self.correction = registry.histogram(
            "repro_feedback_correction_seconds",
            "Signed booked-time corrections applied by the feedback loop.",
            labels=("queue",),
            buckets=CORRECTION_BUCKETS,
        )
        self.pool_depth = registry.gauge(
            "repro_pool_queue_depth", "Tasks waiting in the pool queue.", labels=("pool",)
        )
        self.pool_busy = registry.gauge(
            "repro_pool_busy_workers", "Tasks currently in service.", labels=("pool",)
        )
        self.pool_wait = registry.histogram(
            "repro_pool_wait_seconds", "Queue wait per task.", labels=("pool",)
        )
        self.pool_service = registry.histogram(
            "repro_pool_service_seconds", "Service time per task.", labels=("pool",)
        )
        self.pool_tasks = registry.counter(
            "repro_pool_tasks_total",
            "Tasks completed by the pool, by outcome.",
            labels=("pool", "outcome"),
        )
        #: per query id in translation, the processing stations it was
        #: admitted to (a list: a resubmitted query object may be in
        #: flight twice); bounded by the queries in flight
        self._processing: dict[int, list[str]] = {}

    # -- the stage stream (signatures: repro.core.stages.STAGES) ------------

    def on_submitted(self, query, query_class, now) -> None:
        self.submitted.inc()

    def on_estimated(
        self, query: "Query", est: "QueryEstimates", deadline: float, now: float
    ) -> None:
        self.estimates.inc()

    def on_decision(
        self,
        decision: "ScheduleDecision",
        candidates: Sequence[tuple["PartitionQueue", float]],
        branch: str,
        now: float,
    ) -> None:
        self.decisions.inc(branch=branch)

    def on_admitted(self, decision, in_flight, now) -> None:
        self.admitted.inc()
        self.in_flight.set(in_flight)
        # the query's first station gains a waiting task (Q_TRANS is the
        # translation station QueryLifecycle names)
        if decision.translation is None:
            self.pool_depth.inc(pool=decision.target.name)
        else:
            self.pool_depth.inc(pool="Q_TRANS")
            query_id = decision.query.query_id
            self._processing.setdefault(query_id, []).append(decision.target.name)

    def on_stage_start(self, stage, station, query_id, now, waited, service_time) -> None:
        self.pool_depth.dec(pool=station)
        self.pool_busy.inc(pool=station)
        self.pool_wait.observe(waited, pool=station)

    def on_stage_finish(
        self, stage, station, query_id, arrived, started, finished, service_time, error
    ) -> None:
        self.stage_latency.observe(service_time, stage=stage)
        self.pool_busy.dec(pool=station)
        self.pool_service.observe(service_time, pool=station)
        self.pool_tasks.inc(pool=station, outcome="ok" if error is None else "failed")
        if stage == "translation":
            targets = self._processing[query_id]
            target = targets.pop(0)
            if not targets:
                del self._processing[query_id]
            if error is None:
                # the handoff: the processing station gains a waiting task
                self.pool_depth.inc(pool=target)

    def on_feedback(
        self,
        queue_name: str,
        query_id: int | None,
        measured: float,
        estimated: float,
        applied: float,
        stats: "FeedbackStats",
        now: float,
    ) -> None:
        self.bias_ratio.set(stats.bias_ratio, queue=queue_name)
        self.correction.observe(applied, queue=queue_name)

    def on_outcome(self, query_id, outcome, record, detail, in_flight, now) -> None:
        if outcome is Outcome.REJECTED:
            self.rejected.inc()
            return
        if outcome is Outcome.ABANDONED:
            return  # still admitted and in flight: the ledger keeps it open
        if outcome is Outcome.FAILED:
            self.failed.inc(stage=detail)
        if record is not None:
            # failed-in-service queries still carry a record, so they
            # count as completed too; the audit's metrics family checks
            # admitted == completed + failed{translation} + in-flight
            self.completed.inc(target=record.target)
            self.e2e_latency.observe(record.response_time, target=record.target)
        self.in_flight.set(in_flight)


class RollupMetrics:
    """Rollup-cache tier counters and hit latency, fed by the stage stream.

    Subscribed only on a run with a router, where every query either
    hits (``on_cache_hit``) or is offered to the scheduler
    (``on_submitted``) — so a miss is exactly a submission.  The hit
    latency is the *real* wall time of the cuboid projection the router
    measured, independent of any injected engine clock, since the whole
    point of the tier is the physical microseconds a hit costs.
    """

    def __init__(self, registry: MetricsRegistry):
        self.hits = registry.counter(
            "repro_rollup_hits_total",
            "Queries answered from the materialized rollup cache.",
        )
        self.misses = registry.counter(
            "repro_rollup_misses_total",
            "Queries that missed the cache and went to the scheduler.",
        )
        self.hit_latency = registry.histogram(
            "repro_rollup_hit_latency_seconds",
            "Wall time to answer a query from a materialized cuboid.",
        )

    def on_cache_hit(self, record, source, seconds, now) -> None:
        self.hits.inc()
        self.hit_latency.observe(seconds)

    def on_submitted(self, query, query_class, now) -> None:
        self.misses.inc()


class AdaptMetrics:
    """Adapt-plane instruments, fed by the plane's refit, epoch and
    reconfig stages.  The epoch gauge is published at construction, so
    scrapes of an adaptive run always carry ``repro_adapt_model_epoch``.
    """

    def __init__(self, registry: MetricsRegistry):
        self.model_epoch = registry.gauge(
            "repro_adapt_model_epoch",
            "Version of the model bundle currently answering estimates.",
        )
        self.refits = registry.counter(
            "repro_adapt_refits_total",
            "Online recalibration attempts, by model family and outcome.",
            labels=("family", "outcome"),
        )
        self.reconfigurations = registry.counter(
            "repro_adapt_reconfigurations_total",
            "Capacity-controller reconfigurations, by action.",
            labels=("action",),
        )
        self.model_epoch.set(0)

    def on_refit(self, family: str, outcome: str, now: float) -> None:
        self.refits.inc(family=family, outcome=outcome)

    def on_epoch(self, epoch, now: float) -> None:
        self.model_epoch.set(epoch.version)

    def on_reconfig(self, record, now: float) -> None:
        self.reconfigurations.inc(action=record.action)


class ObsMetrics:
    """Span-plane health instruments, read from the tracer's totals.

    Subscribed right after :class:`~repro.obs.hooks.QuerySpans`: after
    each stage that may have touched a span it adds what the tracer's
    ``recorded``, ``dropped``, ``sampled_count`` and ``seen`` totals grew
    by since the run built it, so a reused tracer counts this run alone.
    """

    def __init__(self, registry: MetricsRegistry, tracer):
        recorded = registry.counter(
            "repro_spans_recorded_total",
            "Spans appended to the tracer's bounded buffer.",
        )
        dropped = registry.counter(
            "repro_spans_dropped_total",
            "Spans discarded because the buffer bound was reached.",
        )
        sampled = registry.counter(
            "repro_span_traces_sampled_total",
            "Head-sampling decisions, by outcome.",
            labels=("outcome",),
        )
        self._tracer = tracer
        self._counters = (
            (recorded, {}),
            (dropped, {}),
            (sampled, {"outcome": "sampled"}),
            (sampled, {"outcome": "unsampled"}),
        )
        self._counted = self._totals()

    def _totals(self) -> tuple[int, ...]:
        tracer = self._tracer
        sampled = tracer.sampled_count
        return (tracer.recorded, tracer.dropped, sampled, tracer.seen - sampled)

    def sync(self, *stage) -> None:
        """Add what the tracer's totals grew by since the last call."""
        totals = self._totals()
        for (counter, labels), total, counted in zip(
            self._counters, totals, self._counted
        ):
            if total > counted:
                counter.inc(total - counted, **labels)
        self._counted = totals

    on_cache_hit = on_submitted = on_estimated = on_decision = on_stage_finish = on_outcome = sync
