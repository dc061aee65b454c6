"""Simulation invariant checking — auditing realised schedules.

Section III-G's scheduler works only if *"each queue is aware of how
many jobs are outstanding and when all its jobs will be finished"* —
i.e. if the :math:`T_Q` books agree with what the discrete-event layer
actually does.  This module replays a :class:`~repro.sim.metrics.
SystemReport`'s per-server timelines against the queues'
:class:`~repro.core.partitions.Submission` records and checks four
invariant families:

``dependency``
    No job starts before the stage it depends on: a translated GPU
    query's processing never precedes its realised translation finish,
    and nothing starts before it was submitted (or before t=0).
``discipline``
    Every server honours FIFO order (a job that arrived strictly
    earlier never starts strictly later) and its capacity (never more
    than ``capacity`` jobs concurrently in service).
``conservation``
    Jobs are neither lost nor invented: per queue,
    submitted = completed + in-flight; every completed query record has
    a matching timeline entry; every translation submission pairs with
    exactly one pipeline-constrained processing submission.
``drift``
    When realised service times equal the estimates exactly
    (``noise_sigma=0``, ``noise_bias=1``) and every station has
    capacity 1, the realised schedule never finishes *later* than the
    scheduler's books: each server's last realised completion is
    bounded by its queue's final :math:`T_Q` (the booked schedule is
    feasible, and FIFO is work-conserving).  This is precisely the
    invariant the historical translated-query :math:`T_Q` under-count
    broke — the GPU queue believed it would drain at
    :math:`t_{gpu}` while the realised job could not even start before
    the translation finished.

A fifth family, ``trace``, audits a :class:`~repro.sim.obs.
TraceCollector`'s lifecycle events against the same books
(:func:`validate_trace`): every completed query's event stream must be
well-ordered (arrival -> estimated -> decision -> [translation] ->
service -> feedback), every ``decision`` event must match a
:class:`~repro.core.partitions.Submission` on its target queue (and
vice versa), and the rejected-event count must equal the report's.

A sixth family, ``metrics``, reconciles a live :class:`~repro.metrics.
registry.MetricsSnapshot` against the report books
(:func:`validate_metrics`): at drain, the exported counters, gauges and
latency histograms must agree *exactly* with what the run recorded —
the observability plane is itself under invariant test.

A seventh family, ``rollup``, audits the :mod:`repro.olap.rollup`
cache tier (:func:`validate_rollup`): cache-served queries live in
:attr:`~repro.sim.metrics.SystemReport.cache_hits` and *only* there —
they must never appear in the scheduler's submission books, the
servers' timelines, or the completion records (a query answered before
the scheduler was consulted by definition left no trace in the
:math:`T_Q` machinery).  With a collector, every hit's event stream is
exactly ``arrival -> cache-hit``; with a snapshot,
``repro_rollup_hits_total`` (and the hit-latency histogram count) must
equal the report's hit count and ``repro_rollup_misses_total`` the
scheduler-offered count.  The books-disjointness core of the family
also runs inside :func:`validate_report` whenever a report carries
cache hits, so the conftest audit covers every simulated run.

An eighth family, ``fleet``, audits a multi-process serving fleet's
merged books (:func:`validate_fleet`): the front door's per-shard
routing counts must equal what each shard's engine actually received,
the merged registry snapshot must be the *exact* sum of the per-shard
snapshots (fleet submitted = Σ shard submitted, per-target completions
reconcile label-for-label, merged latency histograms count-exact
against the shard records), and every live shard's own local audit must
have passed.  The checks are duck-typed against
:class:`repro.fleet.fleet.FleetReport`'s shape so this module never
imports :mod:`repro.fleet` (sim stays process-topology-agnostic).

A ninth family, ``adapt``, audits an adaptive run's model-swap and
reconfiguration history (:func:`validate_adapt`): epoch versions chain
consecutively from the init install, every refit epoch satisfies the
``RecalGuards`` envelope it ran under (min-samples, min-R², per-
coefficient max-step), the per-epoch decision books sum exactly to the
decisions served (no estimate crossed a torn model swap), and every
controller action respects its ``ControllerLimits`` (cooldown spacing,
action/trigger pairing, hard knob ranges, ``max_reconfigs``).  Duck-
typed against :class:`repro.adapt.plane.AdaptReport` so this module
never imports :mod:`repro.adapt`.

A tenth family, ``spans``, audits a distributed span trace
(:func:`validate_spans`): every trace has exactly one root, span ids
are unique per trace, no span ends before it starts, every non-root
span's parent exists in the same trace, and a same-process child lies
inside its parent's bounds (cross-process parents are exempt — the two
sides run on unaligned monotonic clocks).  With the run's sampling
context (``seed`` / ``sample_rate`` / ``submitted`` ids), the set of
traced ids must equal the head-sampling formula's output *exactly* —
the checker re-derives ``blake2b`` trace ids and sampling decisions
independently of :mod:`repro.obs`, which this module deliberately does
not import.  With a :class:`~repro.sim.metrics.SystemReport`, roots
reconcile with the completion records and every ``pool.service`` span
matches a server-timeline entry; with a :class:`~repro.sim.obs.
TraceCollector`, roots bracket the query's lifecycle events.  Traces
whose root completed over the wire must carry shard-side spans unless
the root was re-stamped ``partial`` (a crashed shard's severed tree is
flagged, never silently truncated).

:func:`seed_violation` (and :func:`seed_metrics_violation` /
:func:`seed_fleet_violation` / :func:`seed_adapt_violation` /
:func:`seed_spans_violation` for snapshots, fleet reports, adapt
reports and span sets) deliberately corrupts a report so tests can
prove the checkers fail loudly, not vacuously.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import InvariantViolation
from repro.sim.metrics import SystemReport

if TYPE_CHECKING:
    from repro.metrics.registry import MetricsSnapshot
    from repro.sim.obs import TraceCollector

__all__ = [
    "Violation",
    "ValidationResult",
    "validate_report",
    "validate_trace",
    "validate_metrics",
    "validate_rollup",
    "validate_fleet",
    "validate_adapt",
    "validate_spans",
    "assert_valid",
    "assert_trace_valid",
    "assert_metrics_valid",
    "assert_rollup_valid",
    "assert_fleet_valid",
    "assert_adapt_valid",
    "assert_spans_valid",
    "seed_violation",
    "seed_metrics_violation",
    "seed_fleet_violation",
    "seed_adapt_violation",
    "seed_spans_violation",
    "SEEDABLE_VIOLATIONS",
    "SEEDABLE_METRICS_VIOLATIONS",
    "SEEDABLE_FLEET_VIOLATIONS",
    "SEEDABLE_ADAPT_VIOLATIONS",
    "SEEDABLE_SPANS_VIOLATIONS",
]

#: timeline entry: (query_id, start, finish)
Entry = tuple[int, float, float]


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to debug it."""

    invariant: str  # "dependency" | "discipline" | "conservation" | "drift"
    queue: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.queue}: {self.message}"


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of one audit: which families ran, what they found."""

    violations: tuple[Violation, ...]
    checked: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"ok ({', '.join(self.checked)} checked)"
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def _index(timeline: tuple[Entry, ...]) -> dict[int, tuple[float, float]]:
    """query_id -> (start, finish) for one server's timeline."""
    return {qid: (start, finish) for qid, start, finish in timeline}


def _check_dependency(report: SystemReport, trans: str, tol: float) -> list[Violation]:
    out: list[Violation] = []
    trans_index = _index(report.timelines.get(trans, ()))
    records = {r.query_id: r for r in report.records}
    for name, timeline in report.timelines.items():
        for qid, start, finish in timeline:
            if finish < start - tol:
                out.append(
                    Violation(
                        "dependency",
                        name,
                        f"query {qid} finishes at {finish} before its own "
                        f"start {start}",
                    )
                )
            record = records.get(qid)
            if record is not None and start < record.submit_time - tol:
                out.append(
                    Violation(
                        "dependency",
                        name,
                        f"query {qid} starts at {start} before its submission "
                        f"at {record.submit_time}",
                    )
                )
    target_indices = {
        name: _index(tl) for name, tl in report.timelines.items()
    }
    for record in report.records:
        if not record.translated:
            continue
        translated = trans_index.get(record.query_id)
        translated_at = translated[1] if translated is not None else None
        entry = target_indices.get(record.target, {}).get(record.query_id)
        start = entry[0] if entry is not None else None
        if translated_at is None:
            out.append(
                Violation(
                    "dependency",
                    trans,
                    f"translated query {record.query_id} completed on "
                    f"{record.target} but never appears on the translation "
                    "timeline",
                )
            )
        elif start is not None and start < translated_at - tol:
            out.append(
                Violation(
                    "dependency",
                    record.target,
                    f"query {record.query_id} starts at {start} before its "
                    f"translation finishes at {translated_at}",
                )
            )
    return out


def _arrival_times(
    report: SystemReport, name: str, trans: str
) -> dict[int, float]:
    """When each job on server ``name`` became available to start.

    Translation jobs and untranslated processing jobs arrive when the
    scheduler submitted them; a translated query's processing job
    arrives at its realised translation finish.
    """
    arrivals: dict[int, float] = {}
    trans_index = _index(report.timelines.get(trans, ()))
    for sub in report.submissions.get(name, ()):
        if name != trans and sub.earliest_start is not None:
            realised = trans_index.get(sub.query_id)
            if realised is None:
                continue  # translation still in flight — job never started
            arrivals[sub.query_id] = realised[1]
        else:
            arrivals[sub.query_id] = sub.submit_time
    return arrivals


def _check_discipline(report: SystemReport, trans: str, tol: float) -> list[Violation]:
    out: list[Violation] = []
    for name, timeline in report.timelines.items():
        capacity = report.capacities.get(name, 1)

        # capacity: sweep the in-service interval count; a finish frees
        # its unit before a start at the same instant claims one
        events = sorted(
            [(start, 1, qid) for qid, start, _ in timeline]
            + [(finish, -1, qid) for qid, _, finish in timeline],
            key=lambda e: (e[0], e[1]),
        )
        in_service = 0
        for time, delta, qid in events:
            in_service += delta
            if in_service > capacity:
                out.append(
                    Violation(
                        "discipline",
                        name,
                        f"{in_service} jobs in service at t={time} exceeds "
                        f"capacity {capacity} (query {qid})",
                    )
                )
                break

        # FIFO: scan in realised start order; a job that arrived
        # strictly earlier than a previously-started job must not start
        # strictly later
        arrivals = _arrival_times(report, name, trans)
        started = sorted(
            (start, arrivals[qid], qid)
            for qid, start, _ in timeline
            if qid in arrivals
        )
        max_arrival = float("-inf")
        max_arrival_qid = None
        prev_start = float("-inf")
        for start, arrival, qid in started:
            if start > prev_start + tol and arrival < max_arrival - tol:
                out.append(
                    Violation(
                        "discipline",
                        name,
                        f"FIFO violated: query {qid} arrived at {arrival} but "
                        f"starts at {start}, after query {max_arrival_qid} "
                        f"which arrived later ({max_arrival})",
                    )
                )
                break
            if arrival > max_arrival:
                max_arrival = arrival
                max_arrival_qid = qid
            prev_start = max(prev_start, start)
    return out


def _check_conservation(report: SystemReport, trans: str) -> list[Violation]:
    out: list[Violation] = []
    for name, subs in report.submissions.items():
        completed = len(report.timelines.get(name, ()))
        in_flight = report.outstanding.get(name, 0)
        if len(subs) != completed + in_flight:
            out.append(
                Violation(
                    "conservation",
                    name,
                    f"{len(subs)} submitted != {completed} completed + "
                    f"{in_flight} in flight",
                )
            )

    # records and processing timelines must match one-to-one: every
    # completed record appears on its target's timeline with the same
    # finish time, and every service interval on a processing server
    # produced a record (translation serves a pipeline *stage*, not a
    # whole query, so its timeline has no records of its own)
    indices = {name: _index(tl) for name, tl in report.timelines.items()}
    recorded: dict[str, dict[int, float]] = {}
    for record in report.records:
        recorded.setdefault(record.target, {})[record.query_id] = record.finish_time
        entry = indices.get(record.target, {}).get(record.query_id)
        finish = entry[1] if entry is not None else None
        if finish is None or finish != record.finish_time:
            out.append(
                Violation(
                    "conservation",
                    record.target,
                    f"record for query {record.query_id} (finish "
                    f"{record.finish_time}) has no matching timeline entry",
                )
            )
    for name, timeline in report.timelines.items():
        if name == trans:
            continue
        for qid, _, finish in timeline:
            if recorded.get(name, {}).get(qid) != finish:
                out.append(
                    Violation(
                        "conservation",
                        name,
                        f"query {qid} served on {name} (finish {finish}) but "
                        "the run has no completion record for it — the job "
                        "was lost",
                    )
                )

    # each translation submission pairs with exactly one
    # pipeline-constrained processing submission
    if trans in report.submissions:
        pipelined = sum(
            1
            for name, subs in report.submissions.items()
            if name != trans
            for sub in subs
            if sub.earliest_start is not None
        )
        n_trans = len(report.submissions[trans])
        if pipelined != n_trans:
            out.append(
                Violation(
                    "conservation",
                    trans,
                    f"{n_trans} translation submissions but {pipelined} "
                    "pipeline-constrained processing submissions",
                )
            )
    return out


def _check_drift(report: SystemReport, tol: float) -> list[Violation]:
    out: list[Violation] = []
    for record in report.records:
        if abs(record.measured_time - record.estimated_time) > tol:
            out.append(
                Violation(
                    "drift",
                    record.target,
                    f"deterministic run but query {record.query_id} measured "
                    f"{record.measured_time} != estimated {record.estimated_time}",
                )
            )
    for name, subs in report.submissions.items():
        timeline = report.timelines.get(name, ())
        if not subs or not timeline:
            continue
        realised_last = max(finish for _, _, finish in timeline)
        booked_last = max(sub.estimated_finish for sub in subs)
        if realised_last > booked_last + tol:
            out.append(
                Violation(
                    "drift",
                    name,
                    f"realised schedule drains at {realised_last}, after the "
                    f"queue's booked T_Q {booked_last} — the T_Q books "
                    "under-count the realised backlog",
                )
            )
    return out


def _check_rollup_books(report: SystemReport) -> list[Violation]:
    """Core of the ``rollup`` family: cache hits live outside the books.

    A cache-served query was answered before the scheduler was
    consulted, so it must appear in no submission book, no server
    timeline, and no completion record; its zero-cost record must be
    internally consistent (finish >= submit) and no query may be
    cache-served twice.
    """
    out: list[Violation] = []
    served = Counter(r.query_id for r in report.cache_hits)
    for qid in sorted(qid for qid, times in served.items() if times > 1):
        out.append(
            Violation(
                "rollup",
                "cache",
                f"query {qid} appears {served[qid]} times in "
                "cache_hits — a query is served at most once",
            )
        )
    scheduled = {r.query_id for r in report.records}
    booked = {
        sub.query_id for subs in report.submissions.values() for sub in subs
    }
    timelined = {
        qid for tl in report.timelines.values() for qid, _, _ in tl
    }
    for rec in report.cache_hits:
        if rec.finish_time < rec.submit_time:
            out.append(
                Violation(
                    "rollup",
                    "cache",
                    f"cache hit for query {rec.query_id} finishes at "
                    f"{rec.finish_time} before its submission at "
                    f"{rec.submit_time}",
                )
            )
        for where, ids in (
            ("completion records", scheduled),
            ("submission books", booked),
            ("server timelines", timelined),
        ):
            if rec.query_id in ids:
                out.append(
                    Violation(
                        "rollup",
                        "cache",
                        f"cache-served query {rec.query_id} also appears in "
                        f"the {where} — a hit must bypass the scheduler "
                        "entirely",
                    )
                )
    return out


def validate_report(
    report: SystemReport,
    *,
    trans_queue: str = "Q_TRANS",
    tolerance: float = 1e-9,
    drift_tolerance: float = 1e-6,
    require_drained: bool = False,
) -> ValidationResult:
    """Audit one simulated or served run; returns every violation found.

    The ``drift`` family only runs when the report declares
    ``exact_estimates`` (deterministic service times) and every station
    has capacity 1 — with parallel translation workers the queue's
    fluid :math:`T_Q` is a throughput approximation, not a per-job
    bound.

    ``require_drained`` strengthens ``conservation`` for reports taken
    after a completed run (a finished simulation, or a serving engine
    after :meth:`~repro.serve.ServeEngine.drain`): every queue must show
    zero outstanding jobs — accepted work that never completed is a
    violation, not merely "in flight".

    When the report carries rollup-cache hits, the books-disjointness
    core of the ``rollup`` family runs as well (the trace/metrics
    reconciliations need :func:`validate_rollup`).
    """
    violations: list[Violation] = []
    checked = ["dependency", "discipline", "conservation"]
    violations += _check_dependency(report, trans_queue, tolerance)
    violations += _check_discipline(report, trans_queue, tolerance)
    violations += _check_conservation(report, trans_queue)
    if require_drained:
        for name, outstanding in sorted(report.outstanding.items()):
            if outstanding:
                violations.append(
                    Violation(
                        "conservation",
                        name,
                        f"{outstanding} job(s) still outstanding after a "
                        "drained run",
                    )
                )
    if report.exact_estimates and all(
        c == 1 for c in report.capacities.values()
    ):
        checked.append("drift")
        violations += _check_drift(report, drift_tolerance)
    if report.cache_hits:
        checked.append("rollup")
        violations += _check_rollup_books(report)
    return ValidationResult(
        violations=tuple(violations), checked=tuple(checked)
    )


def assert_valid(report: SystemReport, **kwargs) -> SystemReport:
    """Raise :class:`~repro.errors.InvariantViolation` on a bad run.

    Returns the report unchanged so call sites can chain:
    ``report = assert_valid(system.run(stream))``.
    """
    result = validate_report(report, **kwargs)
    if not result.ok:
        raise InvariantViolation(result.summary())
    return report


def _events_by_query(collector: "TraceCollector") -> dict[int, list]:
    """query id -> its events in emission order, in one pass.

    ``collector.events_for`` rescans every event per call, which is
    quadratic when asked once per query of a long run.
    """
    by_query: dict[int, list] = {}
    for event in collector.events:
        if event.query_id is not None:
            by_query.setdefault(event.query_id, []).append(event)
    return by_query


def _expected_lifecycle(translated: bool) -> tuple[str, ...]:
    """The well-ordered event stream of one completed query."""
    kinds = ["arrival", "estimated", "decision"]
    if translated:
        kinds += ["translation_start", "translation_finish", "feedback"]
    kinds += ["service_start", "service_finish", "feedback"]
    return tuple(kinds)


def validate_trace(
    report: SystemReport,
    collector: "TraceCollector",
    *,
    trans_queue: str = "Q_TRANS",
    tolerance: float = 1e-9,
) -> ValidationResult:
    """Cross-check a lifecycle trace against the :math:`T_Q` books.

    Three reconciliations, reported as the ``trace`` invariant family:

    * every *completed* query's event stream is exactly the expected
      lifecycle (arrival -> estimated -> decision -> [translation_start
      -> translation_finish -> feedback] -> service_start ->
      service_finish -> feedback), with non-decreasing timestamps, a
      ``decision`` at the record's submit time on the record's target,
      and a ``service_finish`` at the record's finish time;
    * ``decision`` events match the queues'
      :class:`~repro.core.partitions.Submission` records one-to-one —
      same query, same submit time, same estimated processing time —
      and decisions carrying a translation stage match the translation
      queue's submission count (this also covers truncated runs, where
      submissions outnumber completion records);
    * ``rejected`` events equal the report's rejected count.
    """
    violations: list[Violation] = []

    events_by_query = _events_by_query(collector)

    # -- (1) per-query lifecycle ordering for completed queries ----------
    for record in report.records:
        events = events_by_query.get(record.query_id, [])
        kinds = tuple(e.kind for e in events)
        expected = _expected_lifecycle(record.translated)
        if kinds != expected:
            violations.append(
                Violation(
                    "trace",
                    record.target,
                    f"query {record.query_id} event stream {kinds} != "
                    f"expected {expected}",
                )
            )
            continue
        times = [e.time for e in events]
        if any(b < a - tolerance for a, b in zip(times, times[1:])):
            violations.append(
                Violation(
                    "trace",
                    record.target,
                    f"query {record.query_id} events move backwards in "
                    f"time: {times}",
                )
            )
        decision = events[kinds.index("decision")]
        if abs(decision.time - record.submit_time) > tolerance:
            violations.append(
                Violation(
                    "trace",
                    record.target,
                    f"query {record.query_id} decision at {decision.time} "
                    f"!= record submit time {record.submit_time}",
                )
            )
        if decision.data.get("target") != record.target:
            violations.append(
                Violation(
                    "trace",
                    record.target,
                    f"query {record.query_id} decision targets "
                    f"{decision.data.get('target')!r} but the record "
                    f"completed on {record.target!r}",
                )
            )
        finish = events[kinds.index("service_finish")]
        if abs(finish.time - record.finish_time) > tolerance:
            violations.append(
                Violation(
                    "trace",
                    record.target,
                    f"query {record.query_id} service_finish at "
                    f"{finish.time} != record finish {record.finish_time}",
                )
            )

    # -- (2) decision events reconcile with the Submission books ---------
    decisions = [e for e in collector.events if e.kind == "decision"]
    decisions_by_target: dict[str, list] = {}
    for event in decisions:
        decisions_by_target.setdefault(event.data["target"], []).append(event)
    for name in decisions_by_target:
        if name not in report.submissions:
            violations.append(
                Violation(
                    "trace",
                    name,
                    f"decision events target {name!r} but the report has "
                    "no submission book for it",
                )
            )
    for name, subs in report.submissions.items():
        if name == trans_queue:
            pipelined = sum(
                1 for e in decisions if e.data.get("translation") is not None
            )
            if pipelined != len(subs):
                violations.append(
                    Violation(
                        "trace",
                        name,
                        f"{len(subs)} translation submissions but "
                        f"{pipelined} decision events carry a translation "
                        "stage",
                    )
                )
            continue
        events = decisions_by_target.get(name, [])
        if len(events) != len(subs):
            violations.append(
                Violation(
                    "trace",
                    name,
                    f"{len(subs)} submissions but {len(events)} decision "
                    "events",
                )
            )
            continue
        booked = {sub.query_id: sub for sub in subs}
        for event in events:
            sub = booked.get(event.query_id)
            if sub is None:
                violations.append(
                    Violation(
                        "trace",
                        name,
                        f"decision for query {event.query_id} has no "
                        "submission record",
                    )
                )
            elif (
                abs(sub.submit_time - event.time) > tolerance
                or abs(sub.estimated_time - event.data["estimated_time"])
                > tolerance
            ):
                violations.append(
                    Violation(
                        "trace",
                        name,
                        f"decision for query {event.query_id} "
                        f"(t={event.time}, "
                        f"est={event.data['estimated_time']}) disagrees "
                        f"with its submission (t={sub.submit_time}, "
                        f"est={sub.estimated_time})",
                    )
                )

    # -- (3) rejections --------------------------------------------------
    n_rejected = sum(1 for e in collector.events if e.kind == "rejected")
    if n_rejected != report.rejected:
        violations.append(
            Violation(
                "trace",
                trans_queue,
                f"{n_rejected} rejected events but the report counts "
                f"{report.rejected} rejections",
            )
        )

    return ValidationResult(violations=tuple(violations), checked=("trace",))


def assert_trace_valid(
    report: SystemReport, collector: "TraceCollector", **kwargs
) -> SystemReport:
    """Raise :class:`~repro.errors.InvariantViolation` on a bad trace."""
    result = validate_trace(report, collector, **kwargs)
    if not result.ok:
        raise InvariantViolation(result.summary())
    return report


#: metric families validate_metrics requires in every instrumented run
_CORE_FAMILIES = (
    "repro_queries_submitted_total",
    "repro_queries_admitted_total",
    "repro_queries_rejected_total",
    "repro_queries_completed_total",
    "repro_queries_failed_total",
    "repro_in_flight_queries",
    "repro_query_latency_seconds",
    "repro_scheduler_decisions_total",
)


def validate_metrics(
    report: SystemReport,
    snapshot: "MetricsSnapshot",
    *,
    tolerance: float = 1e-6,
) -> ValidationResult:
    """Reconcile a metrics snapshot against the report books exactly.

    The ``metrics`` invariant family: at the end of a run (a finished
    simulation, or a served engine after ``drain()``), the live
    registry's exported state must agree with the
    :class:`~repro.sim.metrics.SystemReport` it was recorded alongside:

    * every core family exists in the snapshot;
    * ``rejected_total`` equals the report's rejected count, and
      ``submitted_total == admitted_total + rejected_total``;
    * ``completed_total`` matches the report's per-target completion
      counts label-for-label, both directions;
    * the in-flight ledger balances:
      ``admitted == completed + failed{stage=translation} + in_flight``
      (a query that fails *in service* still produces a record, so it
      counts as completed *and* as ``failed{stage=service}``);
    * on a drained run (no outstanding jobs anywhere), the in-flight
      gauge reads zero;
    * the end-to-end latency histogram carries exactly one observation
      per completed record, per target, and its ``_sum`` equals the
      summed response times within ``tolerance``;
    * Figure-10 decision counters sum to the admitted count;
    * when pool instruments are attached (serving runs),
      ``pool_tasks_total`` per pool equals that pool's timeline length;
    * every exported feedback bias-ratio gauge equals the corresponding
      :class:`~repro.core.feedback.FeedbackStats` ratio.
    """
    violations: list[Violation] = []

    def bad(queue: str, message: str) -> None:
        violations.append(Violation("metrics", queue, message))

    missing = [name for name in _CORE_FAMILIES if snapshot.family(name) is None]
    for name in missing:
        bad(name, "core metric family missing from snapshot")
    if missing:
        return ValidationResult(tuple(violations), checked=("metrics",))

    submitted = snapshot.value("repro_queries_submitted_total")
    admitted = snapshot.value("repro_queries_admitted_total")
    rejected = snapshot.value("repro_queries_rejected_total")
    completed_fam = snapshot.family("repro_queries_completed_total")
    failed_fam = snapshot.family("repro_queries_failed_total")
    in_flight = snapshot.value("repro_in_flight_queries")

    if rejected != report.rejected:
        bad(
            "repro_queries_rejected_total",
            f"counter reads {rejected} but the report counts "
            f"{report.rejected} rejections",
        )
    if submitted != admitted + rejected:
        bad(
            "repro_queries_submitted_total",
            f"{submitted} submitted != {admitted} admitted + "
            f"{rejected} rejected",
        )

    by_target = report.by_target()
    for (target,), count in completed_fam.items():
        if by_target.get(target, 0) != count:
            bad(
                "repro_queries_completed_total",
                f"counter says {count:g} completions on {target} but the "
                f"report records {by_target.get(target, 0)}",
            )
    for target, count in sorted(by_target.items()):
        if completed_fam.value(target=target) != count:
            bad(
                "repro_queries_completed_total",
                f"report records {count} completions on {target} but the "
                f"counter reads {completed_fam.value(target=target):g}",
            )

    completed_total = completed_fam.total()
    failed_translation = failed_fam.value(stage="translation")
    if admitted != completed_total + failed_translation + in_flight:
        bad(
            "repro_in_flight_queries",
            f"ledger does not balance: {admitted} admitted != "
            f"{completed_total} completed + {failed_translation} "
            f"failed-in-translation + {in_flight} in flight",
        )
    if all(n == 0 for n in report.outstanding.values()) and in_flight != 0:
        bad(
            "repro_in_flight_queries",
            f"drained run (no outstanding jobs) but the gauge reads "
            f"{in_flight}",
        )

    latency_fam = snapshot.family("repro_query_latency_seconds")
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for record in report.records:
        sums[record.target] = sums.get(record.target, 0.0) + record.response_time
        counts[record.target] = counts.get(record.target, 0) + 1
    seen_targets = {key[0] for key, _ in latency_fam.items()}
    for target in sorted(set(counts) | seen_targets):
        hist = latency_fam.histogram(target=target)
        n = hist.count if hist is not None else 0
        total = hist.total if hist is not None else 0.0
        if n != counts.get(target, 0):
            bad(
                "repro_query_latency_seconds",
                f"{n} observations on {target} but the report has "
                f"{counts.get(target, 0)} records",
            )
        elif abs(total - sums.get(target, 0.0)) > tolerance * max(1, n):
            bad(
                "repro_query_latency_seconds",
                f"histogram sum {total} on {target} != summed response "
                f"times {sums.get(target, 0.0)}",
            )

    decisions = snapshot.family("repro_scheduler_decisions_total").total()
    if decisions != admitted:
        bad(
            "repro_scheduler_decisions_total",
            f"{decisions:g} Figure-10 decisions != {admitted:g} admitted",
        )

    pool_fam = snapshot.family("repro_pool_tasks_total")
    if pool_fam is not None:
        pool_counts: dict[str, float] = {}
        for (pool, _outcome), count in pool_fam.items():
            pool_counts[pool] = pool_counts.get(pool, 0.0) + count
        for pool, count in sorted(pool_counts.items()):
            served = len(report.timelines.get(pool, ()))
            if count != served:
                bad(
                    "repro_pool_tasks_total",
                    f"{count:g} tasks counted on {pool} but its timeline "
                    f"has {served} entries",
                )

    bias_fam = snapshot.family("repro_feedback_bias_ratio")
    if bias_fam is not None:
        for (queue,), gauge in bias_fam.items():
            stats = report.feedback_stats.get(queue)
            expected = stats.bias_ratio if stats is not None else None
            if expected is None or not math.isclose(
                gauge, expected, rel_tol=1e-9, abs_tol=tolerance
            ):
                bad(
                    "repro_feedback_bias_ratio",
                    f"gauge reads {gauge} for {queue} but the feedback "
                    f"stats give {expected}",
                )

    return ValidationResult(tuple(violations), checked=("metrics",))


def assert_metrics_valid(
    report: SystemReport, snapshot: "MetricsSnapshot", **kwargs
) -> SystemReport:
    """Raise :class:`~repro.errors.InvariantViolation` on a bad snapshot."""
    result = validate_metrics(report, snapshot, **kwargs)
    if not result.ok:
        raise InvariantViolation(result.summary())
    return report


def validate_rollup(
    report: SystemReport,
    *,
    collector: "TraceCollector | None" = None,
    snapshot: "MetricsSnapshot | None" = None,
) -> ValidationResult:
    """Audit the rollup-cache tier against the report, trace, and metrics.

    The ``rollup`` invariant family, in three layers (each optional
    input adds one):

    * **books** (always): every cache-served query in
      :attr:`~repro.sim.metrics.SystemReport.cache_hits` is absent from
      the submission books, server timelines and completion records,
      appears at most once, and its record has ``finish >= submit``;
    * **trace** (with ``collector``): the number of ``cache-hit``
      events equals the report's hit count, and every hit's per-query
      event stream is exactly ``("arrival", "cache-hit")`` — a hit must
      emit no ``estimated``/``decision``/service events;
    * **metrics** (with ``snapshot``): ``repro_rollup_hits_total`` and
      the hit-latency histogram count equal the report's hit count, and
      ``repro_rollup_misses_total`` equals
      ``repro_queries_submitted_total`` when that family is present
      (every miss — and only misses — is offered to the scheduler).
    """
    violations = _check_rollup_books(report)

    def bad(message: str) -> None:
        violations.append(Violation("rollup", "cache", message))

    hits = report.cache_hits
    if collector is not None:
        n_events = sum(1 for e in collector.events if e.kind == "cache-hit")
        events_by_query = _events_by_query(collector)
        if n_events != len(hits):
            bad(
                f"{n_events} cache-hit events but the report carries "
                f"{len(hits)} cache hits"
            )
        for rec in hits:
            kinds = tuple(e.kind for e in events_by_query.get(rec.query_id, ()))
            if kinds != ("arrival", "cache-hit"):
                bad(
                    f"cache-served query {rec.query_id} has event stream "
                    f"{kinds} != ('arrival', 'cache-hit')"
                )

    if snapshot is not None:
        fam = snapshot.family("repro_rollup_hits_total")
        if fam is None:
            if hits:
                bad(
                    "report carries cache hits but the snapshot has no "
                    "repro_rollup_hits_total family"
                )
        else:
            counted = snapshot.value("repro_rollup_hits_total")
            if counted != len(hits):
                bad(
                    f"repro_rollup_hits_total reads {counted:g} but the "
                    f"report carries {len(hits)} cache hits"
                )
            hist = snapshot.histogram("repro_rollup_hit_latency_seconds")
            n = hist.count if hist is not None else 0
            if n != len(hits):
                bad(
                    f"hit-latency histogram has {n} observations but the "
                    f"report carries {len(hits)} cache hits"
                )
            misses_fam = snapshot.family("repro_rollup_misses_total")
            submitted_fam = snapshot.family("repro_queries_submitted_total")
            if misses_fam is not None and submitted_fam is not None:
                misses = snapshot.value("repro_rollup_misses_total")
                submitted = snapshot.value("repro_queries_submitted_total")
                if misses != submitted:
                    bad(
                        f"repro_rollup_misses_total reads {misses:g} but "
                        f"{submitted:g} queries were offered to the "
                        "scheduler — every miss, and only misses, reach it"
                    )

    return ValidationResult(tuple(violations), checked=("rollup",))


def assert_rollup_valid(report: SystemReport, **kwargs) -> SystemReport:
    """Raise :class:`~repro.errors.InvariantViolation` on a bad cache tier."""
    result = validate_rollup(report, **kwargs)
    if not result.ok:
        raise InvariantViolation(result.summary())
    return report


def validate_fleet(fleet) -> ValidationResult:
    """Audit a multi-process fleet's merged books: the ``fleet`` family.

    ``fleet`` is duck-typed against :class:`repro.fleet.fleet.
    FleetReport` (this module deliberately does not import
    :mod:`repro.fleet`): it must expose ``shards`` (per-shard views with
    ``shard_id``, ``records``, ``cache_hits``, ``rejected``,
    ``snapshot``, ``validation``), ``routed`` / ``failed`` mappings of
    shard id to the front door's books, ``crashed`` shard ids, and the
    ``merged`` :class:`~repro.metrics.registry.MetricsSnapshot`.

    Five reconciliations:

    * a shard cannot be both live and crashed;
    * **routing books**: for every live shard with no failed requests,
      the front door's routed count equals what the shard's engine
      received — its ``repro_queries_submitted_total`` (scheduler-
      offered, which includes rejections) plus its cache hits;
    * **fleet submitted = Σ shard submitted**: the merged counter is
      the exact sum of the per-shard counters;
    * **per-target completions reconcile**: the merged
      ``repro_queries_completed_total`` equals the sum of shard record
      counts per target, both directions;
    * **merged histograms count-exact**: the merged per-target latency
      histogram carries exactly one observation per shard record;
    * every live shard's local audit (``validate_report`` +
      ``validate_metrics`` run inside the worker process) reported ok.
    """
    violations: list[Violation] = []

    def bad(queue: str, message: str) -> None:
        violations.append(Violation("fleet", queue, message))

    live = {shard.shard_id for shard in fleet.shards}
    for sid in fleet.crashed:
        if sid in live:
            bad(f"shard-{sid}", "shard is reported both live and crashed")

    total_submitted = 0.0
    per_target_records: dict[str, int] = {}
    per_target_shard_counters: dict[str, float] = {}
    for shard in fleet.shards:
        sid = shard.shard_id
        snapshot = shard.snapshot
        fam = snapshot.family("repro_queries_submitted_total")
        submitted = 0.0 if fam is None else fam.value()
        total_submitted += submitted
        received = submitted + len(shard.cache_hits)
        routed = fleet.routed.get(sid, 0)
        failed = fleet.failed.get(sid, 0)
        if failed == 0 and routed != received:
            bad(
                f"shard-{sid}",
                f"front door routed {routed} queries here but the shard "
                f"received {received:g} ({submitted:g} scheduler-offered "
                f"+ {len(shard.cache_hits)} cache hits)",
            )
        for record in shard.records:
            per_target_records[record.target] = (
                per_target_records.get(record.target, 0) + 1
            )
        completed_fam = snapshot.family("repro_queries_completed_total")
        if completed_fam is not None:
            for (target,), count in completed_fam.items():
                per_target_shard_counters[target] = (
                    per_target_shard_counters.get(target, 0.0) + count
                )
        if not str(shard.validation).startswith("ok"):
            bad(f"shard-{sid}", f"local audit failed: {shard.validation}")

    merged = fleet.merged
    merged_submitted_fam = merged.family("repro_queries_submitted_total")
    merged_submitted = (
        0.0 if merged_submitted_fam is None else merged_submitted_fam.value()
    )
    if merged_submitted != total_submitted:
        bad(
            "repro_queries_submitted_total",
            f"merged counter reads {merged_submitted:g} but the shard "
            f"snapshots sum to {total_submitted:g}",
        )

    merged_completed = merged.family("repro_queries_completed_total")
    merged_counts: dict[str, float] = {}
    if merged_completed is not None:
        merged_counts = {
            target: count for (target,), count in merged_completed.items()
        }
    for target in sorted(set(merged_counts) | set(per_target_records)):
        merged_n = merged_counts.get(target, 0.0)
        records_n = per_target_records.get(target, 0)
        shard_n = per_target_shard_counters.get(target, 0.0)
        if merged_n != records_n or merged_n != shard_n:
            bad(
                "repro_queries_completed_total",
                f"completions on {target} do not reconcile: merged counter "
                f"{merged_n:g}, shard counters {shard_n:g}, shard records "
                f"{records_n}",
            )

    latency_fam = merged.family("repro_query_latency_seconds")
    if latency_fam is not None:
        seen = {key[0] for key, _ in latency_fam.items()}
        for target in sorted(seen | set(per_target_records)):
            hist = latency_fam.histogram(target=target)
            n = hist.count if hist is not None else 0
            if n != per_target_records.get(target, 0):
                bad(
                    "repro_query_latency_seconds",
                    f"merged histogram has {n} observations on {target} but "
                    f"the shards recorded "
                    f"{per_target_records.get(target, 0)} completions",
                )

    return ValidationResult(tuple(violations), checked=("fleet",))


def assert_fleet_valid(fleet):
    """Raise :class:`~repro.errors.InvariantViolation` on bad fleet books."""
    result = validate_fleet(fleet)
    if not result.ok:
        raise InvariantViolation(result.summary())
    return fleet


#: corruption modes understood by :func:`seed_fleet_violation`
SEEDABLE_FLEET_VIOLATIONS = ("routed", "merged-submitted", "lost-record")


def seed_fleet_violation(fleet, kind: str):
    """Return a copy of a fleet report with one reconciliation broken.

    The fleet analogue of :func:`seed_violation`; works on any frozen-
    dataclass fleet report with the :func:`validate_fleet` shape.
    ``kind`` is one of :data:`SEEDABLE_FLEET_VIOLATIONS`.
    """
    if not fleet.shards:
        raise InvariantViolation("cannot seed a fleet violation: no live shards")
    first = fleet.shards[0]

    if kind == "routed":
        routed = dict(fleet.routed)
        routed[first.shard_id] = routed.get(first.shard_id, 0) + 1
        return replace(fleet, routed=routed)

    if kind == "merged-submitted":
        merged = fleet.merged
        fam = merged.family("repro_queries_submitted_total")
        if fam is None:
            raise InvariantViolation(
                "cannot seed a merged-submitted violation: family missing"
            )
        bumped = replace(fam, samples={**fam.samples, (): fam.value() + 1.0})
        return replace(
            fleet,
            merged=replace(
                merged,
                families=tuple(
                    bumped if f.name == fam.name else f
                    for f in merged.families
                ),
            ),
        )

    if kind == "lost-record":
        if not first.records:
            raise InvariantViolation(
                "cannot seed a lost-record violation: shard has no records"
            )
        shards = (replace(first, records=first.records[:-1]),) + tuple(
            fleet.shards[1:]
        )
        return replace(fleet, shards=shards)

    raise InvariantViolation(
        f"unknown violation kind {kind!r}; expected one of "
        f"{SEEDABLE_FLEET_VIOLATIONS}"
    )


#: corruption modes understood by :func:`seed_metrics_violation`
SEEDABLE_METRICS_VIOLATIONS = ("completed", "latency", "in-flight", "missing-family")


def seed_metrics_violation(snapshot: "MetricsSnapshot", kind: str) -> "MetricsSnapshot":
    """Return a copy of ``snapshot`` with one reconciliation broken.

    The metrics-plane analogue of :func:`seed_violation`: tests corrupt
    a healthy snapshot and prove :func:`validate_metrics` fails loudly.
    ``kind`` is one of :data:`SEEDABLE_METRICS_VIOLATIONS`.
    """

    def swap_family(name: str, new_samples: dict) -> "MetricsSnapshot":
        return replace(
            snapshot,
            families=tuple(
                replace(fam, samples=new_samples) if fam.name == name else fam
                for fam in snapshot.families
            ),
        )

    if kind == "missing-family":
        return replace(
            snapshot,
            families=tuple(
                fam
                for fam in snapshot.families
                if fam.name != "repro_queries_submitted_total"
            ),
        )

    if kind == "completed":
        fam = snapshot.family("repro_queries_completed_total")
        if fam is None or not fam.samples:
            raise InvariantViolation(
                "cannot seed a completed-counter violation: no completions"
            )
        key = next(iter(sorted(fam.samples)))
        return swap_family(fam.name, {**fam.samples, key: fam.samples[key] + 1})

    if kind == "latency":
        fam = snapshot.family("repro_query_latency_seconds")
        if fam is None or not fam.samples:
            raise InvariantViolation(
                "cannot seed a latency violation: no latency observations"
            )
        key = next(iter(sorted(fam.samples)))
        hist = fam.samples[key]
        return swap_family(
            fam.name, {**fam.samples, key: replace(hist, total=hist.total + 1000.0)}
        )

    if kind == "in-flight":
        fam = snapshot.family("repro_in_flight_queries")
        if fam is None:
            raise InvariantViolation(
                "cannot seed an in-flight violation: gauge family missing"
            )
        return swap_family(fam.name, {**fam.samples, (): 1.0 + fam.value()})

    raise InvariantViolation(
        f"unknown violation kind {kind!r}; expected one of "
        f"{SEEDABLE_METRICS_VIOLATIONS}"
    )


#: corruption modes understood by :func:`seed_violation`
SEEDABLE_VIOLATIONS = (
    "dependency",
    "discipline",
    "conservation",
    "drift",
    "rollup",
)


def seed_violation(report: SystemReport, kind: str) -> SystemReport:
    """Return a copy of ``report`` with one invariant deliberately broken.

    Used by the test suite (and available for manual sanity checks) to
    prove the checker actually fails on bad schedules instead of
    passing vacuously.  ``kind`` is one of :data:`SEEDABLE_VIOLATIONS`.
    """
    if kind == "conservation":
        if not report.records:
            raise InvariantViolation("cannot seed a violation into an empty run")
        return replace(report, records=report.records[:-1])

    if kind == "drift":
        name, timeline = max(
            ((n, t) for n, t in report.timelines.items() if t),
            key=lambda item: len(item[1]),
        )
        qid, start, finish = timeline[-1]
        pushed = timeline[:-1] + ((qid, start, finish + report.horizon + 1.0),)
        return replace(report, timelines={**report.timelines, name: pushed})

    if kind == "dependency":
        for record in report.records:
            if not record.translated:
                continue
            timeline = report.timelines[record.target]
            entries = list(timeline)
            for i, (qid, start, finish) in enumerate(entries):
                if qid == record.query_id:
                    entries[i] = (qid, record.submit_time - 1.0, finish)
                    return replace(
                        report,
                        timelines={
                            **report.timelines,
                            record.target: tuple(entries),
                        },
                    )
        raise InvariantViolation(
            "cannot seed a dependency violation: no translated query completed"
        )

    if kind == "rollup":
        if not report.records:
            raise InvariantViolation(
                "cannot seed a rollup violation: need a scheduled record"
            )
        # claim a scheduler-served query was also answered by the cache:
        # the same query now both bypassed and traversed the scheduler,
        # which the books-disjointness check must reject
        rec = report.records[0]
        dup = replace(
            rec,
            target="Q_ROLLUP",
            finish_time=rec.submit_time,
            estimated_time=0.0,
            measured_time=0.0,
        )
        return replace(report, cache_hits=report.cache_hits + (dup,))

    if kind == "discipline":
        for name, timeline in report.timelines.items():
            if len(timeline) >= 2 and report.capacities.get(name, 1) == 1:
                entries = sorted(timeline, key=lambda e: e[1])
                first, second = entries[0], entries[1]
                if first[2] > first[1]:  # first job has positive service
                    overlapped = (second[0], first[1], second[2])
                    corrupted = tuple(
                        overlapped if e == second else e for e in timeline
                    )
                    return replace(
                        report,
                        timelines={**report.timelines, name: corrupted},
                    )
        raise InvariantViolation(
            "cannot seed a discipline violation: no capacity-1 server ran 2 jobs"
        )

    raise InvariantViolation(
        f"unknown violation kind {kind!r}; expected one of {SEEDABLE_VIOLATIONS}"
    )


#: escalation actions (trigger "breach") and their unwind counterparts
#: (trigger "recover"), mirroring repro.adapt.controller
_ADAPT_ESCALATIONS = ("tighten_admission", "grow_translation", "resplit_up")
_ADAPT_REVERSES = ("relax_admission", "shrink_translation", "resplit_down")


def validate_adapt(report, *, tol: float = 1e-9) -> ValidationResult:
    """Audit one adaptive run's model-swap and reconfiguration history:
    the ``adapt`` family.

    ``report`` is duck-typed against :class:`repro.adapt.plane.
    AdaptReport` (this module deliberately does not import
    :mod:`repro.adapt`): it must expose the ``guards`` / ``limits``
    envelopes the plane ran under, the ``epochs`` and ``reconfigs``
    histories, and the ``decisions_by_epoch`` / ``total_decisions`` /
    ``samples_ingested`` / ``poisoned`` books.

    Reconciliations:

    * **epoch chain** — versions are consecutive from 0, the first
      epoch is the ``init`` install, times never go backwards;
    * **guard compliance** — every ``refit`` epoch names at least one
      family, and each named family carries at least
      ``guards.min_samples`` samples at ``r2 >= guards.min_r2``;
    * **max-step clamp** — between consecutive epochs, every
      coefficient present in both moved by at most
      ``guards.max_step * max(|old|, eps)``; a key may *appear* (first
      GPU install) but never silently disappear;
    * **decision accounting** — ``decisions_by_epoch`` maps only known
      epoch versions and sums exactly to ``total_decisions``, proving
      no estimate was served across a torn model swap;
    * **controller envelope** — reconfiguration seqs are consecutive,
      times non-decreasing with consecutive actions at least
      ``limits.cooldown`` apart, the count never exceeds
      ``limits.max_reconfigs``, every action/trigger pair is a known
      escalation (``breach``) or unwind (``recover``), and every
      admission / translation actuation lands inside the hard range.
    """
    violations: list[Violation] = []

    def bad(queue: str, message: str) -> None:
        violations.append(Violation("adapt", queue, message))

    guards = report.guards
    limits = report.limits
    epochs = tuple(report.epochs)

    for i, epoch in enumerate(epochs):
        tag = f"epoch-{epoch.version}"
        if epoch.version != i:
            bad(tag, f"expected version {i} at position {i}, got {epoch.version}")
        if i == 0 and epoch.trigger != "init":
            bad(tag, f"first epoch must be the init install, got {epoch.trigger!r}")
        if i > 0:
            prev = epochs[i - 1]
            if epoch.time < prev.time:
                bad(
                    tag,
                    f"epoch time went backwards: {prev.time:g} -> {epoch.time:g}",
                )
            if epoch.trigger == "refit":
                if not epoch.families:
                    bad(tag, "refit epoch names no refit family")
                for family in epoch.families:
                    n = epoch.samples.get(family)
                    if n is None or n < guards.min_samples:
                        bad(
                            tag,
                            f"family {family!r} refit on {n} samples, "
                            f"below the min_samples={guards.min_samples} guard",
                        )
                    r2 = epoch.r2.get(family)
                    if r2 is None or r2 < guards.min_r2 - tol:
                        bad(
                            tag,
                            f"family {family!r} refit at r2={r2}, below "
                            f"the min_r2={guards.min_r2} guard",
                        )
            for key, old in prev.coefficients.items():
                if key not in epoch.coefficients:
                    bad(tag, f"coefficient {key!r} disappeared from the bundle")
                    continue
                new = epoch.coefficients[key]
                allowed = guards.max_step * max(abs(old), 1e-12)
                if abs(new - old) > allowed * (1.0 + 1e-9) + tol:
                    bad(
                        tag,
                        f"coefficient {key!r} stepped {old:g} -> {new:g}, "
                        f"outside the max_step={guards.max_step} clamp "
                        f"(allowed {allowed:g})",
                    )
        for key in epoch.clamped:
            if key not in epoch.coefficients:
                bad(tag, f"clamped key {key!r} is not a bundle coefficient")

    versions = {epoch.version for epoch in epochs}
    books = dict(report.decisions_by_epoch)
    for version, count in sorted(books.items()):
        if version not in versions:
            bad(
                "decisions",
                f"decision books name unknown epoch version {version}",
            )
        if count < 0:
            bad("decisions", f"negative decision count {count} in epoch {version}")
    total = sum(books.values())
    if total != report.total_decisions:
        bad(
            "decisions",
            f"per-epoch decision books sum to {total} but the run served "
            f"{report.total_decisions} decisions",
        )
    if report.samples_ingested < 0 or report.poisoned < 0:
        bad("feedback", "negative ingestion books")

    reconfigs = tuple(report.reconfigs)
    if len(reconfigs) > limits.max_reconfigs:
        bad(
            "controller",
            f"{len(reconfigs)} reconfigurations exceed the "
            f"max_reconfigs={limits.max_reconfigs} cap",
        )
    for i, rec in enumerate(reconfigs):
        tag = f"reconfig-{rec.seq}"
        if rec.seq != i:
            bad(tag, f"expected seq {i} at position {i}, got {rec.seq}")
        if rec.action in _ADAPT_ESCALATIONS:
            if rec.trigger != "breach":
                bad(tag, f"escalation {rec.action!r} fired on {rec.trigger!r}")
        elif rec.action in _ADAPT_REVERSES:
            if rec.trigger != "recover":
                bad(tag, f"unwind {rec.action!r} fired on {rec.trigger!r}")
        else:
            bad(tag, f"unknown action {rec.action!r}")
        if i > 0:
            gap = rec.time - reconfigs[i - 1].time
            if gap < -tol:
                bad(tag, f"reconfiguration time went backwards by {-gap:g}s")
            elif gap < limits.cooldown - tol:
                bad(
                    tag,
                    f"actions {gap:g}s apart, inside the "
                    f"cooldown={limits.cooldown:g}s window",
                )
        if rec.action in ("tighten_admission", "relax_admission"):
            lo, hi = limits.min_lateness_factor, limits.max_lateness_factor
            if not lo - tol <= rec.value_after <= hi + tol:
                bad(
                    tag,
                    f"lateness factor set to {rec.value_after:g}, outside "
                    f"[{lo:g}, {hi:g}]",
                )
        elif rec.action in ("grow_translation", "shrink_translation"):
            lo, hi = limits.min_translation_workers, limits.max_translation_workers
            if not lo <= rec.value_after <= hi:
                bad(
                    tag,
                    f"translation pool set to {rec.value_after:g}, outside "
                    f"[{lo}, {hi}]",
                )

    return ValidationResult(tuple(violations), checked=("adapt",))


def assert_adapt_valid(report):
    """Raise :class:`~repro.errors.InvariantViolation` on a bad adapt run."""
    result = validate_adapt(report)
    if not result.ok:
        raise InvariantViolation(result.summary())
    return report


#: corruption modes understood by :func:`seed_adapt_violation`
SEEDABLE_ADAPT_VIOLATIONS = (
    "epoch-gap",
    "max-step",
    "decision-books",
    "cooldown",
    "lateness-bounds",
)


def seed_adapt_violation(report, kind: str):
    """Return a copy of an adapt report with one reconciliation broken.

    The adapt-plane analogue of :func:`seed_violation`; works on any
    frozen-dataclass report with the :func:`validate_adapt` shape.
    ``kind`` is one of :data:`SEEDABLE_ADAPT_VIOLATIONS`.
    """
    if kind == "epoch-gap":
        if not report.epochs:
            raise InvariantViolation("cannot seed an epoch gap: no epochs")
        last = report.epochs[-1]
        return replace(
            report,
            epochs=report.epochs[:-1]
            + (replace(last, version=last.version + 1),),
        )

    if kind == "max-step":
        if len(report.epochs) < 2:
            raise InvariantViolation(
                "cannot seed a max-step violation: need at least two epochs"
            )
        last = report.epochs[-1]
        key = next(iter(sorted(report.epochs[-2].coefficients)))
        old = report.epochs[-2].coefficients[key]
        blown = old * (1.0 + 10.0 * report.guards.max_step) + 1.0
        coeffs = dict(last.coefficients)
        coeffs[key] = blown
        return replace(
            report,
            epochs=report.epochs[:-1] + (replace(last, coefficients=coeffs),),
        )

    if kind == "decision-books":
        return replace(report, total_decisions=report.total_decisions + 1)

    if kind == "cooldown":
        if len(report.reconfigs) < 2:
            raise InvariantViolation(
                "cannot seed a cooldown violation: need at least two actions"
            )
        second = replace(report.reconfigs[1], time=report.reconfigs[0].time)
        return replace(
            report,
            reconfigs=(report.reconfigs[0], second) + report.reconfigs[2:],
        )

    if kind == "lateness-bounds":
        for i, rec in enumerate(report.reconfigs):
            if rec.action in ("tighten_admission", "relax_admission"):
                blown = replace(
                    rec,
                    value_after=report.limits.max_lateness_factor * 10.0,
                )
                return replace(
                    report,
                    reconfigs=report.reconfigs[:i]
                    + (blown,)
                    + report.reconfigs[i + 1 :],
                )
        raise InvariantViolation(
            "cannot seed a lateness violation: no admission action in the run"
        )

    raise InvariantViolation(
        f"unknown violation kind {kind!r}; expected one of "
        f"{SEEDABLE_ADAPT_VIOLATIONS}"
    )


# -- the ``spans`` family -----------------------------------------------------
#
# Deliberately duck-typed against repro.obs.span.Span (trace_id,
# span_id, parent_id, name, start, end, process, track, status,
# query_id, attributes) and re-deriving the sampling hashes inline:
# the auditor must not share code with the plane it audits.


def _expected_trace_id(seed: int, query_id: int) -> str:
    return hashlib.blake2b(
        f"{seed}:{query_id}".encode(), digest_size=8
    ).hexdigest()


def _expected_sampled(seed: int, sample_rate: float, query_id: int) -> bool:
    if sample_rate >= 1.0:
        return True
    if sample_rate <= 0.0:
        return False
    digest = hashlib.blake2b(
        f"{seed}:span-sample:{query_id}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest[:4], "big") / 2**32 < sample_rate


def validate_spans(
    spans,
    *,
    report: SystemReport | None = None,
    collector: "TraceCollector | None" = None,
    seed: int | None = None,
    sample_rate: float | None = None,
    submitted=None,
    tolerance: float = 1e-9,
) -> ValidationResult:
    """Audit a span set's tree structure, sampling, and books: the
    ``spans`` family.

    ``spans`` is any iterable of duck-typed span objects (the shape of
    :class:`repro.obs.span.Span`; this module deliberately does not
    import :mod:`repro.obs`).  Structural invariants always run:

    * **order** — no span ends before it starts;
    * **unique** — span ids never collide within a trace;
    * **root** — every trace has exactly one root (``parent_id`` None);
    * **parent** — every non-root span's parent exists in the same
      trace (cross-process parents count: the stitched fleet set is
      validated as one tree);
    * **bounds** — a child in the *same process* as its parent lies
      inside the parent's ``[start, end]`` window (cross-process pairs
      are exempt — monotonic clocks are not aligned across processes);
    * **complete** — a trace whose ``ok`` root crossed the wire (it
      carries an ``ok`` ``wire.roundtrip`` span) must contain spans
      from at least two processes; a severed tree is only acceptable
      when :func:`repro.obs.span.stitch` re-stamped the root
      ``partial``.

    Optional context adds exact accounting:

    * ``seed`` + ``sample_rate`` + ``submitted`` (the query ids offered
      to the tracer): the traced trace-id set must equal the
      head-sampling formula's output exactly, both directions;
    * ``report``: an ``ok`` root with a completion record opens no
      later than the record's submission and closes at its finish;
      every ``pool.service`` span matches a server-timeline entry
      start-for-start and finish-for-finish;
    * ``collector``: an ``ok`` recorded root brackets its query's
      lifecycle events — ``arrival`` no earlier than the root opens,
      ``service_finish`` at the root's close.
    """
    spans = tuple(spans)
    violations: list[Violation] = []

    def bad(queue: str, message: str) -> None:
        violations.append(Violation("spans", queue, message))

    by_trace: dict[str, list] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)

    roots_by_trace: dict[str, object] = {}
    for trace_id, members in sorted(by_trace.items()):
        tag = f"trace-{trace_id}"
        ids = [s.span_id for s in members]
        for sid in sorted({i for i in ids if ids.count(i) > 1}):
            bad(tag, f"span id {sid} appears {ids.count(sid)} times")
        roots = [s for s in members if s.parent_id is None]
        if len(roots) != 1:
            names = sorted(s.name for s in roots)
            bad(tag, f"{len(roots)} root spans ({names}), expected exactly 1")
        else:
            roots_by_trace[trace_id] = roots[0]
        index = {s.span_id: s for s in members}
        for span in members:
            if span.end < span.start - tolerance:
                bad(
                    tag,
                    f"span {span.name!r} ends at {span.end} before its "
                    f"start {span.start}",
                )
            if span.parent_id is None:
                continue
            parent = index.get(span.parent_id)
            if parent is None:
                bad(
                    tag,
                    f"span {span.name!r} names parent {span.parent_id} "
                    "which is not in the trace — an orphan",
                )
            elif parent.process == span.process and (
                span.start < parent.start - tolerance
                or span.end > parent.end + tolerance
            ):
                bad(
                    tag,
                    f"span {span.name!r} [{span.start}, {span.end}] "
                    f"escapes its parent {parent.name!r} "
                    f"[{parent.start}, {parent.end}]",
                )

        root = roots_by_trace.get(trace_id)
        if root is not None and root.status == "ok":
            wired = any(
                s.name == "wire.roundtrip" and s.status == "ok"
                for s in members
            )
            if wired and len({s.process for s in members}) < 2:
                bad(
                    tag,
                    "root completed over the wire but the trace has no "
                    "shard-side spans — a severed tree must be stamped "
                    "partial, not silently truncated",
                )

    if seed is not None and sample_rate is not None and submitted is not None:
        expected = {
            _expected_trace_id(seed, qid)
            for qid in submitted
            if _expected_sampled(seed, sample_rate, qid)
        }
        actual = set(by_trace)
        for trace_id in sorted(actual - expected):
            bad(
                "sampling",
                f"trace {trace_id} was recorded but no submitted query "
                f"head-samples to it at rate {sample_rate}",
            )
        for trace_id in sorted(expected - actual):
            bad(
                "sampling",
                f"head-sampling selects trace {trace_id} but the run "
                "recorded no spans for it",
            )

    if report is not None:
        records = {r.query_id: r for r in report.records}
        for trace_id, root in sorted(roots_by_trace.items()):
            record = records.get(root.query_id)
            if record is None or root.status != "ok":
                continue
            tag = f"trace-{trace_id}"
            if root.start > record.submit_time + tolerance:
                bad(
                    tag,
                    f"root opens at {root.start}, after query "
                    f"{root.query_id}'s submission at {record.submit_time}",
                )
            if abs(root.end - record.finish_time) > tolerance:
                bad(
                    tag,
                    f"root closes at {root.end} but query {root.query_id} "
                    f"finished at {record.finish_time}",
                )
        timeline_index = {
            name: _index(tl) for name, tl in report.timelines.items()
        }
        for span in spans:
            if span.name != "pool.service":
                continue
            pool = span.attributes.get("pool", span.track)
            entry = timeline_index.get(pool, {}).get(span.query_id)
            if entry is None:
                bad(
                    f"trace-{span.trace_id}",
                    f"pool.service span for query {span.query_id} on "
                    f"{pool!r} has no server-timeline entry",
                )
            elif (
                abs(span.start - entry[0]) > tolerance
                or abs(span.end - entry[1]) > tolerance
            ):
                bad(
                    f"trace-{span.trace_id}",
                    f"pool.service span for query {span.query_id} "
                    f"[{span.start}, {span.end}] disagrees with the "
                    f"{pool!r} timeline entry [{entry[0]}, {entry[1]}]",
                )

    if collector is not None:
        events_by_query = _events_by_query(collector)
        recorded = (
            {r.query_id for r in report.records} if report is not None else None
        )
        for trace_id, root in sorted(roots_by_trace.items()):
            if root.status != "ok" or root.query_id is None:
                continue
            if recorded is not None and root.query_id not in recorded:
                continue  # cache hits and shard-side roots have no lifecycle
            events = events_by_query.get(root.query_id, [])
            arrivals = [e.time for e in events if e.kind == "arrival"]
            finishes = [e.time for e in events if e.kind == "service_finish"]
            tag = f"trace-{trace_id}"
            if not arrivals:
                bad(
                    tag,
                    f"sampled query {root.query_id} left no arrival event "
                    "in the lifecycle trace",
                )
            elif arrivals[0] > root.start + tolerance:
                bad(
                    tag,
                    f"query {root.query_id} arrives at {arrivals[0]}, after "
                    f"its root span opened at {root.start}",
                )
            if finishes and abs(finishes[-1] - root.end) > tolerance:
                bad(
                    tag,
                    f"query {root.query_id} service_finish at "
                    f"{finishes[-1]} != root close {root.end}",
                )

    return ValidationResult(tuple(violations), checked=("spans",))


def assert_spans_valid(spans, **kwargs):
    """Raise :class:`~repro.errors.InvariantViolation` on a bad span set.

    Returns the (tuple-ised) span set unchanged so call sites can
    chain: ``spans = assert_spans_valid(tracer.drain(), report=report)``.
    """
    spans = tuple(spans)
    result = validate_spans(spans, **kwargs)
    if not result.ok:
        raise InvariantViolation(result.summary())
    return spans


#: corruption modes understood by :func:`seed_spans_violation`
SEEDABLE_SPANS_VIOLATIONS = (
    "orphan",
    "inverted",
    "duplicate",
    "escape",
    "unsampled",
    "books",
    "severed",
)


def seed_spans_violation(spans, kind: str):
    """Return a copy of a span set with one invariant deliberately broken.

    The span-plane analogue of :func:`seed_violation`; works on any
    frozen-dataclass span with the :func:`validate_spans` shape.
    ``kind`` is one of :data:`SEEDABLE_SPANS_VIOLATIONS`.  ``unsampled``
    needs the sampling context passed to the validator; ``books`` needs
    a report; ``severed`` needs a stitched multi-process trace.
    """
    spans = tuple(spans)
    if not spans:
        raise InvariantViolation("cannot seed a spans violation: empty set")
    index = {(s.trace_id, s.span_id): s for s in spans}

    def swap(old, new):
        return tuple(new if s is old else s for s in spans)

    if kind == "inverted":
        victim = spans[0]
        return swap(victim, replace(victim, end=victim.start - 1.0))

    if kind == "unsampled":
        # re-stamp one whole trace onto an id no query hashes to
        target = spans[0].trace_id
        return tuple(
            replace(s, trace_id="feedfacefeedface")
            if s.trace_id == target
            else s
            for s in spans
        )

    children = [s for s in spans if s.parent_id is not None]
    if kind == "orphan":
        if not children:
            raise InvariantViolation(
                "cannot seed an orphan: no span has a parent"
            )
        victim = children[0]
        return swap(victim, replace(victim, parent_id="f" * 16))

    if kind == "duplicate":
        if not children:
            raise InvariantViolation(
                "cannot seed a duplicate: need two spans in one trace"
            )
        victim = children[0]
        root = index.get((victim.trace_id, victim.parent_id))
        if root is None:
            raise InvariantViolation(
                "cannot seed a duplicate: orphaned child"
            )
        return swap(victim, replace(victim, span_id=root.span_id))

    if kind == "escape":
        for victim in children:
            parent = index.get((victim.trace_id, victim.parent_id))
            if parent is not None and parent.process == victim.process:
                return swap(victim, replace(victim, end=parent.end + 1.0))
        raise InvariantViolation(
            "cannot seed an escape: no same-process parent/child pair"
        )

    if kind == "books":
        for victim in spans:
            if victim.parent_id is None and victim.status == "ok":
                return swap(victim, replace(victim, end=victim.end + 1.0))
        raise InvariantViolation("cannot seed a books violation: no ok root")

    if kind == "severed":
        for root in spans:
            if root.parent_id is not None or root.status != "ok":
                continue
            members = [s for s in spans if s.trace_id == root.trace_id]
            if not any(s.name == "wire.roundtrip" for s in members):
                continue
            if len({s.process for s in members}) < 2:
                continue
            return tuple(
                s
                for s in spans
                if s.trace_id != root.trace_id or s.process == root.process
            )
        raise InvariantViolation(
            "cannot seed a severed tree: no ok multi-process wire trace"
        )

    raise InvariantViolation(
        f"unknown violation kind {kind!r}; expected one of "
        f"{SEEDABLE_SPANS_VIOLATIONS}"
    )
