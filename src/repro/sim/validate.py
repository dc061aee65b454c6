"""Simulation invariant checking — auditing realised schedules.

Section III-G's scheduler works only if *"each queue is aware of how
many jobs are outstanding and when all its jobs will be finished"* —
i.e. if the :math:`T_Q` books agree with what the discrete-event layer
actually does, and every telemetry view of a run agrees with those
books.  One audit per subject: :func:`audit`, handed a run's
:class:`~repro.sim.metrics.SystemReport` and whatever artifacts the run
produced, runs every family it has a subject for and returns one
merged :class:`ValidationResult`; :func:`validate_fleet` does the same
for a fleet's merged books.  :func:`assert_valid` and
:func:`assert_fleet_valid` are their raising forms.  The ten families,
each described once in the docstring of its ``_check_*`` function:

================ =================== ======================== ======================== ==============================
family           subject             run by                   ``_check_*``             seeded kinds
================ =================== ======================== ======================== ==============================
``dependency``   ``SystemReport``    ``audit``, always        ``_check_dependency``    ``dependency``
``discipline``   ``SystemReport``    ``audit``, always        ``_check_discipline``    ``discipline``
``conservation`` ``SystemReport``    ``audit``, always        ``_check_conservation``  ``conservation``
``drift``        ``SystemReport``    ``audit``, on exact      ``_check_drift``         ``drift``
                                     estimates and capacity-1
                                     stations
``rollup``       report, its trace   ``audit``, when the      ``_check_rollup_books``, ``rollup``
                 and its snapshot    report has cache hits    ``_trace``, ``_metrics``
``trace``        ``TraceCollector``  ``audit(collector=)``    ``_check_trace``         ``out-of-order``,
                                                                                       ``retargeted``,
                                                                                       ``dropped-rejection``
``metrics``      ``MetricsSnapshot`` ``audit(snapshot=)``     ``_check_metrics``       ``completed``, ``latency``,
                                                                                       ``in-flight``,
                                                                                       ``missing-family``,
                                                                                       ``pool-tasks``
``spans``        iterable of spans   ``audit(spans=)``;       ``_check_spans``         ``orphan``, ``inverted``,
                                     ``validate_fleet`` when                           ``duplicate``, ``escape``,
                                     the fleet has spans                               ``unsampled``, ``books``,
                                                                                       ``severed``
``adapt``        ``AdaptReport``     ``audit(adapt=)``        ``_check_adapt``         ``epoch-gap``, ``max-step``,
                                                                                       ``decision-books``,
                                                                                       ``cooldown``,
                                                                                       ``lateness-bounds``
``fleet``        ``FleetReport``     ``validate_fleet``       ``_check_fleet``         ``routed``,
                                                                                       ``merged-submitted``,
                                                                                       ``lost-record``
================ =================== ======================== ======================== ==============================

A seeded arm is a deliberate corruption (:func:`seed_violation`; the
kinds of each family in :data:`SEEDABLE_VIOLATIONS`) with which tests
prove a checker fails loudly, not vacuously.  The subjects of
``fleet``, ``adapt`` and ``spans`` are duck-typed and the span sampling
hashes re-derived inline: this module imports nothing from
:mod:`repro.fleet`, :mod:`repro.adapt` or :mod:`repro.obs` — the
auditor shares no code with what it audits.
"""

from __future__ import annotations

import copy
import hashlib
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

from repro.errors import InvariantViolation
from repro.sim.metrics import SystemReport

if TYPE_CHECKING:
    from repro.metrics.registry import MetricsSnapshot
    from repro.sim.obs import TraceCollector

__all__ = [
    "Violation",
    "ValidationResult",
    "audit",
    "assert_valid",
    "validate_fleet",
    "assert_fleet_valid",
    "seed_violation",
    "SEEDABLE_VIOLATIONS",
]

#: timeline entry: (query_id, start, finish)
Entry = tuple[int, float, float]

#: the translation queue's name, fixed by ``QueryLifecycle.__init__``
TRANS_QUEUE = "Q_TRANS"
#: slack when two readings of one instant (or one quantity) are compared
TOLERANCE = 1e-9
#: slack for quantities that accumulate rounding: the drift bounds and
#: the latency histogram's ``_sum`` (scaled by its observation count)
SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to debug it."""

    invariant: str  # the family's name: one of the ten in the module table
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

    def raise_if_bad(self) -> None:
        """Raise :class:`~repro.errors.InvariantViolation` on any violation."""
        if not self.ok:
            raise InvariantViolation(self.summary())


class _Audit:
    """The violations one family finds, accumulated as it checks."""

    def __init__(self, family: str) -> None:
        self.family = family
        self.violations: list[Violation] = []

    def bad(self, queue: str, message: str) -> None:
        self.violations.append(Violation(self.family, queue, message))

    def result(self) -> ValidationResult:
        return ValidationResult(tuple(self.violations), checked=(self.family,))


def _merged(results: list[ValidationResult]) -> ValidationResult:
    """Several families' results as one, each family named once."""
    return ValidationResult(
        violations=tuple(v for result in results for v in result.violations),
        checked=tuple(dict.fromkeys(f for result in results for f in result.checked)),
    )


class _Served(dict):
    """server -> query id -> realised ``(start, finish)``; a server's
    index is built the first time it is asked for."""

    def __init__(self, timelines: dict) -> None:
        super().__init__()
        self.timelines = timelines

    def __missing__(self, name: str) -> dict[int, tuple[float, float]]:
        index = self[name] = {
            qid: (start, finish) for qid, start, finish in self.timelines.get(name, ())
        }
        return index


class _Run:
    """One run's books — and its lifecycle trace, when it has one — with
    the indices more than one family reads.

    Each index is derived on first use and kept, so an :func:`audit`
    builds it once however many families ask for it.
    """

    def __init__(
        self, report: SystemReport, collector: "TraceCollector | None" = None
    ) -> None:
        self.report = report
        self.collector = collector
        self.served = _Served(report.timelines)

    @cached_property
    def records(self) -> dict:
        """query id -> completion record."""
        return {r.query_id: r for r in self.report.records}

    @cached_property
    def events(self) -> dict[int, list]:
        """query id -> its trace events in emission order, in one pass
        (``collector.events_for`` rescans every event per call, which is
        quadratic when asked once per query of a long run)."""
        by_query: dict[int, list] = {}
        for event in self.collector.events:
            if event.query_id is not None:
                by_query.setdefault(event.query_id, []).append(event)
        return by_query


def _check_dependency(run: _Run) -> ValidationResult:
    """The ``dependency`` family: no job starts before the stage it
    depends on — a translated GPU query's processing never precedes its
    realised translation finish, and nothing starts before it was
    submitted (or ends before it starts)."""
    out = _Audit("dependency")
    report = run.report
    for name, timeline in report.timelines.items():
        for qid, start, finish in timeline:
            if finish < start - TOLERANCE:
                out.bad(
                    name,
                    f"query {qid} finishes at {finish} before its own start {start}",
                )
            record = run.records.get(qid)
            if record is not None and start < record.submit_time - TOLERANCE:
                out.bad(
                    name,
                    f"query {qid} starts at {start} before its submission "
                    f"at {record.submit_time}",
                )
    translations = run.served[TRANS_QUEUE]
    for record in report.records:
        if not record.translated:
            continue
        translated = translations.get(record.query_id)
        entry = run.served[record.target].get(record.query_id)
        if translated is None:
            out.bad(
                TRANS_QUEUE,
                f"translated query {record.query_id} completed on "
                f"{record.target} but never appears on the translation "
                "timeline",
            )
        elif entry is not None and entry[0] < translated[1] - TOLERANCE:
            out.bad(
                record.target,
                f"query {record.query_id} starts at {entry[0]} before its "
                f"translation finishes at {translated[1]}",
            )
    return out.result()


def _arrival_times(run: _Run, name: str) -> dict[int, float]:
    """When each job on server ``name`` became available to start.

    Translation jobs and untranslated processing jobs arrive when the
    scheduler submitted them; a translated query's processing job
    arrives at its realised translation finish.
    """
    arrivals: dict[int, float] = {}
    translations = run.served[TRANS_QUEUE]
    for sub in run.report.submissions.get(name, ()):
        if name != TRANS_QUEUE and sub.earliest_start is not None:
            realised = translations.get(sub.query_id)
            if realised is None:
                continue  # translation still in flight — job never started
            arrivals[sub.query_id] = realised[1]
        else:
            arrivals[sub.query_id] = sub.submit_time
    return arrivals


def _check_discipline(run: _Run) -> ValidationResult:
    """The ``discipline`` family: every server honours FIFO order (a job
    that arrived strictly earlier never starts strictly later) and its
    capacity (never more than ``capacity`` jobs concurrently in
    service)."""
    out = _Audit("discipline")
    report = run.report
    for name, timeline in report.timelines.items():
        capacity = report.capacities.get(name, 1)

        # capacity: sweep the in-service interval count; a finish frees
        # its unit before a start at the same instant claims one
        events = [(start, 1, qid) for qid, start, _ in timeline]
        events += [(finish, -1, qid) for qid, _, finish in timeline]
        events.sort(key=lambda e: (e[0], e[1]))
        in_service = 0
        for time, delta, qid in events:
            in_service += delta
            if in_service > capacity:
                out.bad(
                    name,
                    f"{in_service} jobs in service at t={time} exceeds "
                    f"capacity {capacity} (query {qid})",
                )
                break

        # FIFO: scan in realised start order; a job that arrived
        # strictly earlier than a previously-started job must not start
        # strictly later
        arrivals = _arrival_times(run, name)
        started = sorted(
            (start, arrivals[qid], qid)
            for qid, start, _ in timeline
            if qid in arrivals
        )
        max_arrival = float("-inf")
        max_arrival_qid = None
        prev_start = float("-inf")
        for start, arrival, qid in started:
            if start > prev_start + TOLERANCE and arrival < max_arrival - TOLERANCE:
                out.bad(
                    name,
                    f"FIFO violated: query {qid} arrived at {arrival} but "
                    f"starts at {start}, after query {max_arrival_qid} "
                    f"which arrived later ({max_arrival})",
                )
                break
            if arrival > max_arrival:
                max_arrival = arrival
                max_arrival_qid = qid
            prev_start = max(prev_start, start)
    return out.result()


def _check_conservation(run: _Run, require_drained: bool) -> ValidationResult:
    """The ``conservation`` family: jobs are neither lost nor invented.

    Per queue, submitted = completed + in-flight; every completed query
    record has a matching timeline entry and every processing interval
    a record; every translation submission pairs with exactly one
    pipeline-constrained processing submission.  On a serving run whose
    books retired their oldest queries, the same balances hold on the
    kept books, and the report's :class:`~repro.sim.metrics.Retired`
    totals balance too: one retired timeline entry per retired record
    on its target, and one on the translation station per retired
    translated record.

    ``require_drained`` strengthens the family for reports taken after
    a completed run (a finished simulation, or a serving engine after
    :meth:`~repro.serve.ServeEngine.drain`): every queue must show zero
    outstanding jobs — accepted work that never completed is a
    violation, not merely "in flight".
    """
    out = _Audit("conservation")
    report = run.report
    for name, subs in report.submissions.items():
        completed = len(report.timelines.get(name, ()))
        in_flight = report.outstanding.get(name, 0)
        if len(subs) != completed + in_flight:
            out.bad(
                name,
                f"{len(subs)} submitted != {completed} completed + "
                f"{in_flight} in flight",
            )

    # records and processing timelines must match one-to-one: every
    # completed record appears on its target's timeline with the same
    # finish time, and every service interval on a processing server
    # produced a record (translation serves a pipeline *stage*, not a
    # whole query, so its timeline has no records of its own)
    recorded: dict[str, dict[int, float]] = {}
    for record in report.records:
        recorded.setdefault(record.target, {})[record.query_id] = record.finish_time
        entry = run.served[record.target].get(record.query_id)
        if entry is None or entry[1] != record.finish_time:
            out.bad(
                record.target,
                f"record for query {record.query_id} (finish "
                f"{record.finish_time}) has no matching timeline entry",
            )
    for name, timeline in report.timelines.items():
        if name == TRANS_QUEUE:
            continue
        for qid, _, finish in timeline:
            if recorded.get(name, {}).get(qid) != finish:
                out.bad(
                    name,
                    f"query {qid} served on {name} (finish {finish}) but "
                    "the run has no completion record for it — the job "
                    "was lost",
                )

    # each translation submission pairs with exactly one
    # pipeline-constrained processing submission
    if TRANS_QUEUE in report.submissions:
        pipelined = sum(
            1
            for name, subs in report.submissions.items()
            if name != TRANS_QUEUE
            for sub in subs
            if sub.earliest_start is not None
        )
        n_trans = len(report.submissions[TRANS_QUEUE])
        if pipelined != n_trans:
            out.bad(
                TRANS_QUEUE,
                f"{n_trans} translation submissions but {pipelined} "
                "pipeline-constrained processing submissions",
            )

    # a retired query left the books whole: each retired record took
    # its target's timeline entry with it, a translated one its
    # translation entry too, each with its submission
    retired = report.retired
    for name in sorted(set(retired.tasks) | set(retired.by_target)):
        records = (
            retired.translated if name == TRANS_QUEUE else retired.by_target.get(name, 0)
        )
        if retired.tasks.get(name, 0) != records:
            out.bad(
                name,
                f"{retired.tasks.get(name, 0)} retired timeline entries but "
                f"{records} retired records need one each",
            )

    if require_drained:
        for name, outstanding in sorted(report.outstanding.items()):
            if outstanding:
                out.bad(
                    name,
                    f"{outstanding} job(s) still outstanding after a drained run",
                )
    return out.result()


def _check_drift(report: SystemReport) -> ValidationResult:
    """The ``drift`` family: the realised schedule never finishes
    *later* than the scheduler's books.

    Each server's last realised completion is bounded by its queue's
    final :math:`T_Q` (the booked schedule is feasible, and FIFO is
    work-conserving), and each record's measured time equals its
    estimate.  :func:`_check_books` runs it only when the report
    declares ``exact_estimates`` (``noise_sigma=0``, ``noise_bias=1``)
    and every station has capacity 1 — with parallel translation
    workers the queue's fluid :math:`T_Q` is a throughput
    approximation, not a per-job bound.  This is precisely the
    invariant the historical translated-query :math:`T_Q` under-count
    broke: the GPU queue believed it would drain at :math:`t_{gpu}`
    while the realised job could not even start before the translation
    finished.
    """
    out = _Audit("drift")
    for record in report.records:
        if abs(record.measured_time - record.estimated_time) > SUM_TOLERANCE:
            out.bad(
                record.target,
                f"deterministic run but query {record.query_id} measured "
                f"{record.measured_time} != estimated {record.estimated_time}",
            )
    for name, subs in report.submissions.items():
        timeline = report.timelines.get(name, ())
        if not subs or not timeline:
            continue
        realised_last = max(finish for _, _, finish in timeline)
        booked_last = max(sub.estimated_finish for sub in subs)
        if realised_last > booked_last + SUM_TOLERANCE:
            out.bad(
                name,
                f"realised schedule drains at {realised_last}, after the "
                f"queue's booked T_Q {booked_last} — the T_Q books "
                "under-count the realised backlog",
            )
    return out.result()


def _check_rollup_books(report: SystemReport) -> ValidationResult:
    """The books layer of the ``rollup`` family.

    Cache-served queries live in
    :attr:`~repro.sim.metrics.SystemReport.cache_hits` and *only* there
    — a query answered before the scheduler was consulted by definition
    left no trace in the :math:`T_Q` machinery.  Three layers, each run
    by :func:`audit` when the report carries hits and the layer's
    artifact was handed in:

    * **books** (this function, with the report alone): every
      cache-served query is absent from the submission books, server
      timelines and completion records, appears at most once, and its
      zero-cost record has ``finish >= submit``;
    * **trace** (:func:`_check_rollup_trace`, with ``collector``);
    * **metrics** (:func:`_check_rollup_metrics`, with ``snapshot``;
      also run when the snapshot carries ``repro_rollup_hits_total``
      but the report has no hits).
    """
    out = _Audit("rollup")
    served = Counter(r.query_id for r in report.cache_hits)
    for qid in sorted(qid for qid, times in served.items() if times > 1):
        out.bad(
            "cache",
            f"query {qid} appears {served[qid]} times in "
            "cache_hits — a query is served at most once",
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
            out.bad(
                "cache",
                f"cache hit for query {rec.query_id} finishes at "
                f"{rec.finish_time} before its submission at "
                f"{rec.submit_time}",
            )
        for where, ids in (
            ("completion records", scheduled),
            ("submission books", booked),
            ("server timelines", timelined),
        ):
            if rec.query_id in ids:
                out.bad(
                    "cache",
                    f"cache-served query {rec.query_id} also appears in "
                    f"the {where} — a hit must bypass the scheduler "
                    "entirely",
                )
    return out.result()


def _check_books(run: _Run, require_drained: bool) -> ValidationResult:
    """The families one report owes with no artifact beside it: the
    report's per-server timelines replayed against the queues'
    :class:`~repro.core.partitions.Submission` records."""
    report = run.report
    # discipline's sweep lists are the audit's largest transient: they
    # come and go before the all-server indices exist, not on top of them
    discipline = _check_discipline(run)
    results = [
        _check_dependency(run),
        discipline,
        _check_conservation(run, require_drained),
    ]
    if report.exact_estimates and all(c == 1 for c in report.capacities.values()):
        results.append(_check_drift(report))
    if report.cache_hits:
        results.append(_check_rollup_books(report))
    return _merged(results)


def _expected_lifecycle(translated: bool) -> tuple[str, ...]:
    """The well-ordered event stream of one completed query."""
    kinds = ["arrival", "estimated", "decision"]
    if translated:
        kinds += ["translation_start", "translation_finish", "feedback"]
    kinds += ["service_start", "service_finish", "feedback"]
    return tuple(kinds)


def _check_trace(run: _Run) -> ValidationResult:
    """The ``trace`` family: a lifecycle trace cross-checked against
    the :math:`T_Q` books, in three reconciliations.

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
      queue's submission count (this also covers a serving engine read
      before it drained, where submissions outnumber completion
      records);
    * ``rejected`` events equal the report's rejected count.
    """
    out = _Audit("trace")
    report, collector = run.report, run.collector

    # -- (1) per-query lifecycle ordering for completed queries ----------
    for record in report.records:
        events = run.events.get(record.query_id, [])
        kinds = tuple(e.kind for e in events)
        expected = _expected_lifecycle(record.translated)
        if kinds != expected:
            out.bad(
                record.target,
                f"query {record.query_id} event stream {kinds} != "
                f"expected {expected}",
            )
            continue
        times = [e.time for e in events]
        if any(b < a - TOLERANCE for a, b in zip(times, times[1:])):
            out.bad(
                record.target,
                f"query {record.query_id} events move backwards in "
                f"time: {times}",
            )
        decision = events[kinds.index("decision")]
        if abs(decision.time - record.submit_time) > TOLERANCE:
            out.bad(
                record.target,
                f"query {record.query_id} decision at {decision.time} "
                f"!= record submit time {record.submit_time}",
            )
        if decision.data.get("target") != record.target:
            out.bad(
                record.target,
                f"query {record.query_id} decision targets "
                f"{decision.data.get('target')!r} but the record "
                f"completed on {record.target!r}",
            )
        finish = events[kinds.index("service_finish")]
        if abs(finish.time - record.finish_time) > TOLERANCE:
            out.bad(
                record.target,
                f"query {record.query_id} service_finish at "
                f"{finish.time} != record finish {record.finish_time}",
            )

    # -- (2) decision events reconcile with the Submission books ---------
    decisions = [e for e in collector.events if e.kind == "decision"]
    decisions_by_target: dict[str, list] = {}
    for event in decisions:
        decisions_by_target.setdefault(event.data["target"], []).append(event)
    for name in decisions_by_target:
        if name not in report.submissions:
            out.bad(
                name,
                f"decision events target {name!r} but the report has "
                "no submission book for it",
            )
    for name, subs in report.submissions.items():
        if name == TRANS_QUEUE:
            pipelined = sum(
                1 for e in decisions if e.data.get("translation") is not None
            )
            if pipelined != len(subs):
                out.bad(
                    name,
                    f"{len(subs)} translation submissions but "
                    f"{pipelined} decision events carry a translation "
                    "stage",
                )
            continue
        events = decisions_by_target.get(name, [])
        if len(events) != len(subs):
            out.bad(
                name,
                f"{len(subs)} submissions but {len(events)} decision events",
            )
            continue
        booked = {sub.query_id: sub for sub in subs}
        for event in events:
            sub = booked.get(event.query_id)
            if sub is None:
                out.bad(
                    name,
                    f"decision for query {event.query_id} has no "
                    "submission record",
                )
            elif (
                abs(sub.submit_time - event.time) > TOLERANCE
                or abs(sub.estimated_time - event.data["estimated_time"])
                > TOLERANCE
            ):
                out.bad(
                    name,
                    f"decision for query {event.query_id} "
                    f"(t={event.time}, "
                    f"est={event.data['estimated_time']}) disagrees "
                    f"with its submission (t={sub.submit_time}, "
                    f"est={sub.estimated_time})",
                )

    # -- (3) rejections --------------------------------------------------
    n_rejected = sum(1 for e in collector.events if e.kind == "rejected")
    if n_rejected != report.rejected:
        out.bad(
            TRANS_QUEUE,
            f"{n_rejected} rejected events but the report counts "
            f"{report.rejected} rejections",
        )
    return out.result()


#: metric families the ``metrics`` family requires in every instrumented run
_CORE_FAMILIES = (
    "repro_queries_submitted_total",
    "repro_queries_admitted_total",
    "repro_queries_rejected_total",
    "repro_queries_completed_total",
    "repro_queries_failed_total",
    "repro_in_flight_queries",
    "repro_query_latency_seconds",
    "repro_scheduler_decisions_total",
    "repro_pool_tasks_total",
)


def _check_metrics(
    report: SystemReport, snapshot: "MetricsSnapshot"
) -> ValidationResult:
    """The ``metrics`` family: a metrics snapshot reconciled against the
    report books exactly.

    At the end of a run (a finished simulation, or a served engine after
    ``drain()``), the live registry's exported state must agree with the
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
      summed response times within :data:`SUM_TOLERANCE` per
      observation;
    * Figure-10 decision counters sum to the admitted count;
    * ``pool_tasks_total`` per pool equals that pool's timeline length,
      both directions;
    * every exported feedback bias-ratio gauge equals the corresponding
      :class:`~repro.core.feedback.FeedbackStats` ratio.

    Every count above includes the report's
    :class:`~repro.sim.metrics.Retired` totals: the registry counted the
    whole run, the books keep its newest queries plus those totals.
    """
    out = _Audit("metrics")

    missing = [name for name in _CORE_FAMILIES if snapshot.family(name) is None]
    for name in missing:
        out.bad(name, "core metric family missing from snapshot")
    if missing:
        return out.result()

    submitted = snapshot.value("repro_queries_submitted_total")
    admitted = snapshot.value("repro_queries_admitted_total")
    rejected = snapshot.value("repro_queries_rejected_total")
    completed_fam = snapshot.family("repro_queries_completed_total")
    failed_fam = snapshot.family("repro_queries_failed_total")
    in_flight = snapshot.value("repro_in_flight_queries")

    if rejected != report.rejected:
        out.bad(
            "repro_queries_rejected_total",
            f"counter reads {rejected} but the report counts "
            f"{report.rejected} rejections",
        )
    if submitted != admitted + rejected:
        out.bad(
            "repro_queries_submitted_total",
            f"{submitted} submitted != {admitted} admitted + "
            f"{rejected} rejected",
        )

    by_target = report.by_target()
    for (target,), count in completed_fam.items():
        if by_target.get(target, 0) != count:
            out.bad(
                "repro_queries_completed_total",
                f"counter says {count:g} completions on {target} but the "
                f"report records {by_target.get(target, 0)}",
            )
    for target, count in sorted(by_target.items()):
        if completed_fam.value(target=target) != count:
            out.bad(
                "repro_queries_completed_total",
                f"report records {count} completions on {target} but the "
                f"counter reads {completed_fam.value(target=target):g}",
            )

    completed_total = completed_fam.total()
    failed_translation = failed_fam.value(stage="translation")
    if admitted != completed_total + failed_translation + in_flight:
        out.bad(
            "repro_in_flight_queries",
            f"ledger does not balance: {admitted} admitted != "
            f"{completed_total} completed + {failed_translation} "
            f"failed-in-translation + {in_flight} in flight",
        )
    if all(n == 0 for n in report.outstanding.values()) and in_flight != 0:
        out.bad(
            "repro_in_flight_queries",
            f"drained run (no outstanding jobs) but the gauge reads "
            f"{in_flight}",
        )

    latency_fam = snapshot.family("repro_query_latency_seconds")
    sums = dict(report.retired.response_seconds)
    counts = dict(report.retired.by_target)
    for record in report.records:
        sums[record.target] = sums.get(record.target, 0.0) + record.response_time
        counts[record.target] = counts.get(record.target, 0) + 1
    seen_targets = {key[0] for key, _ in latency_fam.items()}
    for target in sorted(set(counts) | seen_targets):
        hist = latency_fam.histogram(target=target)
        n = hist.count if hist is not None else 0
        total = hist.total if hist is not None else 0.0
        if n != counts.get(target, 0):
            out.bad(
                "repro_query_latency_seconds",
                f"{n} observations on {target} but the report has "
                f"{counts.get(target, 0)} records",
            )
        elif abs(total - sums.get(target, 0.0)) > SUM_TOLERANCE * max(1, n):
            out.bad(
                "repro_query_latency_seconds",
                f"histogram sum {total} on {target} != summed response "
                f"times {sums.get(target, 0.0)}",
            )

    decisions = snapshot.family("repro_scheduler_decisions_total").total()
    if decisions != admitted:
        out.bad(
            "repro_scheduler_decisions_total",
            f"{decisions:g} Figure-10 decisions != {admitted:g} admitted",
        )

    pool_counts: dict[str, float] = {}
    for (pool, _outcome), count in snapshot.family("repro_pool_tasks_total").items():
        pool_counts[pool] = pool_counts.get(pool, 0.0) + count
    for pool in sorted(set(pool_counts) | {p for p, t in report.timelines.items() if t}):
        count = pool_counts.get(pool, 0.0)
        served = len(report.timelines.get(pool, ())) + report.retired.tasks.get(pool, 0)
        if count != served:
            out.bad(
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
                gauge, expected, rel_tol=1e-9, abs_tol=SUM_TOLERANCE
            ):
                out.bad(
                    "repro_feedback_bias_ratio",
                    f"gauge reads {gauge} for {queue} but the feedback "
                    f"stats give {expected}",
                )

    return out.result()


def _check_rollup_trace(run: _Run) -> ValidationResult:
    """The trace layer of the ``rollup`` family (see
    :func:`_check_rollup_books`): the number of ``cache-hit`` events
    equals the report's hit count, and every hit's per-query event
    stream is exactly ``("arrival", "cache-hit")`` — a hit must emit no
    ``estimated``/``decision``/service events."""
    out = _Audit("rollup")
    hits = run.report.cache_hits
    n_events = sum(1 for e in run.collector.events if e.kind == "cache-hit")
    if n_events != len(hits):
        out.bad(
            "cache",
            f"{n_events} cache-hit events but the report carries "
            f"{len(hits)} cache hits",
        )
    for rec in hits:
        kinds = tuple(e.kind for e in run.events.get(rec.query_id, ()))
        if kinds != ("arrival", "cache-hit"):
            out.bad(
                "cache",
                f"cache-served query {rec.query_id} has event stream "
                f"{kinds} != ('arrival', 'cache-hit')",
            )
    return out.result()


def _check_rollup_metrics(
    report: SystemReport, snapshot: "MetricsSnapshot"
) -> ValidationResult:
    """The metrics layer of the ``rollup`` family (see
    :func:`_check_rollup_books`): ``repro_rollup_hits_total`` and the
    hit-latency histogram count equal the report's hit count (retired
    hits included)."""
    out = _Audit("rollup")
    hits = report.cache_hit_count
    if snapshot.family("repro_rollup_hits_total") is None:
        if hits:
            out.bad(
                "cache",
                "report carries cache hits but the snapshot has no "
                "repro_rollup_hits_total family",
            )
        return out.result()
    counted = snapshot.value("repro_rollup_hits_total")
    if counted != hits:
        out.bad(
            "cache",
            f"repro_rollup_hits_total reads {counted:g} but the "
            f"report carries {hits} cache hits",
        )
    hist = snapshot.histogram("repro_rollup_hit_latency_seconds")
    n = hist.count if hist is not None else 0
    if n != hits:
        out.bad(
            "cache",
            f"hit-latency histogram has {n} observations but the "
            f"report carries {hits} cache hits",
        )
    return out.result()


def _check_fleet(fleet) -> ValidationResult:
    """The ``fleet`` family: a multi-process fleet's merged books.

    ``fleet`` is duck-typed against :class:`repro.fleet.fleet.
    FleetReport` (this module deliberately does not import
    :mod:`repro.fleet` — sim stays process-topology-agnostic): it must
    expose ``shards`` (per-shard views with ``shard_id``, ``records``,
    ``cache_hits``, ``retired``, ``rejected``, ``snapshot``,
    ``validation``; every count adds the ``retired`` totals in),
    ``routed`` / ``failed`` mappings of shard id to the front door's
    books, ``crashed`` shard ids, and the ``merged``
    :class:`~repro.metrics.registry.MetricsSnapshot`.

    Reconciliations:

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
    * every live shard's local audit (:func:`audit` of its drained
      report and final snapshot, run inside the worker process)
      reported ok.
    """
    out = _Audit("fleet")

    live = {shard.shard_id for shard in fleet.shards}
    for sid in fleet.crashed:
        if sid in live:
            out.bad(f"shard-{sid}", "shard is reported both live and crashed")

    total_submitted = 0.0
    per_target_records: Counter[str] = Counter()
    per_target_shard_counters: dict[str, float] = {}
    for shard in fleet.shards:
        sid = shard.shard_id
        snapshot = shard.snapshot
        fam = snapshot.family("repro_queries_submitted_total")
        submitted = 0.0 if fam is None else fam.value()
        total_submitted += submitted
        hits = len(shard.cache_hits) + shard.retired.cache_hits
        received = submitted + hits
        routed = fleet.routed.get(sid, 0)
        failed = fleet.failed.get(sid, 0)
        if failed == 0 and routed != received:
            out.bad(
                f"shard-{sid}",
                f"front door routed {routed} queries here but the shard "
                f"received {received:g} ({submitted:g} scheduler-offered "
                f"+ {hits} cache hits)",
            )
        per_target_records.update(shard.retired.by_target)
        per_target_records.update(record.target for record in shard.records)
        completed_fam = snapshot.family("repro_queries_completed_total")
        if completed_fam is not None:
            for (target,), count in completed_fam.items():
                per_target_shard_counters[target] = (
                    per_target_shard_counters.get(target, 0.0) + count
                )
        if not str(shard.validation).startswith("ok"):
            out.bad(f"shard-{sid}", f"local audit failed: {shard.validation}")

    merged = fleet.merged
    merged_submitted_fam = merged.family("repro_queries_submitted_total")
    merged_submitted = (
        0.0 if merged_submitted_fam is None else merged_submitted_fam.value()
    )
    if merged_submitted != total_submitted:
        out.bad(
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
            out.bad(
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
                out.bad(
                    "repro_query_latency_seconds",
                    f"merged histogram has {n} observations on {target} but "
                    f"the shards recorded "
                    f"{per_target_records.get(target, 0)} completions",
                )

    return out.result()


#: escalation actions (trigger "breach") and their unwind counterparts
#: (trigger "recover"), mirroring repro.adapt.controller
_ADAPT_ESCALATIONS = ("tighten_admission", "grow_translation", "resplit_up")
_ADAPT_REVERSES = ("relax_admission", "shrink_translation", "resplit_down")


def _check_adapt(report) -> ValidationResult:
    """The ``adapt`` family: one adaptive run's model-swap and
    reconfiguration history.

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
    out = _Audit("adapt")

    guards = report.guards
    limits = report.limits
    epochs = tuple(report.epochs)

    for i, epoch in enumerate(epochs):
        tag = f"epoch-{epoch.version}"
        if epoch.version != i:
            out.bad(tag, f"expected version {i} at position {i}, got {epoch.version}")
        if i == 0 and epoch.trigger != "init":
            out.bad(tag, f"first epoch must be the init install, got {epoch.trigger!r}")
        if i > 0:
            prev = epochs[i - 1]
            if epoch.time < prev.time:
                out.bad(
                    tag,
                    f"epoch time went backwards: {prev.time:g} -> {epoch.time:g}",
                )
            if epoch.trigger == "refit":
                if not epoch.families:
                    out.bad(tag, "refit epoch names no refit family")
                for family in epoch.families:
                    n = epoch.samples.get(family)
                    if n is None or n < guards.min_samples:
                        out.bad(
                            tag,
                            f"family {family!r} refit on {n} samples, "
                            f"below the min_samples={guards.min_samples} guard",
                        )
                    r2 = epoch.r2.get(family)
                    if r2 is None or r2 < guards.min_r2 - TOLERANCE:
                        out.bad(
                            tag,
                            f"family {family!r} refit at r2={r2}, below "
                            f"the min_r2={guards.min_r2} guard",
                        )
            for key, old in prev.coefficients.items():
                if key not in epoch.coefficients:
                    out.bad(tag, f"coefficient {key!r} disappeared from the bundle")
                    continue
                new = epoch.coefficients[key]
                allowed = guards.max_step * max(abs(old), 1e-12)
                if abs(new - old) > allowed * (1.0 + 1e-9) + TOLERANCE:
                    out.bad(
                        tag,
                        f"coefficient {key!r} stepped {old:g} -> {new:g}, "
                        f"outside the max_step={guards.max_step} clamp "
                        f"(allowed {allowed:g})",
                    )
        for key in epoch.clamped:
            if key not in epoch.coefficients:
                out.bad(tag, f"clamped key {key!r} is not a bundle coefficient")

    versions = {epoch.version for epoch in epochs}
    books = dict(report.decisions_by_epoch)
    for version, count in sorted(books.items()):
        if version not in versions:
            out.bad(
                "decisions",
                f"decision books name unknown epoch version {version}",
            )
        if count < 0:
            out.bad("decisions", f"negative decision count {count} in epoch {version}")
    total = sum(books.values())
    if total != report.total_decisions:
        out.bad(
            "decisions",
            f"per-epoch decision books sum to {total} but the run served "
            f"{report.total_decisions} decisions",
        )
    if report.samples_ingested < 0 or report.poisoned < 0:
        out.bad("feedback", "negative ingestion books")

    reconfigs = tuple(report.reconfigs)
    if len(reconfigs) > limits.max_reconfigs:
        out.bad(
            "controller",
            f"{len(reconfigs)} reconfigurations exceed the "
            f"max_reconfigs={limits.max_reconfigs} cap",
        )
    for i, rec in enumerate(reconfigs):
        tag = f"reconfig-{rec.seq}"
        if rec.seq != i:
            out.bad(tag, f"expected seq {i} at position {i}, got {rec.seq}")
        if rec.action in _ADAPT_ESCALATIONS:
            if rec.trigger != "breach":
                out.bad(tag, f"escalation {rec.action!r} fired on {rec.trigger!r}")
        elif rec.action in _ADAPT_REVERSES:
            if rec.trigger != "recover":
                out.bad(tag, f"unwind {rec.action!r} fired on {rec.trigger!r}")
        else:
            out.bad(tag, f"unknown action {rec.action!r}")
        if i > 0:
            gap = rec.time - reconfigs[i - 1].time
            if gap < -TOLERANCE:
                out.bad(tag, f"reconfiguration time went backwards by {-gap:g}s")
            elif gap < limits.cooldown - TOLERANCE:
                out.bad(
                    tag,
                    f"actions {gap:g}s apart, inside the "
                    f"cooldown={limits.cooldown:g}s window",
                )
        if rec.action in ("tighten_admission", "relax_admission"):
            lo, hi = limits.min_lateness_factor, limits.max_lateness_factor
            if not lo - TOLERANCE <= rec.value_after <= hi + TOLERANCE:
                out.bad(
                    tag,
                    f"lateness factor set to {rec.value_after:g}, outside "
                    f"[{lo:g}, {hi:g}]",
                )
        elif rec.action in ("grow_translation", "shrink_translation"):
            lo, hi = limits.min_translation_workers, limits.max_translation_workers
            if not lo <= rec.value_after <= hi:
                out.bad(
                    tag,
                    f"translation pool set to {rec.value_after:g}, outside "
                    f"[{lo}, {hi}]",
                )

    return out.result()


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


def _check_spans(spans, run: _Run | None, seed, sample_rate, submitted) -> ValidationResult:
    """The ``spans`` family: a span set's tree structure, sampling, and
    books.

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
      ``partial`` (a crashed shard's severed tree is flagged, never
      silently truncated).

    Optional context adds exact accounting:

    * ``seed`` + ``sample_rate`` + ``submitted`` (the query ids offered
      to the tracer; all three or none): the traced trace-id set must
      equal the head-sampling formula's output exactly, both
      directions — the checker re-derives the ``blake2b`` trace ids and
      sampling decisions itself;
    * a report (``run``): an ``ok`` root with a completion record opens
      no later than the record's submission and closes at its finish;
      every ``pool.service`` span matches a server-timeline entry
      start-for-start and finish-for-finish.
    """
    spans = tuple(spans)
    out = _Audit("spans")

    by_trace: dict[str, list] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)

    roots_by_trace: dict[str, object] = {}
    for trace_id, members in sorted(by_trace.items()):
        tag = f"trace-{trace_id}"
        ids = [s.span_id for s in members]
        for sid in sorted({i for i in ids if ids.count(i) > 1}):
            out.bad(tag, f"span id {sid} appears {ids.count(sid)} times")
        roots = [s for s in members if s.parent_id is None]
        if len(roots) != 1:
            names = sorted(s.name for s in roots)
            out.bad(tag, f"{len(roots)} root spans ({names}), expected exactly 1")
        else:
            roots_by_trace[trace_id] = roots[0]
        index = {s.span_id: s for s in members}
        for span in members:
            if span.end < span.start - TOLERANCE:
                out.bad(
                    tag,
                    f"span {span.name!r} ends at {span.end} before its "
                    f"start {span.start}",
                )
            if span.parent_id is None:
                continue
            parent = index.get(span.parent_id)
            if parent is None:
                out.bad(
                    tag,
                    f"span {span.name!r} names parent {span.parent_id} "
                    "which is not in the trace — an orphan",
                )
            elif parent.process == span.process and (
                span.start < parent.start - TOLERANCE
                or span.end > parent.end + TOLERANCE
            ):
                out.bad(
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
                out.bad(
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
            out.bad(
                "sampling",
                f"trace {trace_id} was recorded but no submitted query "
                f"head-samples to it at rate {sample_rate}",
            )
        for trace_id in sorted(expected - actual):
            out.bad(
                "sampling",
                f"head-sampling selects trace {trace_id} but the run "
                "recorded no spans for it",
            )

    if run is not None:
        for trace_id, root in sorted(roots_by_trace.items()):
            record = run.records.get(root.query_id)
            if record is None or root.status != "ok":
                continue
            tag = f"trace-{trace_id}"
            if root.start > record.submit_time + TOLERANCE:
                out.bad(
                    tag,
                    f"root opens at {root.start}, after query "
                    f"{root.query_id}'s submission at {record.submit_time}",
                )
            if abs(root.end - record.finish_time) > TOLERANCE:
                out.bad(
                    tag,
                    f"root closes at {root.end} but query {root.query_id} "
                    f"finished at {record.finish_time}",
                )
        for span in spans:
            if span.name != "pool.service":
                continue
            pool = span.attributes.get("pool", span.track)
            entry = run.served[pool].get(span.query_id)
            if entry is None:
                out.bad(
                    f"trace-{span.trace_id}",
                    f"pool.service span for query {span.query_id} on "
                    f"{pool!r} has no server-timeline entry",
                )
            elif (
                abs(span.start - entry[0]) > TOLERANCE
                or abs(span.end - entry[1]) > TOLERANCE
            ):
                out.bad(
                    f"trace-{span.trace_id}",
                    f"pool.service span for query {span.query_id} "
                    f"[{span.start}, {span.end}] disagrees with the "
                    f"{pool!r} timeline entry [{entry[0]}, {entry[1]}]",
                )

    return out.result()


def audit(
    report: SystemReport | None = None,
    *,
    require_drained: bool = False,
    collector: "TraceCollector | None" = None,
    snapshot: "MetricsSnapshot | None" = None,
    spans=None,
    seed: int | None = None,
    sample_rate: float | None = None,
    submitted=None,
    adapt=None,
) -> ValidationResult:
    """Audit whatever it is handed, with every family it has a subject
    for.

    The one place that decides which families a run owes (the module
    table).  Given a ``report``, the books families
    (:func:`_check_books`; ``require_drained`` strengthens
    ``conservation``), then the family of each artifact handed in:
    ``collector`` (``trace``) and ``snapshot`` (``metrics``), which
    reconcile against the report and so need one; ``spans`` (any
    iterable of span-shaped objects: ``spans``, against the report when
    there is one, with the sampling context ``seed`` / ``sample_rate`` /
    ``submitted`` when all three are given); and ``adapt`` (an
    ``AdaptReport``-shaped object: ``adapt``).  The trace and metrics
    layers of ``rollup`` join when the report has cache hits (or the
    snapshot carries the ``repro_rollup_*`` families).

    ``checked`` of the merged result names every family that ran, so
    ``print(f"audit: {result.summary()}")`` says what was audited;
    :func:`assert_valid` is the raising form.
    """
    if report is None:
        if collector is not None or snapshot is not None:
            raise TypeError(
                "collector= and snapshot= reconcile against a report; "
                "pass the run's report too"
            )
        if spans is None and adapt is None:
            raise TypeError("audit() needs a report, spans= or adapt=")
        run, results = None, []
    else:
        run = _Run(report, collector)
        hits = bool(report.cache_hit_count)
        results = [_check_books(run, require_drained)]
        if collector is not None:
            results.append(_check_trace(run))
            if hits:
                results.append(_check_rollup_trace(run))
        if snapshot is not None:
            results.append(_check_metrics(report, snapshot))
            if hits or snapshot.family("repro_rollup_hits_total") is not None:
                results.append(_check_rollup_metrics(report, snapshot))
    if spans is not None:
        results.append(_check_spans(spans, run, seed, sample_rate, submitted))
    if adapt is not None:
        results.append(_check_adapt(adapt))
    return _merged(results)


def assert_valid(report: SystemReport | None = None, **artifacts) -> SystemReport | None:
    """The raising form of :func:`audit`, with the same arguments:
    raises :class:`~repro.errors.InvariantViolation` on any violation
    and returns ``report``, so call sites can chain
    ``report = assert_valid(system.run(stream))``."""
    audit(report, **artifacts).raise_if_bad()
    return report


def validate_fleet(fleet) -> ValidationResult:
    """Audit a fleet with every family it has a subject for: ``fleet``
    on its merged books (:func:`_check_fleet`), and ``spans`` on its
    stitched span set when ``fleet.spans`` is non-empty (structure
    only: the sampling context and the books are per shard)."""
    results = [_check_fleet(fleet)]
    if fleet.spans:
        results.append(_check_spans(fleet.spans, None, None, None, None))
    return _merged(results)


def assert_fleet_valid(fleet):
    """The raising form of :func:`validate_fleet`; returns ``fleet``."""
    validate_fleet(fleet).raise_if_bad()
    return fleet


# -- seeded violations ---------------------------------------------------------
#
# One table ``family -> kind -> corruptor``; the kinds are unique
# across families.  A corruptor takes a healthy subject and returns a
# copy with one reconciliation broken, or raises ``_NoVictim`` naming
# what the subject lacks.


class _NoVictim(Exception):
    """The subject holds nothing this corruptor can break."""


def _first(candidates, missing: str):
    """The first of ``candidates``, or :class:`_NoVictim` saying what is missing."""
    for candidate in candidates:
        return candidate
    raise _NoVictim(missing)


def _with_entry(report: SystemReport, name: str, old: Entry, new: Entry):
    """``report`` with one entry of server ``name``'s timeline replaced."""
    timeline = tuple(new if e == old else e for e in report.timelines[name])
    return replace(report, timelines={**report.timelines, name: timeline})


def _seed_dependency(report: SystemReport) -> SystemReport:
    for record in report.records:
        if not record.translated:
            continue
        for entry in report.timelines[record.target]:
            if entry[0] == record.query_id:
                early = (entry[0], record.submit_time - 1.0, entry[2])
                return _with_entry(report, record.target, entry, early)
    raise _NoVictim("no translated query completed")


def _seed_discipline(report: SystemReport) -> SystemReport:
    for name, timeline in report.timelines.items():
        if len(timeline) >= 2 and report.capacities.get(name, 1) == 1:
            first, second = sorted(timeline, key=lambda e: e[1])[:2]
            if first[2] > first[1]:  # first job has positive service
                overlapped = (second[0], first[1], second[2])
                return _with_entry(report, name, second, overlapped)
    raise _NoVictim("no capacity-1 server ran 2 jobs")


def _seed_conservation(report: SystemReport) -> SystemReport:
    if not report.records:
        raise _NoVictim("empty run")
    return replace(report, records=report.records[:-1])


def _seed_drift(report: SystemReport) -> SystemReport:
    busy = [(n, t) for n, t in report.timelines.items() if t]
    if not busy:
        raise _NoVictim("no server served a job")
    name, timeline = max(busy, key=lambda item: len(item[1]))
    qid, start, finish = timeline[-1]
    pushed = timeline[:-1] + ((qid, start, finish + report.horizon + 1.0),)
    return replace(report, timelines={**report.timelines, name: pushed})


def _seed_rollup(report: SystemReport) -> SystemReport:
    # claim a scheduler-served query was also answered by the cache:
    # the same query now both bypassed and traversed the scheduler,
    # which the books-disjointness check must reject
    rec = _first(report.records, "need a scheduled record")
    dup = replace(
        rec,
        target="Q_ROLLUP",
        finish_time=rec.submit_time,
        estimated_time=0.0,
        measured_time=0.0,
    )
    return replace(report, cache_hits=report.cache_hits + (dup,))


def _family(snapshot: "MetricsSnapshot", name: str):
    fam = snapshot.family(name)
    if fam is None:
        raise _NoVictim(f"the snapshot has no {name} family")
    return fam


def _with_samples(snapshot: "MetricsSnapshot", name: str, samples: dict):
    """``snapshot`` with family ``name``'s samples replaced."""
    return replace(
        snapshot,
        families=tuple(
            replace(fam, samples=samples) if fam.name == name else fam
            for fam in snapshot.families
        ),
    )


def _bump_first(snapshot, name: str, missing: str):
    """``snapshot`` with the first sample of counter ``name`` one higher."""
    fam = _family(snapshot, name)
    key = _first(sorted(fam.samples), missing)
    return _with_samples(snapshot, fam.name, {**fam.samples, key: fam.samples[key] + 1})


def _seed_completed(snapshot):
    return _bump_first(snapshot, "repro_queries_completed_total", "no completions")


def _seed_pool_tasks(snapshot):
    return _bump_first(snapshot, "repro_pool_tasks_total", "no pool served a task")


def _seed_latency(snapshot):
    fam = _family(snapshot, "repro_query_latency_seconds")
    key = _first(sorted(fam.samples), "no latency observations")
    hist = fam.samples[key]
    return _with_samples(
        snapshot, fam.name, {**fam.samples, key: replace(hist, total=hist.total + 1000.0)}
    )


def _seed_in_flight(snapshot):
    fam = _family(snapshot, "repro_in_flight_queries")
    return _with_samples(snapshot, fam.name, {**fam.samples, (): 1.0 + fam.value()})


def _seed_missing_family(snapshot):
    dropped = _family(snapshot, "repro_queries_submitted_total")
    return replace(
        snapshot,
        families=tuple(fam for fam in snapshot.families if fam is not dropped),
    )


def _seed_routed(fleet):
    first = _first(fleet.shards, "no live shards")
    routed = dict(fleet.routed)
    routed[first.shard_id] = routed.get(first.shard_id, 0) + 1
    return replace(fleet, routed=routed)


def _seed_merged_submitted(fleet):
    fam = _family(fleet.merged, "repro_queries_submitted_total")
    bumped = _with_samples(fleet.merged, fam.name, {**fam.samples, (): fam.value() + 1.0})
    return replace(fleet, merged=bumped)


def _seed_lost_record(fleet):
    first = _first(fleet.shards, "no live shards")
    if not first.records:
        raise _NoVictim("shard has no records")
    shards = (replace(first, records=first.records[:-1]),) + tuple(fleet.shards[1:])
    return replace(fleet, shards=shards)


def _seed_epoch_gap(report):
    if not report.epochs:
        raise _NoVictim("no epochs")
    last = report.epochs[-1]
    return replace(
        report,
        epochs=report.epochs[:-1] + (replace(last, version=last.version + 1),),
    )


def _seed_max_step(report):
    if len(report.epochs) < 2:
        raise _NoVictim("need at least two epochs")
    last = report.epochs[-1]
    key = _first(sorted(report.epochs[-2].coefficients), "no coefficients")
    old = report.epochs[-2].coefficients[key]
    blown = old * (1.0 + 10.0 * report.guards.max_step) + 1.0
    coeffs = dict(last.coefficients)
    coeffs[key] = blown
    return replace(
        report,
        epochs=report.epochs[:-1] + (replace(last, coefficients=coeffs),),
    )


def _seed_decision_books(report):
    return replace(report, total_decisions=report.total_decisions + 1)


def _seed_cooldown(report):
    if len(report.reconfigs) < 2:
        raise _NoVictim("need at least two actions")
    second = replace(report.reconfigs[1], time=report.reconfigs[0].time)
    return replace(
        report,
        reconfigs=(report.reconfigs[0], second) + report.reconfigs[2:],
    )


def _seed_lateness_bounds(report):
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
    raise _NoVictim("no admission action in the run")


def _swapped(spans: tuple, old, new) -> tuple:
    return tuple(new if s is old else s for s in spans)


def _children(spans: tuple) -> list:
    return [s for s in spans if s.parent_id is not None]


def _pairs(spans: tuple) -> list:
    """``(child, parent)`` for every span whose parent is in the set."""
    by_id = {(s.trace_id, s.span_id): s for s in spans}
    return [
        (s, by_id[s.trace_id, s.parent_id])
        for s in spans
        if (s.trace_id, s.parent_id) in by_id
    ]


def _seed_orphan(spans: tuple) -> tuple:
    victim = _first(_children(spans), "no span has a parent")
    return _swapped(spans, victim, replace(victim, parent_id="f" * 16))


def _seed_inverted(spans: tuple) -> tuple:
    victim = _first(spans, "empty set")
    return _swapped(spans, victim, replace(victim, end=victim.start - 1.0))


def _seed_duplicate(spans: tuple) -> tuple:
    victim, parent = _first(_pairs(spans), "need a span and its parent in one trace")
    return _swapped(spans, victim, replace(victim, span_id=parent.span_id))


def _seed_escape(spans: tuple) -> tuple:
    victim, parent = _first(
        ((child, parent) for child, parent in _pairs(spans) if parent.process == child.process),
        "no same-process parent/child pair",
    )
    return _swapped(spans, victim, replace(victim, end=parent.end + 1.0))


def _seed_unsampled(spans: tuple) -> tuple:
    # re-stamp one whole trace onto an id no query hashes to
    target = _first(spans, "empty set").trace_id
    return tuple(
        replace(s, trace_id="feedfacefeedface") if s.trace_id == target else s
        for s in spans
    )


def _seed_books(spans: tuple) -> tuple:
    victim = _first(
        (s for s in spans if s.parent_id is None and s.status == "ok"), "no ok root"
    )
    return _swapped(spans, victim, replace(victim, end=victim.end + 1.0))


def _seed_severed(spans: tuple) -> tuple:
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
    raise _NoVictim("no ok multi-process wire trace")


def _with_events(collector: "TraceCollector", events) -> "TraceCollector":
    """A copy of ``collector`` holding ``events`` instead of its own."""
    corrupted = copy.copy(collector)
    corrupted.events = list(events)
    return corrupted


def _completed_query(collector: "TraceCollector") -> int:
    return _first(
        (e.query_id for e in collector.events if e.kind == "service_finish"),
        "no query completed",
    )


def _seed_out_of_order(collector):
    qid = _completed_query(collector)
    first, second = [i for i, e in enumerate(collector.events) if e.query_id == qid][:2]
    events = list(collector.events)
    events[first], events[second] = events[second], events[first]
    return _with_events(collector, events)


def _seed_retargeted(collector):
    qid = _completed_query(collector)
    victim = _first(
        (e for e in collector.events if e.query_id == qid and e.kind == "decision"),
        f"query {qid} has no decision event",
    )
    moved = replace(victim, data={**victim.data, "target": "Q_NOWHERE"})
    return _with_events(collector, (moved if e is victim else e for e in collector.events))


def _seed_dropped_rejection(collector):
    victim = _first(
        (e for e in collector.events if e.kind == "rejected"), "no query was rejected"
    )
    return _with_events(collector, (e for e in collector.events if e is not victim))


_SEEDS = {
    "dependency": {"dependency": _seed_dependency},
    "discipline": {"discipline": _seed_discipline},
    "conservation": {"conservation": _seed_conservation},
    "drift": {"drift": _seed_drift},
    "rollup": {"rollup": _seed_rollup},
    "trace": {
        "out-of-order": _seed_out_of_order,
        "retargeted": _seed_retargeted,
        "dropped-rejection": _seed_dropped_rejection,
    },
    "metrics": {
        "completed": _seed_completed,
        "latency": _seed_latency,
        "in-flight": _seed_in_flight,
        "missing-family": _seed_missing_family,
        "pool-tasks": _seed_pool_tasks,
    },
    "spans": {
        "orphan": _seed_orphan,
        "inverted": _seed_inverted,
        "duplicate": _seed_duplicate,
        "escape": _seed_escape,
        "unsampled": _seed_unsampled,
        "books": _seed_books,
        "severed": _seed_severed,
    },
    "adapt": {
        "epoch-gap": _seed_epoch_gap,
        "max-step": _seed_max_step,
        "decision-books": _seed_decision_books,
        "cooldown": _seed_cooldown,
        "lateness-bounds": _seed_lateness_bounds,
    },
    "fleet": {
        "routed": _seed_routed,
        "merged-submitted": _seed_merged_submitted,
        "lost-record": _seed_lost_record,
    },
}
#: family -> the kinds :func:`seed_violation` breaks it with
SEEDABLE_VIOLATIONS = {family: tuple(arms) for family, arms in _SEEDS.items()}
_CORRUPTORS = {kind: arm for arms in _SEEDS.values() for kind, arm in arms.items()}


def seed_violation(subject, kind: str):
    """Return a copy of ``subject`` with one invariant deliberately broken.

    Used by the test suite (and available for manual sanity checks) to
    prove a checker actually fails instead of passing vacuously.
    ``kind`` is one of the kinds in :data:`SEEDABLE_VIOLATIONS`, and
    ``subject`` is what its family audits: a ``SystemReport`` for the
    books families and ``rollup``, a ``TraceCollector``, a
    ``MetricsSnapshot``, an iterable of spans (returned as a tuple), an
    ``AdaptReport`` or a ``FleetReport`` — any frozen dataclass of that
    shape.  ``unsampled`` needs the sampling context passed to
    :func:`audit`; ``books`` needs a report; ``severed`` needs a
    stitched multi-process trace.  An unknown kind, or a subject with
    nothing of that kind to corrupt, raises
    :class:`~repro.errors.InvariantViolation` ("cannot seed ...").
    """
    if kind not in _CORRUPTORS:
        raise InvariantViolation(
            f"unknown violation kind {kind!r}; expected one of {tuple(_CORRUPTORS)}"
        )
    if kind in SEEDABLE_VIOLATIONS["spans"]:
        subject = tuple(subject)  # a span set may be any iterable
    try:
        return _CORRUPTORS[kind](subject)
    except _NoVictim as exc:
        raise InvariantViolation(f"cannot seed {kind!r}: {exc}") from None
