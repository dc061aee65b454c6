"""Per-query records and system-level reports.

The paper's evaluation metric is queries processed per second, split by
whether the time constraint was met (*"The total number of processed
queries that meet the time constraints is recorded as well as number of
queries that did not"*).  :class:`SystemReport` computes those plus the
per-partition and per-class breakdowns the benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.feedback import FeedbackStats
from repro.core.partitions import Submission
from repro.units import Rate, fmt_seconds

__all__ = ["QueryRecord", "Retired", "SystemReport"]


@dataclass(frozen=True)
class QueryRecord:
    """Complete life-cycle record of one query through the system."""

    query_id: int
    query_class: str
    target: str  # processing queue name
    submit_time: float
    finish_time: float
    deadline: float
    estimated_time: float
    measured_time: float
    translated: bool
    answer: float | None = None

    @property
    def response_time(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def met_deadline(self) -> bool:
        return self.finish_time <= self.deadline

    @property
    def estimation_error(self) -> float:
        return self.measured_time - self.estimated_time


@dataclass
class Retired:
    """Running totals of the entries a serving engine no longer keeps.

    A serving engine keeps the books of its newest finished queries only
    (:meth:`~repro.sim.lifecycle.QueryLifecycle.retire`).  A retired
    query leaves every book at once — its record (or cache hit), its
    timeline entries and their submissions — and adds to these counts,
    so the report's headline figures and the count audits still see
    the whole run.  Empty on the simulated plane, which keeps full books.
    """

    #: retired completion records per target / per query class
    by_target: dict[str, int] = field(default_factory=dict)
    by_class: dict[str, int] = field(default_factory=dict)
    met_deadline: int = 0
    translated: int = 0
    #: summed response times of the retired records, per target
    response_seconds: dict[str, float] = field(default_factory=dict)
    #: retired timeline entries (each with its submission), per station
    tasks: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    #: earliest submission and latest finish among retired entries
    first_submit: float | None = None
    last_finish: float | None = None

    @property
    def completed(self) -> int:
        return sum(self.by_target.values())

    def add(self, record: QueryRecord, hit: bool = False) -> None:
        """Count one retired record (``hit``: a rollup-served one)."""
        if hit:
            self.cache_hits += 1
        else:
            target = record.target
            self.by_target[target] = self.by_target.get(target, 0) + 1
            self.by_class[record.query_class] = (
                self.by_class.get(record.query_class, 0) + 1
            )
            self.met_deadline += record.met_deadline
            self.translated += record.translated
            self.response_seconds[target] = (
                self.response_seconds.get(target, 0.0) + record.response_time
            )
        if self.first_submit is None or record.submit_time < self.first_submit:
            self.first_submit = record.submit_time
        if self.last_finish is None or record.finish_time > self.last_finish:
            self.last_finish = record.finish_time


@dataclass(frozen=True)
class SystemReport:
    """Aggregated outcome of one simulated run.

    ``timelines`` carries per-partition ``(query_id, start, finish)``
    service records for Gantt rendering (:mod:`repro.sim.trace`).

    The remaining fields are the audit trail consumed by
    :mod:`repro.sim.validate`: ``submissions`` are the scheduler-side
    :class:`~repro.core.partitions.Submission` records per queue,
    ``capacities`` the per-server parallel-unit counts, ``outstanding``
    the per-queue jobs still in flight when the run stopped (non-zero
    only for truncated runs), and ``exact_estimates`` is True when
    realised service times equal the estimates exactly
    (``noise_sigma=0`` and ``noise_bias=1``), enabling the drift
    invariant.

    ``feedback_stats`` carries the per-queue estimation-error
    statistics of the :class:`~repro.core.feedback.FeedbackController`
    (Section III-G), so a run reports model calibration
    (:meth:`bias_ratio`, :attr:`overall_bias_ratio`) directly.

    ``cache_hits`` are queries answered by the :mod:`repro.olap.rollup`
    tier *before* reaching the scheduler: they appear in no submission
    book, timeline, or ``records`` entry (the ``rollup`` validation
    family enforces that disjointness) and are excluded from the
    scheduler-path headline metrics; :attr:`effective_queries_per_second`
    is the combined serving rate.

    ``retired`` carries the running totals of entries a serving engine
    dropped from these books (see :class:`Retired`); every headline
    count and breakdown adds them in.
    """

    records: tuple[QueryRecord, ...]
    makespan: float
    horizon: float
    utilisations: Mapping[str, float]
    timelines: Mapping[str, tuple[tuple[int, float, float], ...]] = field(
        default_factory=dict
    )
    rejected: int = 0
    submissions: Mapping[str, tuple[Submission, ...]] = field(default_factory=dict)
    capacities: Mapping[str, int] = field(default_factory=dict)
    outstanding: Mapping[str, int] = field(default_factory=dict)
    exact_estimates: bool = False
    feedback_stats: Mapping[str, FeedbackStats] = field(default_factory=dict)
    cache_hits: tuple[QueryRecord, ...] = ()
    retired: Retired = field(default_factory=Retired)

    @classmethod
    def from_records(
        cls,
        records: Iterable[QueryRecord],
        utilisations: Mapping[str, float] | None = None,
        horizon: float | None = None,
        timelines: Mapping[str, tuple[tuple[int, float, float], ...]] | None = None,
        rejected: int = 0,
        submissions: Mapping[str, tuple[Submission, ...]] | None = None,
        capacities: Mapping[str, int] | None = None,
        outstanding: Mapping[str, int] | None = None,
        exact_estimates: bool = False,
        feedback_stats: Mapping[str, FeedbackStats] | None = None,
        cache_hits: Iterable[QueryRecord] | None = None,
        retired: Retired | None = None,
    ) -> "SystemReport":
        recs = tuple(sorted(records, key=lambda r: r.finish_time))
        hits = tuple(sorted(cache_hits or (), key=lambda r: r.finish_time))
        retired = retired if retired is not None else Retired()
        audit = dict(
            submissions=dict(submissions or {}),
            capacities=dict(capacities or {}),
            outstanding=dict(outstanding or {}),
            exact_estimates=exact_estimates,
            feedback_stats=dict(feedback_stats or {}),
            cache_hits=hits,
            retired=retired,
        )
        spanning = recs + hits
        if not spanning and retired.first_submit is None:
            return cls(
                records=(),
                makespan=0.0,
                horizon=horizon or 0.0,
                utilisations=utilisations or {},
                timelines=dict(timelines or {}),
                rejected=rejected,
                **audit,
            )
        starts = [r.submit_time for r in spanning]
        ends = [r.finish_time for r in spanning]
        if retired.first_submit is not None:
            starts.append(retired.first_submit)
            ends.append(retired.last_finish)
        makespan = max(ends) - min(starts)
        return cls(
            records=recs,
            makespan=makespan,
            horizon=horizon if horizon is not None else makespan,
            utilisations=dict(utilisations or {}),
            timelines=dict(timelines or {}),
            rejected=rejected,
            **audit,
        )

    def gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart of the run (see :mod:`repro.sim.trace`)."""
        from repro.sim.trace import render_gantt

        return render_gantt(
            self.timelines,
            horizon=self.horizon,
            width=width,
            capacities=self.capacities,
        )

    # -- headline metrics ---------------------------------------------------

    @property
    def completed(self) -> int:
        return len(self.records) + self.retired.completed

    @property
    def throughput(self) -> Rate:
        """Queries per second over the makespan (the Tables 1-3 metric)."""
        return Rate(self.completed, self.makespan)

    @property
    def queries_per_second(self) -> float:
        return self.throughput.per_second

    @property
    def met_deadline(self) -> int:
        return sum(1 for r in self.records if r.met_deadline) + self.retired.met_deadline

    @property
    def missed_deadline(self) -> int:
        return self.completed - self.met_deadline

    @property
    def deadline_hit_rate(self) -> float:
        return self.met_deadline / self.completed if self.completed else 0.0

    @property
    def mean_response_time(self) -> float:
        if not self.completed:
            return 0.0
        total = sum(r.response_time for r in self.records)
        return (total + sum(self.retired.response_seconds.values())) / self.completed

    # -- breakdowns ------------------------------------------------------------

    def by_target(self) -> dict[str, int]:
        """Completed-query counts per processing partition."""
        counts = dict(self.retired.by_target)
        for r in self.records:
            counts[r.target] = counts.get(r.target, 0) + 1
        return counts

    def by_class(self) -> dict[str, int]:
        counts = dict(self.retired.by_class)
        for r in self.records:
            counts[r.query_class] = counts.get(r.query_class, 0) + 1
        return counts

    def target_rate(self, prefix: str) -> float:
        """q/s of targets whose name starts with ``prefix`` (e.g. "Q_G")."""
        if self.makespan <= 0:
            return 0.0
        n = sum(c for t, c in self.by_target().items() if t.startswith(prefix))
        return n / self.makespan

    @property
    def translated_count(self) -> int:
        return sum(1 for r in self.records if r.translated) + self.retired.translated

    # -- rollup-cache tier (queries that never reached the scheduler) -------

    @property
    def cache_hit_count(self) -> int:
        return len(self.cache_hits) + self.retired.cache_hits

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of all answered queries served by the rollup tier."""
        total = self.completed + self.cache_hit_count
        return self.cache_hit_count / total if total else 0.0

    @property
    def effective_queries_per_second(self) -> float:
        """Combined serving rate: scheduler-path plus cache-served."""
        if self.makespan <= 0:
            return 0.0
        return (self.completed + self.cache_hit_count) / self.makespan

    # -- model calibration (Section III-G feedback statistics) --------------

    def bias_ratio(self, queue: str) -> float:
        """measured/estimated totals for one partition (NaN if unseen)."""
        stats = self.feedback_stats.get(queue)
        return stats.bias_ratio if stats is not None else float("nan")

    @property
    def overall_bias_ratio(self) -> float:
        """System-wide measured/estimated ratio; 1.0 = calibrated models."""
        est = sum(s.total_estimated for s in self.feedback_stats.values())
        meas = sum(s.total_measured for s in self.feedback_stats.values())
        return meas / est if est > 0 else float("nan")

    def summary(self) -> str:
        """Multi-line human-readable report for examples and benches."""
        lines = [
            f"completed            : {self.completed}"
            + (f" (+{self.rejected} rejected)" if self.rejected else ""),
            f"makespan             : {fmt_seconds(self.makespan)}",
            f"throughput           : {self.queries_per_second:.1f} queries/s",
            f"met deadline         : {self.met_deadline} "
            f"({100.0 * self.deadline_hit_rate:.1f}%)",
            f"missed deadline      : {self.missed_deadline}",
            f"mean response time   : {fmt_seconds(self.mean_response_time)}",
            f"translated queries   : {self.translated_count}",
        ]
        if self.cache_hit_count:
            lines.append(
                f"cache-served         : {self.cache_hit_count} "
                f"({100.0 * self.cache_hit_rate:.1f}% of answers, "
                f"{self.effective_queries_per_second:.1f} effective q/s)"
            )
        for target, count in sorted(self.by_target().items()):
            util = self.utilisations.get(target)
            util_s = f", util {100 * util:.0f}%" if util is not None else ""
            lines.append(f"  {target:<10s}: {count} queries{util_s}")
        return "\n".join(lines)
