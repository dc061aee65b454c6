"""Structured observability for simulated runs (query-lifecycle tracing).

The paper's argument rests on quantities that are invisible in a
finished :class:`~repro.sim.metrics.SystemReport`: the per-queue
:math:`T_Q` beliefs the scheduler consults at each decision, which
Figure-10 branch (step 4/5/6) each query took, the translation-pipeline
stall, and the feedback delta of Section III-G.  This module makes all
of them first-class:

* **Lifecycle events** — every query emits typed :class:`TraceEvent`
  records as it moves through the system::

      arrival -> estimated -> decision
          [-> translation_start -> translation_finish -> feedback]
          -> service_start -> service_finish -> feedback

  (or ``arrival -> estimated -> rejected`` under admission control, or
  ``arrival -> cache-hit`` when the :mod:`repro.olap.rollup` tier
  answers from a materialised cuboid before the scheduler is consulted).
  The ``decision`` event carries the full ``(queue, T_R)`` candidate
  list of step 3 and the branch taken (:func:`classify_branch`).

* **Per-partition time series** — at every simulation event the
  collector samples each partition's *booked* state (:math:`T_Q`,
  backlog, outstanding jobs) next to its *realised* state (queue depth,
  jobs in service) as :class:`PartitionSample` rows, so the
  booked-vs-realised drift that :mod:`repro.sim.validate` checks as a
  pass/fail invariant becomes a plottable signal.

* **Exports** — :meth:`TraceCollector.write_jsonl` dumps everything as
  JSON Lines; :func:`repro.report.render_dashboard` renders per-partition
  sparklines next to the Gantt; ``python -m repro simulate --trace PATH``
  wires both into the CLI.

The collector is the trace view of the query stage stream: one
subscriber in the run's :class:`~repro.core.stages.Subscribers` table,
turning each published stage into its :class:`TraceEvent`.  Tracing is
strictly read-only: a run with a collector attached produces a
byte-identical :class:`SystemReport` to the same run without one, and
with no collector every publish site iterates an empty tuple (zero
impact).  :func:`repro.sim.validate.audit` (``collector=``, the
``trace`` family) cross-checks a collected trace against the queues'
:class:`~repro.core.partitions.Submission` books.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.partitions import PartitionQueue
from repro.core.scheduler import classify_branch  # re-exported: its home is core
from repro.core.stages import Outcome
from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.core.feedback import FeedbackStats
    from repro.core.scheduler import QueryEstimates, ScheduleDecision
    from repro.query.model import Query

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "PartitionSample",
    "TraceCollector",
    "classify_branch",
]

#: every event kind a collector can emit, in rough lifecycle order
EVENT_KINDS = (
    "arrival",
    "cache-hit",
    "estimated",
    "decision",
    "translation_start",
    "translation_finish",
    "service_start",
    "service_finish",
    "feedback",
    "rejected",
    # adapt-plane events: no query_id — they describe the system, not a
    # query (a model hot-swap / a capacity reconfiguration)
    "model_epoch",
    "reconfig",
)


@dataclass(frozen=True)
class TraceEvent:
    """One typed lifecycle event.

    ``data`` is a kind-specific payload (JSON-serialisable by
    construction); ``query_id`` is ``None`` only for events not tied to
    a single query (none currently, but the schema allows it).
    """

    kind: str
    time: float
    query_id: int | None
    data: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise SimulationError(
                f"unknown trace event kind {self.kind!r}; expected one of "
                f"{EVENT_KINDS}"
            )

    def to_json(self) -> dict[str, Any]:
        return {
            "record": "event",
            "kind": self.kind,
            "time": self.time,
            "query_id": self.query_id,
            **self.data,
        }


@dataclass(frozen=True)
class PartitionSample:
    """One partition's booked-vs-realised state at one instant.

    ``t_q``/``backlog``/``outstanding`` are the scheduler's *beliefs*
    (the :class:`~repro.core.partitions.PartitionQueue` books);
    ``queue_depth``/``in_service`` are the *realised* server state.  The
    gap between the two columns is exactly the drift signal the
    Section III-G feedback mechanism exists to correct.
    """

    time: float
    queue: str
    t_q: float
    backlog: float
    outstanding: int
    queue_depth: int
    in_service: int

    def to_json(self) -> dict[str, Any]:
        return {
            "record": "sample",
            "time": self.time,
            "queue": self.queue,
            "t_q": self.t_q,
            "backlog": self.backlog,
            "outstanding": self.outstanding,
            "queue_depth": self.queue_depth,
            "in_service": self.in_service,
        }


class TraceCollector:
    """Collects lifecycle events and partition telemetry from one run.

    Pass an instance to :meth:`repro.sim.system.HybridSystem.run` or
    :class:`~repro.serve.engine.ServeEngine`: it subscribes to the
    run's stage stream (the ``on_*`` methods below fill :attr:`events`)
    and the driver calls :meth:`sample` to fill :attr:`series`.  A
    collector is single-run: attach a fresh one per run.

    Parameters
    ----------
    sample_series:
        When False, only lifecycle events are collected (no per-event
        partition sampling) — cheaper for very long runs.
    """

    def __init__(self, sample_series: bool = True):
        self.events: list[TraceEvent] = []
        self.series: dict[str, list[PartitionSample]] = {}
        self._sample_series = sample_series
        self._attached = False
        self._queues: Mapping[str, PartitionQueue] = {}
        self._servers: Mapping[str, Any] = {}

    def bind(
        self, queues: Mapping[str, PartitionQueue], stations: Mapping[str, Any]
    ) -> None:
        """Bind the partitions :meth:`sample` reads (called by the driver).

        ``stations`` maps partition name to an object with the
        :class:`~repro.sim.resources.Server` observable surface
        (``queue_length`` / ``in_service``).  Both mappings are kept
        *live*, not copied: partitions a GPU re-split adds mid-run are
        sampled from their first event on.
        """
        if self._attached:
            raise SimulationError(
                "TraceCollector is single-run: attach a fresh collector per run"
            )
        self._attached = True
        self._queues = queues
        self._servers = stations

    # -- emission ------------------------------------------------------------

    def emit(
        self, kind: str, time: float, query_id: int | None = None, **data: Any
    ) -> TraceEvent:
        event = TraceEvent(kind=kind, time=time, query_id=query_id, data=data)
        self.events.append(event)
        return event

    def sample(self, now: float) -> None:
        """Record one booked-vs-realised sample row per partition.

        Simulated runs call this from the engine's event hook; serving
        engines call it at every lifecycle transition (arrival, service
        start/finish) since there is no central event loop to hook.
        """
        if not self._sample_series:
            return
        for name, queue in self._queues.items():
            server = self._servers.get(name)
            self.series.setdefault(name, []).append(
                PartitionSample(
                    time=now,
                    queue=name,
                    t_q=queue.t_q,
                    backlog=queue.backlog(now),
                    outstanding=queue.outstanding,
                    queue_depth=server.queue_length if server is not None else 0,
                    in_service=server.in_service if server is not None else 0,
                )
            )

    # -- the stage stream (signatures: repro.core.stages.STAGES) ------------

    def on_arrival(self, query, query_class, now) -> None:
        self.emit(
            "arrival",
            now,
            query.query_id,
            query_class=query_class,
            needs_translation=query.needs_translation,
        )

    def on_cache_hit(self, record, source, seconds, now) -> None:
        self.emit(
            "cache-hit", now, record.query_id, target=record.target, answer=record.answer
        )

    def on_estimated(
        self, query: "Query", est: "QueryEstimates", deadline: float, now: float
    ) -> None:
        self.emit(
            "estimated",
            now,
            query.query_id,
            t_cpu=est.t_cpu,
            t_gpu={str(n_sm): t for n_sm, t in sorted(est.t_gpu.items())},
            t_trans=est.t_trans,
            deadline=deadline,
        )

    def on_decision(
        self,
        decision: "ScheduleDecision",
        candidates: Sequence[tuple[PartitionQueue, float]],
        branch: str,
        now: float,
    ) -> None:
        translation = decision.translation
        self.emit(
            "decision",
            now,
            decision.query.query_id,
            target=decision.target.name,
            branch=branch,
            candidates=[[q.name, t_r] for q, t_r in candidates],
            deadline=decision.deadline,
            estimated_response=decision.estimated_response,
            estimated_time=decision.processing.estimated_time,
            meets_deadline=decision.meets_deadline,
            translation=(
                None
                if translation is None
                else {
                    "estimated_time": translation.estimated_time,
                    "estimated_finish": translation.estimated_finish,
                }
            ),
        )

    def on_outcome(self, query_id, outcome, record, detail, in_flight, now) -> None:
        if outcome is Outcome.REJECTED:
            self.emit("rejected", now, query_id, reason=detail)

    def on_stage_start(
        self, stage, station, query_id, now, waited, service_time
    ) -> None:
        data = {"server": station}
        if service_time is not None:  # known at start only in simulation
            data["service_time"] = service_time
        data["waited"] = waited
        self.emit(f"{stage}_start", now, query_id, **data)

    def on_stage_finish(
        self, stage, station, query_id, arrived, started, finished, service_time, error
    ) -> None:
        self.emit(
            f"{stage}_finish", finished, query_id, server=station, service_time=service_time
        )

    def on_feedback(
        self,
        queue_name: str,
        query_id: int,
        measured: float,
        estimated: float,
        applied: float,
        stats: "FeedbackStats",
        now: float,
    ) -> None:
        self.emit(
            "feedback",
            now,
            query_id,
            queue=queue_name,
            measured=measured,
            estimated=estimated,
            error=measured - estimated,
            applied=applied,
            bias_ratio=stats.bias_ratio,
        )

    def on_epoch(self, epoch, now: float) -> None:
        """The adapt plane put a model bundle live (a ``ModelEpoch``)."""
        self.emit(
            "model_epoch",
            now,
            version=epoch.version,
            trigger=epoch.trigger,
            families=list(epoch.families),
            clamped=list(epoch.clamped),
        )

    def on_reconfig(self, record, now: float) -> None:
        """The adapt plane applied one capacity ``ReconfigRecord``."""
        self.emit(
            "reconfig",
            now,
            seq=record.seq,
            action=record.action,
            trigger=record.trigger,
            detail=record.detail,
        )

    # -- accessors ------------------------------------------------------------

    def events_for(self, query_id: int) -> tuple[TraceEvent, ...]:
        """One query's event stream, in emission (= causal) order."""
        return tuple(e for e in self.events if e.query_id == query_id)

    def kinds_for(self, query_id: int) -> tuple[str, ...]:
        return tuple(e.kind for e in self.events_for(query_id))

    def event_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts

    def partition_series(self, queue_name: str) -> tuple[PartitionSample, ...]:
        return tuple(self.series.get(queue_name, ()))

    @property
    def query_ids(self) -> tuple[int, ...]:
        seen: dict[int, None] = {}
        for e in self.events:
            if e.query_id is not None:
                seen.setdefault(e.query_id, None)
        return tuple(seen)

    # -- export ------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Dump events then samples as JSON Lines; returns lines written.

        Events come first (in emission order), then samples grouped by
        partition in time order; every line carries a ``record`` field
        (``"event"`` or ``"sample"``) so consumers can split the two
        streams with one filter.

        The write is crash-safe: everything lands in a tempfile in the
        target directory first and is renamed into place atomically
        (:func:`repro.obs.fileio.atomic_write_lines`), so an interrupted
        run can never leave a torn half-written trace behind.
        """
        from repro.obs.fileio import atomic_write_lines

        def render():
            for event in self.events:
                yield json.dumps(event.to_json())
            for name in self.series:
                for sample in self.series[name]:
                    yield json.dumps(sample.to_json())

        return atomic_write_lines(path, render())
