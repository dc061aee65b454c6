"""Partition queues with the :math:`T_Q` bookkeeping of Section III-G.

Each system partition — the CPU OLAP partition, the CPU translation
partition, and every GPU partition — owns a FIFO queue.  *"Each queue is
aware of how many jobs are outstanding and when all its jobs will be
finished"*: that finish estimate is the queue's :math:`T_Q`
(:math:`T_{Q|C}`, :math:`T_{Q|TRANS}`, :math:`T_{Q|G1..G6}`), which the
scheduler reads when computing response times (step 3) and bumps by the
estimated processing time on every submission (steps 5-6).

:class:`PartitionQueue` is pure bookkeeping — it does not execute
anything.  The discrete-event layer (:mod:`repro.sim`) runs the actual
service processes and feeds measured runtimes back through
:meth:`apply_feedback`, implementing the paper's estimate-error
correction (*"the difference of these two times [is] used to update the
value T_Q of the queue"*).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, TypeVar

from repro.errors import PartitionError

__all__ = ["QueueKind", "PartitionQueue", "Submission", "drop_earliest"]

T = TypeVar("T")


def drop_earliest(
    entries: list[T], query_ids: Counter, key: Callable[[T], int]
) -> None:
    """Remove, in place, the earliest entry of each id in ``query_ids``.

    An id counted ``n`` times loses its first ``n`` entries, so a query
    id that recurs keeps its later entries.
    """
    left = Counter(query_ids)
    kept = []
    for entry in entries:
        query_id = key(entry)
        if left[query_id] > 0:
            left[query_id] -= 1
        else:
            kept.append(entry)
    entries[:] = kept


class QueueKind(str, Enum):
    """Which resource a partition queue feeds."""

    CPU = "cpu"
    GPU = "gpu"
    TRANSLATION = "translation"


@dataclass(frozen=True)
class Submission:
    """Record of one query submission to a queue.

    ``earliest_start`` is the pipeline dependency constraining this job
    (for GPU jobs of translated queries: the estimated translation
    finish); ``None`` when the job has no upstream stage.  The simulator
    and :mod:`repro.sim.validate` use it to audit the realised schedule
    against the scheduler's beliefs.
    """

    query_id: int
    submit_time: float
    estimated_start: float
    estimated_time: float
    earliest_start: float | None = None

    @property
    def estimated_finish(self) -> float:
        return self.estimated_start + self.estimated_time


class PartitionQueue:
    """One partition's queue and its :math:`T_Q` estimate.

    Parameters
    ----------
    name:
        Queue label (``"Q_CPU"``, ``"Q_G1"``, ``"Q_TRANS"``, ...).
    kind:
        The resource class this queue feeds.
    n_sm:
        SM count for GPU queues (drives which :math:`T_{GPUj}` estimate
        applies); ``None`` otherwise.
    capacity:
        Parallel service units behind this queue (1 = the paper's
        single-partition configuration).  With ``capacity`` > 1 the
        :math:`T_Q` bookkeeping is a fluid approximation: each
        submission advances :math:`T_Q` by ``estimated_time/capacity``
        (exact for throughput), while the submission record keeps the
        full single-job service time.
    """

    def __init__(
        self,
        name: str,
        kind: QueueKind | str,
        n_sm: int | None = None,
        capacity: int = 1,
    ):
        if not name:
            raise PartitionError("queue name must be non-empty")
        kind = QueueKind(kind)
        if kind is QueueKind.GPU:
            if n_sm is None or n_sm < 1:
                raise PartitionError(f"GPU queue {name!r} needs a positive n_sm")
        elif n_sm is not None:
            raise PartitionError(f"non-GPU queue {name!r} must not set n_sm")
        if capacity < 1:
            raise PartitionError(f"queue {name!r} capacity must be >= 1, got {capacity}")
        self.name = name
        self.kind = kind
        self.n_sm = n_sm
        self.capacity = capacity
        self._t_q = 0.0  # absolute time when all submitted work finishes
        self._outstanding = 0
        self._submissions: list[Submission] = []
        self.total_estimated = 0.0
        self.total_feedback = 0.0

    # -- T_Q bookkeeping (Section III-G) -----------------------------------

    @property
    def t_q(self) -> float:
        """Raw :math:`T_Q`: estimated finish time of all submitted work."""
        return self._t_q

    @property
    def outstanding(self) -> int:
        """Jobs submitted but not yet reported complete."""
        return self._outstanding

    @property
    def jobs_submitted(self) -> int:
        return len(self._submissions)

    def ready_time(self, now: float) -> float:
        """When the partition could start a job submitted at ``now``.

        :math:`\\max(T_Q, now)` — a drained queue cannot start work in
        the past, so :math:`T_Q` values older than ``now`` clamp.
        """
        return max(self._t_q, now)

    def backlog(self, now: float) -> float:
        """Seconds of estimated work ahead of a submission at ``now``."""
        return self.ready_time(now) - now

    def submit(
        self,
        query_id: int,
        now: float,
        estimated_time: float,
        earliest_start: float | None = None,
    ) -> Submission:
        """Steps 5-6's queue update: :math:`T_Q \\leftarrow T_{start} + T_{est}`.

        ``earliest_start`` carries a pipeline dependency: a job that
        cannot start before an upstream stage finishes (a translated GPU
        query waits for :math:`T_{Q|TRANS} + T_{TRANS}`) books
        :math:`T_{start} = \\max(T_Q, now, earliest\\_start)`, so the
        queue's :math:`T_Q` reflects the stalled window instead of
        silently under-counting it (Section III-G: *"each queue is aware
        ... when all its jobs will be finished"*).

        Returns the submission record (estimated start/finish), which
        the simulator uses to sanity-check the realised schedule.
        """
        if estimated_time < 0:
            raise PartitionError(
                f"estimated time must be >= 0, got {estimated_time} for query {query_id}"
            )
        start = self.ready_time(now)
        if earliest_start is not None:
            start = max(start, earliest_start)
        self._t_q = start + estimated_time / self.capacity
        self._outstanding += 1
        self.total_estimated += estimated_time
        sub = Submission(
            query_id=query_id,
            submit_time=now,
            estimated_start=start,
            estimated_time=estimated_time,
            earliest_start=earliest_start,
        )
        self._submissions.append(sub)
        return sub

    def apply_feedback(self, measured_time: float, estimated_time: float) -> float:
        """Correct :math:`T_Q` with a completed job's measurement.

        The paper: the difference between real and estimated processing
        time *"is used to update the value T_Q of the queue that was
        processing the query. This way the errors in the estimation do
        not significantly affect the scheduling algorithm."*

        Returns the applied delta.  :math:`T_Q` never moves into the
        past relative to the work still outstanding — the simulator
        guarantees monotone completion times, and a negative total here
        simply means the queue drains earlier than estimated.
        """
        if measured_time < 0 or estimated_time < 0:
            raise PartitionError("times must be >= 0")
        if self._outstanding <= 0:
            raise PartitionError(
                f"feedback for queue {self.name!r} with no outstanding jobs"
            )
        delta = measured_time - estimated_time
        # fluid scaling: on a capacity-c station one job's overrun delays
        # the queue's drain time by delta/c
        self._t_q += delta / self.capacity
        self._outstanding -= 1
        self.total_feedback += delta
        return delta

    def complete_without_feedback(self) -> None:
        """Mark a job done without correcting :math:`T_Q` (ablation mode)."""
        if self._outstanding <= 0:
            raise PartitionError(
                f"completion for queue {self.name!r} with no outstanding jobs"
            )
        self._outstanding -= 1

    # -- reporting ------------------------------------------------------------

    @property
    def submissions(self) -> tuple[Submission, ...]:
        return tuple(self._submissions)

    def forget(self, query_ids: Counter) -> None:
        """Drop the submissions of retired queries (see :func:`drop_earliest`).

        :math:`T_Q`, the outstanding count and the totals are untouched:
        only finished work is retired.
        """
        drop_earliest(self._submissions, query_ids, key=lambda sub: sub.query_id)

    def __repr__(self) -> str:
        sm = f", {self.n_sm}SM" if self.n_sm else ""
        return (
            f"PartitionQueue({self.name!r}, {self.kind.value}{sm}, "
            f"T_Q={self._t_q:.4f}, outstanding={self._outstanding})"
        )
