"""The Figure-10 scheduling algorithm.

The scheduler dispatches each incoming query to one of the system
partitions — the CPU OLAP-cube partition, or one of the GPU partitions —
inserting a translation stage on the CPU preprocessing partition for GPU
queries that carry text parameters.  Its structure follows Figure 10 of
the paper step by step:

1. a query ``Q`` submitted at :math:`T_Q` gets the deadline
   :math:`T_D = T_Q + T_C`;
2. processing times are estimated for every partition class from the
   performance models (:math:`T_{CPU}`, :math:`T_{GPU1..3}`,
   :math:`T_{TRANS}`);
3. response times per partition include queue backlogs, and for GPU
   partitions the translation pipeline:
   :math:`T_{R|GPUi} = \\max(T_{Q|Gi},\\ T_{Q|TRANS} + T_{TRANS}) + T_{GPUj}`;
4. the set :math:`P_{BD}` collects partitions that finish before the
   deadline;
5. if :math:`P_{BD}` is non-empty: the CPU partition wins when it is in
   the set and its processing time beats the fastest GPU partition;
   otherwise the query goes to the *slowest* GPU partition in the set
   (keeping fast partitions free for expensive queries);
6. if :math:`P_{BD}` is empty: the partition with the response time
   closest to the deadline gets the query, so a late answer is at least
   as early as possible.

Deviation from the paper's pseudocode (documented in DESIGN.md): when
:math:`P_{BD}` contains *only* the CPU partition but the CPU is not
faster than the fastest GPU partition, the published FOR loop would fall
through without submitting anywhere; we submit to the CPU (the only
partition that makes the deadline), which is unambiguously the intended
behaviour.

:meth:`BaseScheduler.schedule` decides one query at a time, as Figure 10
does; ``schedule_batch`` is that call per query.  It announces
``on_estimated`` / ``on_decision`` to the run's
:class:`~repro.core.stages.Subscribers` table
(:attr:`BaseScheduler.subscribers`); :func:`classify_branch` names the
step-4/5/6 branch of each decision for them.  Subscribers only read —
scheduling is identical with or without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.core.partitions import PartitionQueue, QueueKind, Submission
from repro.core.stages import NO_SUBSCRIBERS, Subscribers
from repro.errors import AdmissionRejected, SchedulingError
from repro.query.model import Query

__all__ = [
    "QueryEstimates",
    "PerformanceEstimator",
    "ScheduleDecision",
    "BaseScheduler",
    "HybridScheduler",
    "classify_branch",
]


@dataclass(frozen=True)
class QueryEstimates:
    """Step-2 output: model estimates for one query.

    Attributes
    ----------
    t_cpu:
        :math:`T_{CPU}` — ``None`` when no pre-calculated cube reaches
        the query's resolution (Section III-C: the query *must* go to
        the GPU).
    t_gpu:
        :math:`T_{GPUj}` per SM count (the paper's three estimates for
        1/2/4-SM partition classes).
    t_trans:
        :math:`T_{TRANS}` — 0.0 when the query needs no translation.
    """

    t_cpu: float | None
    t_gpu: Mapping[int, float]
    t_trans: float = 0.0

    def __post_init__(self) -> None:
        if self.t_cpu is not None and self.t_cpu < 0:
            raise SchedulingError(f"negative CPU estimate {self.t_cpu}")
        if self.t_trans < 0:
            raise SchedulingError(f"negative translation estimate {self.t_trans}")
        for n_sm, t in self.t_gpu.items():
            if n_sm < 1 or t < 0:
                raise SchedulingError(f"bad GPU estimate {n_sm} SM -> {t}")

    @property
    def needs_translation(self) -> bool:
        return self.t_trans > 0.0

    def gpu_time(self, n_sm: int) -> float:
        try:
            return self.t_gpu[n_sm]
        except KeyError:
            raise SchedulingError(
                f"no GPU estimate for {n_sm} SM partitions (have "
                f"{sorted(self.t_gpu)})"
            ) from None

    @property
    def fastest_gpu_time(self) -> float:
        """:math:`T_{GPU3}` — the estimate of the largest partition class."""
        if not self.t_gpu:
            raise SchedulingError("query has no GPU estimates")
        return self.t_gpu[max(self.t_gpu)]


@runtime_checkable
class PerformanceEstimator(Protocol):
    """Produces :class:`QueryEstimates` from the performance models."""

    def estimate(self, query: Query) -> QueryEstimates:  # pragma: no cover
        ...


@dataclass(frozen=True)
class ScheduleDecision:
    """Outcome of scheduling one query.

    ``target`` is the processing queue; ``translation`` is the
    translation-queue submission when the query needed one.  The
    simulator replays this decision with realised service times and
    feeds measurements back to the queues.
    """

    query: Query
    target: PartitionQueue
    processing: Submission
    estimates: QueryEstimates
    deadline: float
    estimated_response: float
    translation: Submission | None = None

    @property
    def meets_deadline(self) -> bool:
        """Whether the *estimate* makes the deadline (step 4's test).

        The boundary is inclusive — a query estimated to finish exactly
        at :math:`T_D` makes the deadline — matching step 4's
        :math:`P_{BD}` test and the realised
        :attr:`~repro.sim.metrics.QueryRecord.met_deadline`
        (``finish_time <= deadline``).  Historically this used strict
        ``>``, so a boundary query was excluded from :math:`P_{BD}` yet
        counted as a hit.
        """
        return self.estimated_response <= self.deadline


def classify_branch(
    candidates: Sequence[tuple[PartitionQueue, float]],
    deadline: float,
    target: PartitionQueue,
) -> str:
    """Name the Figure-10 branch implied by a placement.

    ``candidates`` is step 3's ``(queue, T_R)`` list, ``target`` the
    queue actually chosen.  Deadline membership uses the inclusive
    boundary (``T_R <= T_D``), consistent with step 4 and
    :attr:`~repro.sim.metrics.QueryRecord.met_deadline`.

    * ``"step5-cpu"`` / ``"step5-gpu"`` — :math:`P_{BD}` non-empty and
      the target is inside it (the CPU-wins / slowest-GPU arms);
    * ``"step6-min-lateness"`` — :math:`P_{BD}` empty, the minimise-
      lateness fallback;
    * ``"step5-outside-pbd"`` — :math:`P_{BD}` non-empty but the target
      misses the deadline anyway: impossible for the paper's scheduler,
      diagnostic for deadline-blind baselines (MET, round-robin).

    A query the rollup tier answers never reaches steps 1-6 and has no
    branch; its span root is stamped ``"cache-hit"`` by the tier itself.
    """
    p_bd = {q.name for q, t_r in candidates if t_r <= deadline}
    if not p_bd:
        return "step6-min-lateness"
    if target.name not in p_bd:
        return "step5-outside-pbd"
    if target.kind is QueueKind.CPU:
        return "step5-cpu"
    return "step5-gpu"


class BaseScheduler:
    """Shared plumbing: queue sets, steps 1-6, submission.

    Subclasses implement :meth:`choose`, returning the target queue.
    ``gpu_queues`` must be ordered slowest-first (fewest SMs first), the
    order :class:`~repro.gpu.partitioning.PartitionScheme` guarantees.
    """

    def __init__(
        self,
        cpu_queue: PartitionQueue,
        gpu_queues: Sequence[PartitionQueue],
        trans_queue: PartitionQueue,
        estimator: PerformanceEstimator,
        time_constraint: float,
    ):
        if cpu_queue.kind is not QueueKind.CPU:
            raise SchedulingError(f"cpu_queue has kind {cpu_queue.kind}")
        if trans_queue.kind is not QueueKind.TRANSLATION:
            raise SchedulingError(f"trans_queue has kind {trans_queue.kind}")
        self.replace_gpu_queues(gpu_queues)
        if time_constraint <= 0:
            raise SchedulingError(f"time constraint must be > 0, got {time_constraint}")
        self.cpu_queue = cpu_queue
        self.trans_queue = trans_queue
        self.estimator = estimator
        self.time_constraint = time_constraint
        #: the run's stage-stream table (see :mod:`repro.core.stages`);
        #: the lifecycle core installs the one it built for the run
        self.subscribers: Subscribers = NO_SUBSCRIBERS

    def replace_gpu_queues(self, gpu_queues: Sequence[PartitionQueue]) -> None:
        """Install the GPU partition set (the constructor's, or a re-split).

        Used by the adaptive capacity controller when it reconfigures
        the GPU partitioning under load.  The replacement set must obey
        the same invariants as the constructor's: GPU kind only,
        slowest-first SM order, non-empty.  Old queues keep their books
        (in-flight work completes against them); only *new* decisions
        see the replacement set.
        """
        if not gpu_queues:
            raise SchedulingError("need at least one GPU queue")
        for q in gpu_queues:
            if q.kind is not QueueKind.GPU:
                raise SchedulingError(f"GPU queue {q.name!r} has kind {q.kind}")
        sms = [q.n_sm or 0 for q in gpu_queues]
        if sms != sorted(sms):
            raise SchedulingError(
                f"GPU queues must be ordered slowest-first, got SM counts {sms}"
            )
        self.gpu_queues = tuple(gpu_queues)

    # -- submission ------------------------------------------------------------

    def _submit(
        self,
        query: Query,
        target: PartitionQueue,
        est: QueryEstimates,
        now: float,
        deadline: float,
        estimated_response: float,
    ) -> ScheduleDecision:
        translation: Submission | None = None
        if target.kind is QueueKind.GPU:
            assert target.n_sm is not None
            if est.needs_translation:
                # pipeline-aware T_Q (step 3's max(...) carried into the
                # books): the GPU job cannot start before its translation
                # finishes, so the GPU queue's T_Q must cover the stall —
                # otherwise every later estimate for this partition is
                # optimistic and untranslated queries pile up behind a
                # stalled GPU.
                translation = self.trans_queue.submit(query.query_id, now, est.t_trans)
                processing = target.submit(
                    query.query_id,
                    now,
                    est.gpu_time(target.n_sm),
                    earliest_start=translation.estimated_finish,
                )
            else:
                processing = target.submit(
                    query.query_id, now, est.gpu_time(target.n_sm)
                )
        elif target.kind is QueueKind.CPU:
            if est.t_cpu is None:
                raise SchedulingError(
                    f"query {query.query_id} routed to CPU without a cube able to "
                    "answer it"
                )
            processing = target.submit(query.query_id, now, est.t_cpu)
        else:  # pragma: no cover - schedulers never target Q_TRANS directly
            raise SchedulingError(f"cannot target queue kind {target.kind}")
        return ScheduleDecision(
            query=query,
            target=target,
            processing=processing,
            estimates=est,
            deadline=deadline,
            estimated_response=estimated_response,
            translation=translation,
        )

    # -- the entry points ------------------------------------------------------

    def choose(
        self,
        query: Query,
        est: QueryEstimates,
        response: list[tuple[PartitionQueue, float]],
        deadline: float,
        now: float,
    ) -> tuple[PartitionQueue, float]:
        """Return (target queue, its estimated response time)."""
        raise NotImplementedError

    def schedule(self, query: Query, now: float) -> ScheduleDecision:
        """Run steps 1-6 for one query and submit it.

        The one place Figure 10's dispatch is written out.  Step 3 reads
        each candidate queue's backlog (``ready_time``) and ``Q_TRANS``'s
        once for a translated query, so its GPU candidates cannot see
        different translation backlogs.  A query the admission controller
        turns away raises :class:`~repro.errors.AdmissionRejected` from
        :meth:`choose` before anything is booked.

        A query with an *empty* GPU-estimate map is CPU-only (no GPU
        partition can process it) and gets no GPU candidates; a
        *partial* map — some SM classes present, a partition's missing —
        is a configuration error and raises.
        """
        deadline = now + self.time_constraint  # step 1
        est = self.estimator.estimate(query)  # step 2
        for publish in self.subscribers.on_estimated:
            publish(query, est, deadline, now)
        # Step 3: T_R = T_Q + T_est per partition able to process the
        # query, every backlog clamped to ``now``.
        response: list[tuple[PartitionQueue, float]] = []
        if est.t_cpu is not None:
            response.append((self.cpu_queue, self.cpu_queue.ready_time(now) + est.t_cpu))
        tg = est.t_gpu
        if tg:
            # the translation pipeline: T_R|GPUi = max(T_Q|Gi, T_Q|TRANS +
            # T_TRANS) + T_GPUj; a query without text is ready at ``now``,
            # which no clamped backlog precedes
            translated_at = now
            if est.t_trans > 0.0:
                translated_at = self.trans_queue.ready_time(now) + est.t_trans
            for q in self.gpu_queues:
                t_gpu = tg.get(q.n_sm)
                if t_gpu is None:
                    est.gpu_time(q.n_sm)  # raises the canonical error
                start = q.ready_time(now)
                if translated_at > start:
                    start = translated_at
                response.append((q, start + t_gpu))
        if not response:
            raise SchedulingError(
                f"no partition can process query {query.query_id} "
                "(no cube and no GPU queue)"
            )
        target, t_r = self.choose(query, est, response, deadline, now)  # steps 4-6
        decision = self._submit(query, target, est, now, deadline, t_r)
        on_decision = self.subscribers.on_decision
        if on_decision:  # the branch is named once, and only for listeners
            branch = classify_branch(response, deadline, target)
            for publish in on_decision:
                publish(decision, response, branch, now)
        return decision

    def schedule_batch(
        self, queries: Sequence[Query], now: float
    ) -> list[ScheduleDecision | AdmissionRejected]:
        """:meth:`schedule` per query in order, all submitted at ``now``.

        Admission rejections are per-query outcomes, not batch failures:
        a query the admission controller turns away contributes its
        :class:`~repro.errors.AdmissionRejected` in its position and the
        loop continues.
        """
        results: list[ScheduleDecision | AdmissionRejected] = []
        for query in queries:
            try:
                results.append(self.schedule(query, now))
            except AdmissionRejected as rejection:
                results.append(rejection)
        return results


class HybridScheduler(BaseScheduler):
    """The paper's deadline-aware co-scheduler (Figure 10, steps 4-6)."""

    def choose(
        self,
        query: Query,
        est: QueryEstimates,
        response: list[tuple[PartitionQueue, float]],
        deadline: float,
        now: float,
    ) -> tuple[PartitionQueue, float]:
        # One pass over the candidates collects everything steps 4-5
        # need: whether the CPU partition makes the deadline (and its
        # T_R), the first — i.e. slowest, gpu_queues order — GPU
        # partition that does, and the first deadline-making partition
        # overall.  Step 4's boundary is inclusive, consistent with
        # QueryRecord.met_deadline's ``<=``.
        cpu_name = self.cpu_queue.name
        first_bd: tuple[PartitionQueue, float] | None = None
        gpu_bd: tuple[PartitionQueue, float] | None = None
        cpu_bd_t: float | None = None
        for item in response:
            t_r = item[1]
            if t_r <= deadline:
                if first_bd is None:
                    first_bd = item
                queue = item[0]
                if queue.kind is QueueKind.GPU:
                    if gpu_bd is None:
                        gpu_bd = item
                elif queue.name == cpu_name:
                    cpu_bd_t = t_r

        if first_bd is not None:  # step 5
            # NOTE the short-circuit order: ``gpu_bd is None`` must be
            # tested first — a CPU-feasible query with no GPU estimates
            # (empty t_gpu map) has no fastest_gpu_time to compare with.
            t_cpu = est.t_cpu
            if cpu_bd_t is not None and t_cpu is not None and (
                gpu_bd is None or t_cpu < est.fastest_gpu_time
            ):
                return self.cpu_queue, cpu_bd_t
            if gpu_bd is not None:
                # slowest GPU partition that still makes the deadline:
                # gpu_queues is ordered slowest-first, and the scan
                # preserves that order.
                return gpu_bd
            # P_BD non-empty but CPU infeasible for this query and no GPU
            # makes it: impossible (first_bd would be None) — defensive.
            return first_bd  # pragma: no cover

        # Step 6: nobody makes the deadline; minimise |T_D - T_R| (first
        # minimum wins, matching min() over the candidate order).
        best = response[0]
        best_gap = abs(deadline - best[1])
        for item in response[1:]:
            gap = abs(deadline - item[1])
            if gap < best_gap:
                best = item
                best_gap = gap
        return best
