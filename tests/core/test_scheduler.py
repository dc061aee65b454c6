"""Unit tests for the Figure-10 scheduling algorithm.

Each test drives the scheduler with a stub estimator so every branch of
steps 1-6 is exercised deterministically.
"""

import pytest

from repro.core.partitions import PartitionQueue, QueueKind
from repro.core.scheduler import HybridScheduler, QueryEstimates
from repro.errors import SchedulingError
from repro.query.model import Query


class FixedEstimator:
    """Returns the same estimates for every query."""

    def __init__(self, t_cpu, t_gpu=None, t_trans=0.0):
        self._est = QueryEstimates(
            t_cpu=t_cpu,
            t_gpu=t_gpu or {1: 0.030, 2: 0.015, 4: 0.008},
            t_trans=t_trans,
        )

    def estimate(self, query):
        return self._est


def make_scheduler(estimator, t_c=0.5):
    cpu_q = PartitionQueue("Q_CPU", QueueKind.CPU)
    trans_q = PartitionQueue("Q_TRANS", QueueKind.TRANSLATION)
    gpu_qs = [
        PartitionQueue(f"Q_G{i + 1}", QueueKind.GPU, n_sm=n)
        for i, n in enumerate([1, 1, 2, 2, 4, 4])
    ]
    sched = HybridScheduler(cpu_q, gpu_qs, trans_q, estimator, time_constraint=t_c)
    return sched


def query():
    return Query(conditions=(), measures=("v",))


class TestStep1Deadline:
    def test_deadline_is_now_plus_tc(self):
        sched = make_scheduler(FixedEstimator(t_cpu=0.001), t_c=0.25)
        decision = sched.schedule(query(), now=10.0)
        assert decision.deadline == 10.25


class TestStep5CPUBranch:
    def test_cpu_wins_when_faster_than_best_gpu(self):
        # T_CPU (1 ms) < T_GPU3 (8 ms) and everything makes the deadline
        sched = make_scheduler(FixedEstimator(t_cpu=0.001))
        decision = sched.schedule(query(), now=0.0)
        assert decision.target.name == "Q_CPU"
        assert decision.meets_deadline

    def test_gpu_wins_when_cpu_slower_than_best_gpu(self):
        # T_CPU (20 ms) > T_GPU3 (8 ms): goes to the SLOWEST feasible GPU
        sched = make_scheduler(FixedEstimator(t_cpu=0.020))
        decision = sched.schedule(query(), now=0.0)
        assert decision.target.name == "Q_G1"

    def test_cpu_infeasible_routes_gpu(self):
        sched = make_scheduler(FixedEstimator(t_cpu=None))
        decision = sched.schedule(query(), now=0.0)
        assert decision.target.kind is QueueKind.GPU

    def test_cpu_unavailable_when_no_cube(self):
        # CPU never considered: cpu queue untouched
        sched = make_scheduler(FixedEstimator(t_cpu=None))
        sched.schedule(query(), now=0.0)
        assert sched.cpu_queue.jobs_submitted == 0

    def test_paper_deviation_only_cpu_in_pbd(self):
        # GPU partitions all miss the deadline; CPU makes it but is not
        # faster than T_GPU3 -> our documented deviation submits to CPU.
        sched = make_scheduler(
            FixedEstimator(t_cpu=0.4, t_gpu={1: 9.0, 2: 9.0, 4: 0.41})
        )
        decision = sched.schedule(query(), now=0.0)
        assert decision.target.name == "Q_CPU"
        assert decision.meets_deadline


class TestStep5SlowestFirst:
    def test_fills_slow_queues_before_fast(self):
        sched = make_scheduler(FixedEstimator(t_cpu=None))
        targets = [sched.schedule(query(), now=0.0).target.name for _ in range(6)]
        # backlog accumulates; every new query still picks the slowest
        # queue that makes the deadline, so G1 fills first, then G2, ...
        assert targets[0] == "Q_G1"
        assert set(targets) <= {"Q_G1", "Q_G2", "Q_G3", "Q_G4", "Q_G5", "Q_G6"}
        # G1 must receive several queries before G5/G6 get any
        assert targets.count("Q_G1") >= 2

    def test_overflow_to_faster_partitions(self):
        # each 1-SM job takes 0.2 s; deadline 0.5 s -> after two jobs on
        # G1/G2 the slow queues can't make the deadline and faster ones
        # take over
        sched = make_scheduler(
            FixedEstimator(t_cpu=None, t_gpu={1: 0.2, 2: 0.1, 4: 0.05})
        )
        targets = [sched.schedule(query(), now=0.0).target.name for _ in range(16)]
        assert "Q_G5" in targets or "Q_G6" in targets


class TestStep6Fallback:
    def test_overloaded_system_minimises_lateness(self):
        # every option misses the deadline; expect min |T_D - T_R|
        sched = make_scheduler(
            FixedEstimator(t_cpu=5.0, t_gpu={1: 9.0, 2: 8.0, 4: 7.0}), t_c=0.1
        )
        decision = sched.schedule(query(), now=0.0)
        assert not decision.meets_deadline
        assert decision.target.name == "Q_CPU"  # 5.0 is closest to 0.1

    def test_gpu_closest_wins(self):
        sched = make_scheduler(
            FixedEstimator(t_cpu=9.0, t_gpu={1: 8.0, 2: 7.0, 4: 2.0}), t_c=0.1
        )
        decision = sched.schedule(query(), now=0.0)
        assert decision.target.name in ("Q_G5", "Q_G6")


class TestTranslationPipeline:
    def test_translation_submitted_for_gpu_text_queries(self):
        sched = make_scheduler(FixedEstimator(t_cpu=None, t_trans=0.01))
        decision = sched.schedule(query(), now=0.0)
        assert decision.translation is not None
        assert sched.trans_queue.t_q == pytest.approx(0.01)

    def test_no_translation_for_cpu_queries(self):
        # CPU handles strings natively: no Q_TRANS submission
        sched = make_scheduler(FixedEstimator(t_cpu=0.001, t_trans=0.01))
        decision = sched.schedule(query(), now=0.0)
        assert decision.target.name == "Q_CPU"
        assert decision.translation is None
        assert sched.trans_queue.jobs_submitted == 0

    def test_step3_response_includes_translation_wait(self):
        # translation queue already backed up by 1 s: GPU response times
        # must include it and push everything past the 0.5 s deadline
        sched = make_scheduler(FixedEstimator(t_cpu=None, t_trans=0.01))
        sched.trans_queue.submit(99, now=0.0, estimated_time=1.0)
        decision = sched.schedule(query(), now=0.0)
        assert not decision.meets_deadline
        assert decision.estimated_response >= 1.01

    def test_translation_pipelines_with_gpu_queue(self):
        # GPU queue busy for 2 s, translation takes 0.1 s: response is
        # max(2.0, 0.1) + t_gpu, not 2.0 + 0.1 + t_gpu
        est = FixedEstimator(t_cpu=None, t_trans=0.1)
        sched = make_scheduler(est, t_c=10.0)
        for q in sched.gpu_queues:
            q.submit(99, now=0.0, estimated_time=2.0)
        decision = sched.schedule(query(), now=0.0)
        t_gpu = est.estimate(None).gpu_time(decision.target.n_sm)
        assert decision.estimated_response == pytest.approx(2.0 + t_gpu)


class TestQueueUpdates:
    def test_tq_updated_with_gpu_estimate(self):
        sched = make_scheduler(FixedEstimator(t_cpu=None))
        decision = sched.schedule(query(), now=0.0)
        assert decision.target.t_q == pytest.approx(0.030)

    def test_tq_updated_with_cpu_estimate(self):
        sched = make_scheduler(FixedEstimator(t_cpu=0.004))
        sched.schedule(query(), now=0.0)
        assert sched.cpu_queue.t_q == pytest.approx(0.004)


class TestPipelineAwareTQ:
    """Regression tests for the translated-query :math:`T_Q` under-count.

    Historically ``_submit`` bumped the GPU queue from ``ready_time(now)``
    only, so a query with ``t_trans=1.0, t_gpu=0.01`` left the GPU queue
    believing it would drain at t=0.01 while the job could not even start
    before t=1.0 — every subsequent estimate for that partition was
    optimistic by the full translation stall.
    """

    def test_gpu_tq_covers_translation_stall(self):
        est = FixedEstimator(
            t_cpu=None, t_gpu={1: 0.01, 2: 0.01, 4: 0.01}, t_trans=1.0
        )
        sched = make_scheduler(est, t_c=5.0)
        decision = sched.schedule(query(), now=0.0)
        assert decision.translation is not None
        assert decision.translation.estimated_finish == pytest.approx(1.0)
        assert decision.processing.earliest_start == pytest.approx(1.0)
        assert decision.processing.estimated_start == pytest.approx(1.0)
        # the headline fix: T_Q = 1.01, not the pre-fix 0.01
        assert decision.target.t_q == pytest.approx(1.01)

    def test_tq_is_max_of_gpu_ready_and_translation_finish(self):
        # acceptance criterion: T_Q == max(gpu_ready, trans_ready +
        # t_trans) + t_gpu, here with a backed-up translation queue
        est = FixedEstimator(t_cpu=None, t_trans=0.5)
        sched = make_scheduler(est, t_c=50.0)
        sched.trans_queue.submit(98, now=0.0, estimated_time=2.0)
        decision = sched.schedule(query(), now=0.0)
        t_gpu = est.estimate(None).gpu_time(decision.target.n_sm)
        assert decision.target.t_q == pytest.approx(max(0.0, 2.0 + 0.5) + t_gpu)
        assert decision.target.t_q == pytest.approx(decision.estimated_response)

    def test_busy_gpu_queue_dominates_translation(self):
        # when the GPU backlog exceeds the translation finish, T_Q grows
        # from the GPU side of the max — no double counting
        est = FixedEstimator(t_cpu=None, t_trans=0.1)
        sched = make_scheduler(est, t_c=50.0)
        for q in sched.gpu_queues:
            q.submit(97, now=0.0, estimated_time=3.0)
        decision = sched.schedule(query(), now=0.0)
        t_gpu = est.estimate(None).gpu_time(decision.target.n_sm)
        assert decision.processing.estimated_start == pytest.approx(3.0)
        assert decision.target.t_q == pytest.approx(3.0 + t_gpu)

    def test_untranslated_query_sees_true_backlog_behind_stall(self):
        # a numeric query arriving right after a translated one must see
        # the stalled window in the partition's backlog
        est = FixedEstimator(t_cpu=None, t_trans=1.0)
        sched = make_scheduler(est, t_c=50.0)
        first = sched.schedule(query(), now=0.0)
        t_gpu = est.estimate(None).gpu_time(first.target.n_sm)
        assert first.target.backlog(0.0) == pytest.approx(1.0 + t_gpu)

    def test_untranslated_gpu_query_books_no_earliest_start(self):
        sched = make_scheduler(FixedEstimator(t_cpu=None))
        decision = sched.schedule(query(), now=0.0)
        assert decision.translation is None
        assert decision.processing.earliest_start is None


class TestCPUOnlyQueries:
    """A CPU-feasible query with an *empty* GPU-estimate map must not crash."""

    class _CPUOnly:
        def estimate(self, q):
            return QueryEstimates(t_cpu=0.01, t_gpu={})

    def test_schedules_to_cpu(self):
        sched = make_scheduler(self._CPUOnly())
        decision = sched.schedule(query(), now=0.0)
        assert decision.target.name == "Q_CPU"
        assert decision.meets_deadline

    def test_step6_fallback_with_cpu_only(self):
        class _Slow:
            def estimate(self, q):
                return QueryEstimates(t_cpu=9.0, t_gpu={})

        sched = make_scheduler(_Slow(), t_c=0.1)
        decision = sched.schedule(query(), now=0.0)
        assert decision.target.name == "Q_CPU"
        assert not decision.meets_deadline

    def test_no_partition_at_all_raises(self):
        class _Nothing:
            def estimate(self, q):
                return QueryEstimates(t_cpu=None, t_gpu={})

        sched = make_scheduler(_Nothing())
        with pytest.raises(SchedulingError, match="no partition"):
            sched.schedule(query(), now=0.0)


class TestValidation:
    def test_queue_kind_checks(self):
        cpu_q = PartitionQueue("Q_CPU", QueueKind.CPU)
        trans_q = PartitionQueue("Q_TRANS", QueueKind.TRANSLATION)
        gpu_q = PartitionQueue("Q_G1", QueueKind.GPU, n_sm=1)
        est = FixedEstimator(t_cpu=0.1)
        with pytest.raises(SchedulingError):
            HybridScheduler(trans_q, [gpu_q], trans_q, est, 0.5)
        with pytest.raises(SchedulingError):
            HybridScheduler(cpu_q, [cpu_q], trans_q, est, 0.5)
        with pytest.raises(SchedulingError):
            HybridScheduler(cpu_q, [], trans_q, est, 0.5)
        with pytest.raises(SchedulingError):
            HybridScheduler(cpu_q, [gpu_q], trans_q, est, 0.0)

    def test_gpu_queues_must_be_slowest_first(self):
        cpu_q = PartitionQueue("Q_CPU", QueueKind.CPU)
        trans_q = PartitionQueue("Q_TRANS", QueueKind.TRANSLATION)
        gpu_qs = [
            PartitionQueue("Q_G1", QueueKind.GPU, n_sm=4),
            PartitionQueue("Q_G2", QueueKind.GPU, n_sm=1),
        ]
        with pytest.raises(SchedulingError, match="slowest-first"):
            HybridScheduler(cpu_q, gpu_qs, trans_q, FixedEstimator(t_cpu=0.1), 0.5)

    def test_missing_gpu_estimate(self):
        sched = make_scheduler(FixedEstimator(t_cpu=None, t_gpu={1: 0.1}))
        with pytest.raises(SchedulingError, match="no GPU estimate"):
            sched.schedule(query(), now=0.0)

    def test_estimates_validation(self):
        with pytest.raises(SchedulingError):
            QueryEstimates(t_cpu=-1.0, t_gpu={1: 0.1})
        with pytest.raises(SchedulingError):
            QueryEstimates(t_cpu=0.1, t_gpu={0: 0.1})
        with pytest.raises(SchedulingError):
            QueryEstimates(t_cpu=0.1, t_gpu={1: 0.1}, t_trans=-1.0)

    def test_fastest_gpu_time(self):
        est = QueryEstimates(t_cpu=None, t_gpu={1: 0.3, 4: 0.1, 2: 0.2})
        assert est.fastest_gpu_time == 0.1
        with pytest.raises(SchedulingError):
            QueryEstimates(t_cpu=None, t_gpu={}).fastest_gpu_time


class TestDeadlineBoundary:
    """Regression: the P_BD boundary is inclusive (T_R <= T_D).

    Step 4 and ScheduleDecision.meets_deadline historically used strict
    "deadline - T_R > 0", so a query estimated to finish *exactly* at
    the deadline was pushed to the step-6 fallback and flagged as
    missing — while QueryRecord.met_deadline counts finish <= deadline
    as a hit.  All three places now agree on the inclusive boundary.
    """

    def test_cpu_exactly_at_deadline_is_in_pbd(self):
        # CPU finishes exactly at T_D; every GPU misses by a mile
        sched = make_scheduler(
            FixedEstimator(t_cpu=0.5, t_gpu={1: 9.0, 2: 9.0, 4: 9.0}), t_c=0.5
        )
        decision = sched.schedule(query(), now=0.0)
        assert decision.target.name == "Q_CPU"
        assert decision.estimated_response == 0.5 == decision.deadline
        assert decision.meets_deadline  # was False under strict '>'

    def test_gpu_exactly_at_deadline_keeps_slowest_first(self):
        # all GPUs land exactly on T_D: step 5's slowest-first applies,
        # not step 6's min-lateness (which would pick by tie-break order)
        sched = make_scheduler(
            FixedEstimator(t_cpu=9.0, t_gpu={1: 0.5, 2: 0.5, 4: 0.5}), t_c=0.5
        )
        decision = sched.schedule(query(), now=0.0)
        assert decision.target.name == "Q_G1"
        assert decision.meets_deadline

    def test_decision_agrees_with_record_accounting(self):
        from repro.sim.metrics import QueryRecord

        sched = make_scheduler(
            FixedEstimator(t_cpu=0.5, t_gpu={1: 9.0, 2: 9.0, 4: 9.0}), t_c=0.5
        )
        decision = sched.schedule(query(), now=0.0)
        # realise the run exactly as estimated: the record must agree
        # with the decision's promise
        record = QueryRecord(
            query_id=0,
            query_class="q",
            target=decision.target.name,
            submit_time=0.0,
            finish_time=decision.estimated_response,
            deadline=decision.deadline,
            estimated_time=decision.processing.estimated_time,
            measured_time=decision.processing.estimated_time,
            translated=False,
        )
        assert record.met_deadline == decision.meets_deadline is True

    def test_just_past_deadline_still_falls_through(self):
        import math

        sched = make_scheduler(
            FixedEstimator(
                t_cpu=math.nextafter(0.5, 1.0), t_gpu={1: 9.0, 2: 9.0, 4: 9.0}
            ),
            t_c=0.5,
        )
        decision = sched.schedule(query(), now=0.0)
        assert not decision.meets_deadline


class TestTranslationBacklogLookups:
    """Regression: one translation-backlog read per scheduling pass.

    Step 3 historically asked the translation queue for its ready time
    once per GPU candidate (1 + n_gpu_queues reads for a translated
    query, counting the cost-estimation read); the fold reads it
    exactly once per query.  More than a waste, per-candidate reads
    were a correctness hazard: any future ready-time dependence on the
    *asking* candidate would have let step 3's candidates see different
    translation backlogs.
    """

    class CountingQueue(PartitionQueue):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.ready_time_calls = 0

        def ready_time(self, now):
            self.ready_time_calls += 1
            return super().ready_time(now)

    def _scheduler(self, estimator):
        cpu_q = PartitionQueue("Q_CPU", QueueKind.CPU)
        trans_q = self.CountingQueue("Q_TRANS", QueueKind.TRANSLATION)
        gpu_qs = [
            PartitionQueue(f"Q_G{i + 1}", QueueKind.GPU, n_sm=n)
            for i, n in enumerate([1, 1, 2, 2, 4, 4])
        ]
        return HybridScheduler(
            cpu_q, gpu_qs, trans_q, estimator, time_constraint=0.5
        )

    def test_translated_query_reads_backlog_once_per_pass(self):
        sched = self._scheduler(FixedEstimator(t_cpu=None, t_trans=0.01))
        trans_q = sched.trans_queue
        # one step-3 read for all six GPU candidates, plus the
        # submit-time read inside trans_queue.submit when the
        # translation stage is booked
        sched.schedule(query(), now=0.0)
        assert trans_q.ready_time_calls == 2

    def test_untranslated_query_never_reads_the_backlog(self):
        sched = self._scheduler(FixedEstimator(t_cpu=0.001))
        sched.schedule(query(), now=0.0)
        assert sched.trans_queue.ready_time_calls == 0
