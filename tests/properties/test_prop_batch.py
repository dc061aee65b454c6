"""Property tests: batched admission is the sequential hot path, exactly.

``BaseScheduler.schedule_batch`` is the lifecycle's decision entry
point on both planes, so its contract is byte-identity with a
``schedule`` loop: the decisions, the :math:`T_Q` books, the rejection
set, and the per-query observer stream must all equal a sequential
loop over the same queries at the same instant, with each rejection in
its query's position.  These properties drive both schedulers (Figure
10 and its admission-control extension) through randomly drawn
estimate mixtures in several batches at increasing ``now`` values and
assert exact ``==`` on every float — no tolerance anywhere.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionControlScheduler
from repro.core.partitions import PartitionQueue, QueueKind
from repro.core.scheduler import HybridScheduler, QueryEstimates
from repro.core.stages import Subscribers
from repro.errors import AdmissionRejected
from repro.query.model import Query


class DrawnEstimator:
    """Replays a drawn estimate sequence (shared by both schedulers)."""

    def __init__(self, estimates):
        self._estimates = list(estimates)
        self._i = 0

    def estimate(self, query):
        est = self._estimates[self._i % len(self._estimates)]
        self._i += 1
        return est


class RecordingObserver:
    """Captures the scheduler observer stream for exact comparison."""

    def __init__(self):
        self.estimated = []
        self.decisions = []

    def on_estimated(self, query, est, deadline, now):
        self.estimated.append((query.query_id, est.t_cpu, est.t_trans, now))

    def on_decision(self, decision, candidates, branch, now):
        self.decisions.append(
            (
                decision.query.query_id,
                decision.target.name,
                tuple((q.name, t_r) for q, t_r in candidates),
                now,
            )
        )


@st.composite
def estimates(draw):
    has_cpu = draw(st.booleans())
    t_cpu = draw(st.floats(1e-4, 2.0)) if has_cpu else None
    base = draw(st.floats(1e-3, 0.5))
    t_gpu = {
        1: base,
        2: base * draw(st.floats(0.4, 0.9)),
        4: base * draw(st.floats(0.1, 0.4)),
    }
    t_trans = draw(st.one_of(st.just(0.0), st.floats(1e-5, 0.05)))
    return QueryEstimates(t_cpu=t_cpu, t_gpu=t_gpu, t_trans=t_trans)


def build_scheduler(factory, estimator, t_c, **kwargs):
    cpu_q = PartitionQueue("Q_CPU", QueueKind.CPU)
    trans_q = PartitionQueue("Q_TRANS", QueueKind.TRANSLATION)
    gpu_qs = [
        PartitionQueue(f"Q_G{i + 1}", QueueKind.GPU, n_sm=n)
        for i, n in enumerate([1, 1, 2, 2, 4, 4])
    ]
    return factory(cpu_q, gpu_qs, trans_q, estimator, t_c, **kwargs)


def decision_key(decision):
    """Every number a decision carries, for exact equality checks."""
    if isinstance(decision, AdmissionRejected):
        return ("rejected", str(decision))
    translation = decision.translation
    return (
        decision.target.name,
        decision.processing.submit_time,
        decision.processing.estimated_start,
        decision.processing.estimated_finish,
        decision.processing.estimated_time,
        decision.estimated_response,
        decision.deadline,
        None
        if translation is None
        else (
            translation.estimated_start,
            translation.estimated_finish,
            translation.estimated_time,
        ),
    )


def books(scheduler):
    """The scheduler's entire mutable state: the per-queue books."""
    return {
        q.name: (
            q.t_q,
            tuple(
                (s.query_id, s.submit_time, s.estimated_start, s.estimated_finish)
                for s in q.submissions
            ),
        )
        for q in [
            scheduler.cpu_queue,
            *scheduler.gpu_queues,
            scheduler.trans_queue,
        ]
    }


def queries_for(ests):
    return [Query(conditions=(), measures=("v",)) for _ in ests]


def chunked(items, size):
    return [items[i : i + size] for i in range(0, len(items), size)]


class TestScheduleBatchEquivalence:
    @given(
        st.lists(estimates(), min_size=1, max_size=40),
        st.floats(0.05, 2.0),
        st.integers(1, 7),
    )
    @settings(max_examples=80, deadline=None)
    def test_hybrid_batches_match_sequential_loop(self, ests, t_c, batch_size):
        seq = build_scheduler(HybridScheduler, DrawnEstimator(ests), t_c)
        bat = build_scheduler(HybridScheduler, DrawnEstimator(ests), t_c)
        seq_obs, bat_obs = RecordingObserver(), RecordingObserver()
        seq.subscribers, bat.subscribers = Subscribers(seq_obs), Subscribers(bat_obs)

        queries = queries_for(ests)
        seq_decisions, bat_decisions = [], []
        for i, chunk in enumerate(chunked(queries, batch_size)):
            now = 0.25 * i
            for query in chunk:
                seq_decisions.append(seq.schedule(query, now))
            bat_decisions.extend(bat.schedule_batch(chunk, now))
            # identical books after every batch, not just at the end
            assert books(seq) == books(bat)

        assert list(map(decision_key, seq_decisions)) == list(
            map(decision_key, bat_decisions)
        )
        # the per-query observer stream is identical
        assert seq_obs.estimated == bat_obs.estimated
        assert seq_obs.decisions == bat_obs.decisions

    @given(
        st.lists(estimates(), min_size=1, max_size=40),
        st.floats(0.05, 0.4),
        st.integers(1, 7),
        st.floats(0.0, 0.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_admission_control_rejections_match(
        self, ests, t_c, batch_size, lateness
    ):
        seq = build_scheduler(
            AdmissionControlScheduler,
            DrawnEstimator(ests),
            t_c,
            lateness_factor=lateness,
        )
        bat = build_scheduler(
            AdmissionControlScheduler,
            DrawnEstimator(ests),
            t_c,
            lateness_factor=lateness,
        )

        queries = queries_for(ests)
        seq_decisions, bat_decisions = [], []
        for i, chunk in enumerate(chunked(queries, batch_size)):
            now = 0.25 * i
            for query in chunk:
                try:
                    seq_decisions.append(seq.schedule(query, now))
                except AdmissionRejected as exc:
                    seq_decisions.append(exc)
            bat_decisions.extend(bat.schedule_batch(chunk, now))

        assert list(map(decision_key, seq_decisions)) == list(
            map(decision_key, bat_decisions)
        )
        assert books(seq) == books(bat)
        assert seq.rejected_count == bat.rejected_count


class TestEstimateBatchEquivalence:
    """The real estimator's batch is bit-identical to its scalar loop."""

    @given(st.integers(0, 2**16), st.integers(1, 30))
    @settings(max_examples=15, deadline=None)
    def test_estimate_batch_bit_identical(self, seed, n):
        from repro.paper import paper_system_config, paper_workload
        from repro.sim.system import SystemEstimator

        config = paper_system_config(include_32gb=False)
        queries = [t.query for t in paper_workload(seed=seed).generate(n)]
        batch = SystemEstimator(config).estimate_batch(queries)
        scalar_est = SystemEstimator(config)
        for query, b in zip(queries, batch):
            s = scalar_est.estimate(query)
            assert s.t_cpu == b.t_cpu
            assert s.t_gpu == b.t_gpu
            assert s.t_trans == b.t_trans
