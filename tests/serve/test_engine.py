"""ServeEngine behaviour under a fake clock: dispatch, pipeline,
admission, backpressure, drain, determinism.

Every completed run is audited with the simulation invariant checker
(``require_drained=True``) — the serving engine must produce reports
indistinguishable in structure from simulated ones.
"""

import functools
import threading

import pytest

from repro.core.admission import AdmissionControlScheduler
from repro.core.scheduler import QueryEstimates
from repro.errors import BackpressureError, ServeError
from repro.gpu.device import SimulatedGPU
from repro.olap import parallel
from repro.paper import XEON_X5667_8T, paper_partition_scheme
from repro.query.model import Query
from repro.serve import MaterialisedExecutor
from repro.sim.obs import TraceCollector
from repro.sim.system import SystemConfig
from repro.sim.validate import assert_valid, audit
from repro.units import GB

from tests.serve.conftest import CPU_FAST, GPU_ONLY, GPU_TEXT


def make_query():
    return Query(conditions=(), measures=("v",))


class GatedExecutor:
    """NullExecutor whose processing stage blocks on a test-held gate."""

    def __init__(self):
        self.gate = threading.Event()

    def translate(self, query):
        return query

    def execute(self, target, query):
        self.gate.wait()
        return None


class FailingExecutor:
    def __init__(self, fail_translation=False):
        self.fail_translation = fail_translation

    def translate(self, query):
        if self.fail_translation:
            raise RuntimeError("dictionary corrupted (simulated)")
        return query

    def execute(self, target, query):
        raise RuntimeError("kernel fault (simulated)")


class TestDispatch:
    def test_single_query_completes(self, make_engine):
        engine = make_engine(CPU_FAST).start()
        outcome = engine.submit(make_query())
        assert outcome.accepted
        engine.drain()
        assert outcome.ticket.done
        report = engine.report()
        assert report.completed == 1
        assert report.records[0].target == "Q_CPU"
        assert outcome.ticket.record == report.records[0]
        assert_valid(report, require_drained=True)

    def test_decisions_come_from_the_shared_scheduler(self, make_engine):
        # CPU-feasible fast estimate -> step-5 CPU win; GPU-only
        # estimate -> slowest GPU partition first (Q_G1)
        engine = make_engine(CPU_FAST, GPU_ONLY).start()
        cpu = engine.submit(make_query())
        gpu = engine.submit(make_query())
        engine.drain()
        assert cpu.decision.target.name == "Q_CPU"
        assert gpu.decision.target.name == "Q_G1"

    def test_translation_pipeline_lifecycle(self, serve_config, make_engine):
        collector = TraceCollector()
        engine = make_engine(GPU_TEXT, collector=collector).start()
        outcome = engine.submit(make_query())
        assert outcome.decision.translation is not None
        engine.drain()
        report = engine.report()
        record = report.records[0]
        assert record.translated
        assert record.target.startswith("Q_G")
        assert len(report.timelines["Q_TRANS"]) == 1
        assert_valid(report, require_drained=True, collector=collector)
        assert collector.kinds_for(record.query_id) == (
            "arrival",
            "estimated",
            "decision",
            "translation_start",
            "translation_finish",
            "feedback",
            "service_start",
            "service_finish",
            "feedback",
        )

    def test_feedback_reaches_the_books(self, make_engine):
        engine = make_engine(CPU_FAST).start()
        engine.submit(make_query())
        engine.drain()
        report = engine.report()
        # instant execution against a 10 ms estimate: feedback must have
        # recorded exactly one hugely-overestimated completion
        stats = report.feedback_stats["Q_CPU"]
        assert stats.count == 1
        assert stats.total_measured < stats.total_estimated

    def test_engine_relative_time_starts_at_zero(self, make_engine):
        engine = make_engine(CPU_FAST)
        assert engine.elapsed == 0.0
        engine.clock.advance(2.0)
        assert engine.elapsed == 2.0


class TestAdmission:
    @pytest.fixture()
    def strict_config(self, serve_config):
        from dataclasses import replace

        return replace(
            serve_config,
            scheduler_factory=functools.partial(
                AdmissionControlScheduler, lateness_factor=0.0
            ),
        )

    def test_hopeless_query_is_rejected(self, strict_config, make_engine):
        hopeless = QueryEstimates(t_cpu=10.0, t_gpu={1: 10.0, 2: 9.0, 4: 8.0})
        collector = TraceCollector()
        engine = make_engine(
            hopeless, config=strict_config, collector=collector
        ).start()
        outcome = engine.submit(make_query())
        assert not outcome.accepted
        assert outcome.ticket is None and outcome.decision is None
        assert engine.in_flight == 0
        engine.drain()
        report = engine.report()
        assert report.rejected == 1 and report.completed == 0
        assert_valid(report, require_drained=True, collector=collector)
        assert [e.kind for e in collector.events if e.query_id is not None] == [
            "arrival",
            "estimated",
            "rejected",
        ]

    def test_feasible_query_is_accepted(self, strict_config, make_engine):
        engine = make_engine(CPU_FAST, config=strict_config).start()
        assert engine.submit(make_query()).accepted
        engine.drain()
        assert engine.report().completed == 1


class TestBackpressure:
    def test_nonblocking_submit_raises_at_the_bound(self, make_engine):
        executor = GatedExecutor()
        engine = make_engine(
            CPU_FAST, executor=executor, max_in_flight=1
        ).start()
        engine.submit(make_query())
        with pytest.raises(BackpressureError, match="in flight"):
            engine.submit(make_query(), block=False)
        executor.gate.set()
        engine.drain()
        assert engine.report().completed == 1

    def test_blocking_submit_times_out(self, make_engine):
        executor = GatedExecutor()
        engine = make_engine(
            CPU_FAST, executor=executor, max_in_flight=1
        ).start()
        engine.submit(make_query())
        with pytest.raises(BackpressureError, match="still"):
            engine.submit(make_query(), timeout=0.02)
        executor.gate.set()
        engine.drain()

    def test_blocking_submit_resumes_when_capacity_frees(self, make_engine):
        executor = GatedExecutor()
        engine = make_engine(
            CPU_FAST, executor=executor, max_in_flight=1
        ).start()
        engine.submit(make_query())
        accepted = []

        def client():
            accepted.append(engine.submit(make_query()))

        t = threading.Thread(target=client)
        t.start()
        assert not accepted  # blocked on the in-flight bound
        executor.gate.set()
        t.join(timeout=5.0)
        assert accepted and accepted[0].accepted
        engine.drain()
        report = engine.report()
        assert report.completed == 2
        assert_valid(report, require_drained=True)

    def test_invalid_bound_rejected(self, make_engine):
        with pytest.raises(ServeError, match="max_in_flight"):
            make_engine(CPU_FAST, max_in_flight=0)


class TestDrainAndErrors:
    def test_submit_after_drain_raises(self, make_engine):
        engine = make_engine(CPU_FAST).start()
        engine.drain()
        with pytest.raises(ServeError, match="draining"):
            engine.submit(make_query())

    def test_drain_times_out_on_wedged_executor(self, make_engine):
        executor = GatedExecutor()
        engine = make_engine(CPU_FAST, executor=executor).start()
        engine.submit(make_query())
        with pytest.raises(ServeError, match="drain timed out"):
            engine.drain(timeout=0.05)
        executor.gate.set()

    def test_context_manager_drains(self, make_engine):
        engine = make_engine(CPU_FAST)
        with engine:
            engine.submit(make_query())
        assert engine.report().completed == 1

    def test_processing_failure_surfaces_in_drain(self, make_engine):
        engine = make_engine(CPU_FAST, executor=FailingExecutor()).start()
        outcome = engine.submit(make_query())
        with pytest.raises(ServeError, match="failed during execution"):
            engine.drain()
        assert isinstance(outcome.ticket.error, RuntimeError)
        report = engine.report()
        # full bookkeeping still happened: record present, no answer
        assert report.completed == 1
        assert report.records[0].answer is None
        assert_valid(report, require_drained=True)

    @pytest.mark.parametrize(
        "stage", ["on_stage_start", "on_stage_finish", "on_feedback", "on_outcome"]
    )
    def test_a_raising_subscriber_is_booked_not_fatal(self, make_engine, stage):
        """A view that raises while a worker publishes one of a query's
        stages must not end that worker or strand the ticket: the query
        ends, the pool serves the next one, and drain() re-raises the
        subscriber's error."""
        raised = []

        class Raising:
            """Rides in the ``collector`` keyword, hence bind/sample."""

            def bind(self, queues, stations):
                pass

            def sample(self, now):
                pass

        def fail(*args):
            raised.append(RuntimeError(f"{stage} subscriber failed (simulated)"))
            raise raised[-1]

        subscriber = Raising()
        setattr(subscriber, stage, fail)
        engine = make_engine(CPU_FAST, collector=subscriber).start()
        first = engine.submit(make_query()).ticket
        assert first.wait(timeout=2.0)
        second = engine.submit(make_query()).ticket
        assert second.wait(timeout=2.0)  # the Q_CPU worker survived
        with pytest.raises(ServeError, match="failed during execution") as info:
            engine.drain(timeout=3.0)
        assert raised and info.value.__cause__ is raised[0]
        assert engine.in_flight == 0

    def test_a_team_fault_in_the_cpu_reduction_fails_the_stage(
        self, make_engine, monkeypatch, fact_table, pyramid, every_block_to_the_team
    ):
        """A block the persistent reduction team reduces raises: the
        query is booked as a failed processing stage with the original
        exception, drain comes back (re-raising it), the books audit
        clean, and the team serves the next engine."""

        class TeamFault(Exception):
            pass

        real = parallel.reduce_sequential

        def faulty(array, how):
            if threading.current_thread() in parallel._TEAM:
                raise TeamFault("block reduction failed (simulated)")
            return real(array, how)

        device = SimulatedGPU(global_memory_bytes=GB)
        device.load_table(fact_table)
        config = SystemConfig(
            cpu_model=XEON_X5667_8T,
            pyramid=pyramid,
            device=device,
            scheme=paper_partition_scheme(),
        )
        run = functools.partial(
            make_engine,
            CPU_FAST,
            config=config,
            executor=MaterialisedExecutor(config, cpu_threads=2),
        )
        monkeypatch.setattr(parallel, "reduce_sequential", faulty)
        engine = run().start()
        outcome = engine.submit(Query(conditions=(), measures=("sales_price",)))
        with pytest.raises(ServeError, match="failed during execution"):
            engine.drain()
        assert isinstance(outcome.ticket.error, TeamFault)
        report = engine.report()
        assert report.completed == 1 and report.records[0].target == "Q_CPU"
        assert report.records[0].answer is None
        assert engine.pools["Q_CPU"].failed == 1
        assert audit(report, require_drained=True).ok

        monkeypatch.setattr(parallel, "reduce_sequential", real)
        engine = run().start()
        outcome = engine.submit(Query(conditions=(), measures=("sales_price",)))
        engine.drain()
        assert outcome.ticket.record.answer == pytest.approx(
            float(fact_table.column("sales_price").sum())
        )
        assert audit(engine.report(), require_drained=True).ok

    def test_translation_failure_skips_processing(self, make_engine):
        engine = make_engine(
            GPU_TEXT, executor=FailingExecutor(fail_translation=True)
        ).start()
        outcome = engine.submit(make_query())
        with pytest.raises(ServeError, match="failed during execution"):
            engine.drain()
        assert isinstance(outcome.ticket.error, RuntimeError)
        report = engine.report()
        assert report.completed == 0
        # the booked processing submission is stranded in flight: the
        # base families must still reconcile (it is accounted, not lost)
        assert_valid(report)
        target = outcome.decision.target.name
        assert report.outstanding[target] == 1


class TestDeterminism:
    def _fingerprint(self, report):
        return (
            tuple(
                (r.target, r.submit_time, r.finish_time, r.estimated_time,
                 r.measured_time, r.translated)
                for r in report.records
            ),
            tuple(sorted(report.timelines)),
            tuple(sorted(report.by_target().items())),
        )

    def test_batch_submit_is_repeatable_20x(self, make_engine):
        # submissions happen before workers start: decisions evolve the
        # T_Q books with zero interleaving, so 20 runs are identical
        fingerprints = set()
        for _ in range(20):
            engine = make_engine(CPU_FAST, GPU_ONLY, GPU_TEXT)
            for _ in range(30):
                engine.submit(make_query())
            engine.start()
            engine.drain()
            report = engine.report()
            assert_valid(report, require_drained=True)
            fingerprints.add(self._fingerprint(report))
        assert len(fingerprints) == 1

    def test_submit_and_wait_is_repeatable_20x(self, make_engine):
        # one query in flight at a time: every submission observes fully
        # quiesced books regardless of worker-thread scheduling
        fingerprints = set()
        for _ in range(20):
            engine = make_engine(CPU_FAST, GPU_ONLY, GPU_TEXT).start()
            for _ in range(15):
                outcome = engine.submit(make_query())
                assert outcome.ticket.wait(timeout=5.0)
            engine.drain()
            report = engine.report()
            assert_valid(report, require_drained=True)
            fingerprints.add(self._fingerprint(report))
        assert len(fingerprints) == 1


class TestResplit:
    def test_a_split_step_2_does_not_estimate_is_refused(self, make_engine):
        """Step 2 prices the configured scheme's SM classes (1, 2, 4): a
        re-split to 3-SM partitions is refused before any queue or pool
        of it exists, and the engine keeps serving on its old split."""
        from repro.errors import PartitionError
        from repro.gpu.partitioning import PartitionScheme

        engine = make_engine(GPU_ONLY).start()
        before = dict(engine.queues)
        with pytest.raises(PartitionError, match=r"SM classes \[3\]"):
            engine.adapt_resplit(PartitionScheme([3, 3, 4, 4]))
        assert engine.queues == before and set(engine.pools) == set(before)
        outcome = engine.submit(make_query())
        assert outcome.accepted and outcome.ticket.wait(timeout=5.0)
        engine.drain()
        assert_valid(engine.report(), require_drained=True)

    def test_a_plane_with_such_a_rung_is_refused_at_attach(self, make_engine):
        from repro.adapt import AdaptivePlane
        from repro.errors import PartitionError
        from repro.gpu.partitioning import PartitionScheme

        ladder = (paper_partition_scheme(), PartitionScheme([3, 3, 4, 4]))
        with pytest.raises(PartitionError, match=r"SM classes \[3\]"):
            make_engine(GPU_ONLY, adapt=AdaptivePlane(schemes=ladder, recalibrate=False))

    def test_a_plane_without_the_controller_does_not_check_its_ladder(
        self, make_engine
    ):
        """The ladder is climbed only by the capacity controller, so a
        plane with ``control=False`` attaches whatever its rungs."""
        from repro.adapt import AdaptivePlane
        from repro.gpu.partitioning import PartitionScheme

        ladder = (paper_partition_scheme(), PartitionScheme([3, 3, 4, 4]))
        plane = AdaptivePlane(schemes=ladder, recalibrate=False, control=False)
        engine = make_engine(GPU_ONLY, adapt=plane).start()
        assert plane.controller is None
        outcome = engine.submit(make_query())
        assert outcome.accepted and outcome.ticket.wait(timeout=5.0)
        engine.drain()
        assert_valid(engine.report(), require_drained=True)

    def test_collector_samples_the_partitions_a_resplit_adds(self, make_engine):
        """The collector reads the engine's live queue and pool maps, so
        the generation that actually serves after a re-split shows up
        in the per-partition series."""
        from repro.gpu.partitioning import uniform_scheme

        collector = TraceCollector()
        engine = make_engine(GPU_ONLY, collector=collector).start()
        names = engine.adapt_resplit(uniform_scheme(7, 2))
        assert names[0] == "Q_G1b" and len(names) == 7
        outcome = engine.submit(make_query())
        assert outcome.decision.target.name in names
        engine.drain()
        report = engine.report()
        assert_valid(report, require_drained=True, collector=collector)
        assert set(names) <= set(collector.series)
        served = collector.series[outcome.decision.target.name]
        assert max(s.in_service for s in served) == 1
