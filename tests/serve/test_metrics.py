"""Serve-engine metrics: triple audit, concurrency, no-op when unattached.

The acceptance bar for the metrics plane: one fake-clock serve run must
pass one ``assert_valid`` with the books, the trace and the metrics
snapshot at once: the schedule audit, the trace cross-check and the
metrics reconciliation — three independent books of the same run
agreeing exactly.
"""

import sys
import threading

import pytest

from repro.core.stages import STAGES
from repro.errors import ServeError
from repro.metrics import MetricsRegistry, SloMonitor, SnapshotWriter
from repro.sim import TraceCollector
from repro.sim.validate import SUM_TOLERANCE, assert_valid, audit, seed_violation

from tests.serve.conftest import CPU_FAST, GPU_ONLY, GPU_TEXT, make_query, wait_until


class TestTripleAudit:
    def test_traced_and_metered_run_reconciles(self, make_engine):
        registry = MetricsRegistry()
        slo = SloMonitor(target=0.9, window=60.0, registry=registry)
        snapshots = SnapshotWriter(registry, interval=0.05)
        collector = TraceCollector()
        engine = make_engine(
            CPU_FAST,
            GPU_ONLY,
            GPU_TEXT,
            collector=collector,
            metrics=registry,
            slo=slo,
            snapshots=snapshots,
        )
        with engine:
            tickets = []
            for _ in range(30):
                outcome = engine.submit(make_query())
                assert outcome.accepted
                tickets.append(outcome.ticket)
            for ticket in tickets:
                assert ticket.wait(timeout=10.0)
        report = engine.report()

        assert_valid(
            report,
            require_drained=True,
            collector=collector,
            snapshot=registry.collect(engine.elapsed),
        )

    def test_drain_writes_final_snapshot(self, make_engine):
        registry = MetricsRegistry()
        snapshots = SnapshotWriter(registry, interval=1e9)  # grid never fires
        engine = make_engine(CPU_FAST, metrics=registry, snapshots=snapshots)
        with engine:
            assert engine.submit(make_query()).ticket.wait(timeout=10.0)
        # the forced drain snapshot is what the metrics family reconciles
        final = snapshots.snapshots[-1]
        assert final.value("repro_queries_submitted_total") == 1.0
        assert_valid(engine.report(), snapshot=final)

    def test_slo_sees_every_completion(self, make_engine):
        registry = MetricsRegistry()
        slo = SloMonitor(target=0.5, window=1e9, registry=registry)
        engine = make_engine(CPU_FAST, metrics=registry, slo=slo)
        with engine:
            tickets = [engine.submit(make_query()).ticket for _ in range(10)]
            for ticket in tickets:
                assert ticket.wait(timeout=10.0)
        assert slo.window_count == 10


class TestConcurrentSubmitters:
    SUBMITTERS = 8
    PER_SUBMITTER = 25

    def test_counters_exact_under_contention(self, make_engine):
        registry = MetricsRegistry()
        engine = make_engine(CPU_FAST, GPU_ONLY, GPU_TEXT, metrics=registry)
        barrier = threading.Barrier(self.SUBMITTERS)
        tickets_lock = threading.Lock()
        tickets = []
        errors: list[BaseException] = []

        def submitter():
            try:
                barrier.wait(timeout=10.0)
                for _ in range(self.PER_SUBMITTER):
                    outcome = engine.submit(make_query())
                    with tickets_lock:
                        tickets.append(outcome.ticket)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the submitters and workers finely
        try:
            with engine:
                threads = [
                    threading.Thread(target=submitter)
                    for _ in range(self.SUBMITTERS)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in threads)
                assert not errors
                for ticket in tickets:
                    assert ticket.wait(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)

        n = self.SUBMITTERS * self.PER_SUBMITTER
        snap = registry.collect(engine.elapsed)
        assert snap.value("repro_queries_submitted_total") == float(n)
        assert snap.family("repro_queries_completed_total").total() == float(n)
        assert snap.value("repro_in_flight_queries") == 0.0
        for name in engine.pools:
            assert snap.value("repro_pool_queue_depth", pool=name) == 0.0, name
            assert snap.value("repro_pool_busy_workers", pool=name) == 0.0, name
        assert_valid(engine.report(), snapshot=snap)


class GatedFaultyExecutor:
    """The first translation raises; processing blocks on a test-held
    gate, then raises on ``Q_CPU`` and succeeds elsewhere."""

    def __init__(self):
        self.gate = threading.Event()
        self.translations = 0

    def translate(self, query):
        self.translations += 1
        if self.translations == 1:
            raise RuntimeError("dictionary corrupted (simulated)")
        return query

    def execute(self, target, query):
        self.gate.wait()
        if target.name == "Q_CPU":
            raise RuntimeError("kernel fault (simulated)")
        return None


class GatedTranslator:
    """Translation blocks on a test-held gate; processing is instant."""

    def __init__(self):
        self.gate = threading.Event()

    def translate(self, query):
        self.gate.wait()
        return query

    def execute(self, target, query):
        return None


class TestPoolFamilies:
    """The ``repro_pool_*`` families are a view of the stage stream, and
    every publish shares the engine-lock hold of the pool transition it
    mirrors: whenever the lock is free they read what the pools hold."""

    def test_pool_families_mirror_the_pools(self, make_engine):
        registry = MetricsRegistry()
        executor = GatedFaultyExecutor()
        engine = make_engine(
            CPU_FAST, GPU_ONLY, GPU_TEXT, executor=executor, metrics=registry
        ).start()
        for _ in range(9):
            assert engine.submit(make_query()).accepted
        pools = engine.pools.values()
        try:
            # every translation done, every processing worker at the gate
            wait_until(
                lambda: engine.pools["Q_TRANS"].completed == 3
                and all(p.queue_length == 0 or p.in_service == p.capacity for p in pools),
                what="a held engine",
            )
            engine.clock.advance(0.25)  # the held tasks wait and serve 0.25 s
            with engine._state.cond:
                held = registry.collect(engine.elapsed)
                for pool in pools:
                    depth = held.value("repro_pool_queue_depth", pool=pool.name)
                    busy = held.value("repro_pool_busy_workers", pool=pool.name)
                    assert (depth, busy) == (pool.queue_length, pool.in_service), pool.name
            assert held.value("repro_pool_queue_depth", pool="Q_CPU") == 2
            assert held.value("repro_pool_busy_workers", pool="Q_CPU") == 1
        finally:
            executor.gate.set()  # a failed assertion must not strand the workers

        with pytest.raises(ServeError, match="failed during execution"):
            engine.drain()
        report = engine.report()
        snap = registry.collect(engine.elapsed)
        # not require_drained: the failed translation strands its booked
        # processing submission, which the books account for
        assert audit(report, snapshot=snap).ok
        assert not audit(report, snapshot=seed_violation(snap, "pool-tasks")).ok
        for pool in pools:
            served = len(pool.history)
            tasks = snap.family("repro_pool_tasks_total")
            ok = tasks.value(pool=pool.name, outcome="ok")
            failed = tasks.value(pool=pool.name, outcome="failed")
            assert ok + failed == served == pool.completed, pool.name
            assert failed == pool.failed, pool.name
            service = snap.histogram("repro_pool_service_seconds", pool=pool.name)
            wait = snap.histogram("repro_pool_wait_seconds", pool=pool.name)
            assert (service.count if service else 0) == served, pool.name
            assert (wait.count if wait else 0) == served, pool.name
            busy_time = sum(finish - start for _, start, finish in pool.history)
            total = service.total if service else 0.0
            assert abs(total - busy_time) <= SUM_TOLERANCE * max(1, served), pool.name
            assert snap.value("repro_pool_queue_depth", pool=pool.name) == 0
            assert snap.value("repro_pool_busy_workers", pool=pool.name) == 0
        # the three CPU queries and the one translation fault
        assert snap.value("repro_pool_tasks_total", pool="Q_CPU", outcome="failed") == 3
        assert snap.value("repro_pool_tasks_total", pool="Q_TRANS", outcome="failed") == 1
        assert snap.histogram("repro_pool_service_seconds", pool="Q_CPU").total > 0

    def test_a_query_object_in_flight_twice(self, make_engine):
        """A client may resubmit one query object before it finished: the
        query id repeats, and every translation still hands its query on."""
        registry = MetricsRegistry()
        executor = GatedTranslator()
        engine = make_engine(GPU_TEXT, executor=executor, metrics=registry).start()
        query = make_query()
        try:
            for _ in range(3):
                assert engine.submit(query).accepted
            with engine._state.cond:
                held = registry.collect(engine.elapsed)
            waiting = held.value("repro_pool_queue_depth", pool="Q_TRANS")
            assert waiting + held.value("repro_pool_busy_workers", pool="Q_TRANS") == 3
        finally:
            executor.gate.set()
        engine.drain()
        snap = registry.collect(engine.elapsed)
        for name, pool in engine.pools.items():
            assert snap.value("repro_pool_queue_depth", pool=name) == 0, name
            assert snap.value("repro_pool_busy_workers", pool=name) == 0, name
            tasks = snap.family("repro_pool_tasks_total")
            assert tasks.value(pool=name, outcome="ok") == len(pool.history), name
        assert len(engine.report().records) == 3


class TestUnattached:
    def test_no_registry_means_no_hooks(self, make_engine):
        engine = make_engine(CPU_FAST)
        assert engine.metrics is None
        table = engine.scheduler.subscribers
        assert all(getattr(table, stage) == () for stage in STAGES)
        # the pool families are a view of the stream: a pool has no slot
        assert not any(hasattr(pool, "metrics") for pool in engine.pools.values())

    def test_metered_run_matches_unmetered(self, make_engine):
        """Attaching metrics must not change any scheduling outcome.

        Queries go in one at a time (each waited for) so both runs see
        identical queue states at every decision and are comparable.
        """

        def run(**kwargs):
            engine = make_engine(CPU_FAST, GPU_ONLY, GPU_TEXT, **kwargs)
            with engine:
                for _ in range(12):
                    assert engine.submit(make_query()).ticket.wait(timeout=10.0)
            return engine.report()

        plain = run()
        metered = run(metrics=MetricsRegistry())
        assert [r.target for r in plain.records] == [
            r.target for r in metered.records
        ]
