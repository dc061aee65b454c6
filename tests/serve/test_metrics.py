"""Serve-engine metrics: triple audit, concurrency, no-op when unattached.

The acceptance bar for the metrics plane: one fake-clock serve run must
simultaneously pass the schedule audit (``assert_valid``), the trace
cross-check (``assert_trace_valid``), and the metrics reconciliation
(``assert_metrics_valid``) — three independent books of the same run
agreeing exactly.
"""

import threading

from repro.core.stages import STAGES
from repro.metrics import MetricsRegistry, SloMonitor, SnapshotWriter
from repro.sim import TraceCollector
from repro.sim.validate import (
    assert_metrics_valid,
    assert_trace_valid,
    assert_valid,
)

from tests.serve.conftest import CPU_FAST, GPU_ONLY, GPU_TEXT, make_query


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

        assert_valid(report, require_drained=True)
        assert_trace_valid(report, collector)
        assert_metrics_valid(report, registry.collect(engine.elapsed))

    def test_drain_writes_final_snapshot(self, make_engine):
        registry = MetricsRegistry()
        snapshots = SnapshotWriter(registry, interval=1e9)  # grid never fires
        engine = make_engine(CPU_FAST, metrics=registry, snapshots=snapshots)
        with engine:
            assert engine.submit(make_query()).ticket.wait(timeout=10.0)
        # the forced drain snapshot is what validate_metrics reconciles
        final = snapshots.snapshots[-1]
        assert final.value("repro_queries_submitted_total") == 1.0
        assert_metrics_valid(engine.report(), final)

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
        engine = make_engine(CPU_FAST, GPU_ONLY, metrics=registry)
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

        with engine:
            threads = [
                threading.Thread(target=submitter)
                for _ in range(self.SUBMITTERS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not errors
            for ticket in tickets:
                assert ticket.wait(timeout=10.0)

        n = self.SUBMITTERS * self.PER_SUBMITTER
        snap = registry.collect(engine.elapsed)
        assert snap.value("repro_queries_submitted_total") == float(n)
        assert snap.family("repro_queries_completed_total").total() == float(n)
        assert snap.value("repro_in_flight_queries") == 0.0
        assert_metrics_valid(engine.report(), snap)


class TestUnattached:
    def test_no_registry_means_no_hooks(self, make_engine):
        engine = make_engine(CPU_FAST)
        assert engine.metrics is None
        table = engine.scheduler.subscribers
        assert all(getattr(table, stage) == () for stage in STAGES)
        assert all(pool.metrics is None for pool in engine.pools.values())

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
