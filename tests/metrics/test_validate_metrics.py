"""The sixth invariant family: metrics snapshots reconcile with the books."""

import pytest

from repro.errors import InvariantViolation
from repro.metrics import MetricsRegistry, SnapshotWriter
from repro.paper import TABLE3_TEXT_PROB, paper_system_config, paper_workload
from repro.query.workload import ArrivalProcess
from repro.sim import HybridSystem, assert_valid, audit, seed_violation
from repro.sim.validate import SEEDABLE_VIOLATIONS


def metrics_violations(result):
    return [v for v in result.violations if v.invariant == "metrics"]


@pytest.fixture(scope="module")
def metered_run():
    """One Table-3-preset simulation with the metrics plane attached."""
    config = paper_system_config(threads=8, include_32gb=True)
    workload = paper_workload(include_32gb=True, text_prob=TABLE3_TEXT_PROB, seed=7)
    stream = workload.generate(200, ArrivalProcess("uniform", rate=150.0))
    registry = MetricsRegistry()
    snapshots = SnapshotWriter(registry, interval=0.1)
    report = HybridSystem(config).run(
        stream, metrics=registry, snapshots=snapshots
    )
    return report, snapshots.snapshots[-1]


class TestHealthyRuns:
    def test_sim_run_reconciles(self, metered_run):
        report, snapshot = metered_run
        result = audit(report, snapshot=snapshot)
        assert result.ok, result.summary()
        assert "metrics" in result.checked
        assert_valid(report, snapshot=snapshot)  # does not raise

    def test_counts_present(self, metered_run):
        _, snapshot = metered_run
        assert snapshot.value("repro_queries_submitted_total") == 200.0
        fam = snapshot.family("repro_scheduler_decisions_total")
        assert fam.total() == 200.0


#: the five worker-pool families, exported by both planes
POOL_FAMILIES = (
    "repro_pool_queue_depth",
    "repro_pool_busy_workers",
    "repro_pool_wait_seconds",
    "repro_pool_service_seconds",
    "repro_pool_tasks_total",
)


@pytest.mark.parametrize("batch_size", [None, 16])
def test_simulated_runs_export_the_pool_families(batch_size):
    """The simulated plane derives them from the same stream as serving:
    the tasks each station served, ending with nothing queued or busy."""
    config = paper_system_config(threads=8, include_32gb=True)
    workload = paper_workload(include_32gb=True, text_prob=TABLE3_TEXT_PROB, seed=11)
    registry = MetricsRegistry()
    report = HybridSystem(config).run(
        workload.generate(120, ArrivalProcess("uniform", rate=150.0)),
        metrics=registry,
        batch_size=batch_size,
    )
    snapshot = registry.collect(report.horizon)
    assert all(snapshot.family(name) is not None for name in POOL_FAMILIES)
    assert audit(report, require_drained=True, snapshot=snapshot).ok
    assert not audit(report, snapshot=seed_violation(snapshot, "pool-tasks")).ok
    for pool, timeline in report.timelines.items():
        served = snapshot.histogram("repro_pool_service_seconds", pool=pool)
        assert (served.count if served else 0) == len(timeline), pool
        assert snapshot.value("repro_pool_queue_depth", pool=pool) == 0, pool
        assert snapshot.value("repro_pool_busy_workers", pool=pool) == 0, pool
    assert snapshot.family("repro_pool_tasks_total").value(pool="Q_TRANS", outcome="ok") > 0


class TestSeededViolations:
    def test_report_corruption_is_caught(self, metered_run):
        """Dropping a record from the books must break the reconciliation."""
        report, snapshot = metered_run
        broken = seed_violation(report, "conservation")
        result = audit(broken, snapshot=snapshot)
        assert metrics_violations(result)

    @pytest.mark.parametrize("kind", SEEDABLE_VIOLATIONS["metrics"])
    def test_snapshot_corruption_is_caught(self, metered_run, kind):
        report, snapshot = metered_run
        broken = seed_violation(snapshot, kind)
        result = audit(report, snapshot=broken)
        assert metrics_violations(result), f"seeded {kind!r} violation went undetected"
        with pytest.raises(InvariantViolation, match=r"\[metrics\]"):
            assert_valid(report, snapshot=broken)

    def test_unknown_kind_raises(self, metered_run):
        _, snapshot = metered_run
        with pytest.raises(InvariantViolation, match="unknown"):
            seed_violation(snapshot, "no-such-kind")

    def test_original_snapshot_unmodified(self, metered_run):
        report, snapshot = metered_run
        seed_violation(snapshot, "completed")
        assert audit(report, snapshot=snapshot).ok
