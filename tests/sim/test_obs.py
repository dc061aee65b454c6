"""Tests for the observability layer (repro.sim.obs).

Acceptance criteria of the tracing PR: (a) every completed query's
event stream is well-ordered, (b) trace events reconcile with the
queues' Submission books via repro.sim.validate, (c) the SystemReport
is identical with tracing enabled vs disabled.
"""

import functools
import json

import pytest

from repro.core.admission import AdmissionControlScheduler
from repro.core.partitions import PartitionQueue, QueueKind
from repro.errors import InvariantViolation, ReproError, SimulationError
from repro.paper import TABLE3_TEXT_PROB, paper_system_config, paper_workload
from repro.query.workload import ArrivalProcess
from repro.report import render_dashboard, sparkline
from repro.sim import (
    SEEDABLE_VIOLATIONS,
    HybridSystem,
    TraceCollector,
    assert_valid,
    audit,
    seed_violation,
)
from repro.sim.obs import EVENT_KINDS, TraceEvent, classify_branch


@pytest.fixture(scope="module")
def traced_run():
    """One Table-3-preset run, traced, plus the identical untraced run."""
    config = paper_system_config(threads=8, include_32gb=True)
    workload = paper_workload(include_32gb=True, text_prob=TABLE3_TEXT_PROB, seed=5)
    stream = workload.generate(250, ArrivalProcess("uniform", rate=150.0))
    collector = TraceCollector()
    report = HybridSystem(config).run(stream, collector=collector)
    untraced = HybridSystem(config).run(stream)
    return report, collector, untraced


class TestLifecycleOrdering:
    def test_untranslated_stream_well_ordered(self, traced_run):
        report, collector, _ = traced_run
        record = next(r for r in report.records if not r.translated)
        assert collector.kinds_for(record.query_id) == (
            "arrival",
            "estimated",
            "decision",
            "service_start",
            "service_finish",
            "feedback",
        )

    def test_translated_stream_includes_translation_stage(self, traced_run):
        report, collector, _ = traced_run
        record = next(r for r in report.records if r.translated)
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

    def test_every_completed_query_well_ordered(self, traced_run):
        # acceptance (a): the trace family checks order + timestamps
        # for every completed record
        report, collector, _ = traced_run
        result = audit(report, collector=collector)
        assert result.ok, result.summary()
        assert "trace" in result.checked

    def test_event_times_non_decreasing_per_query(self, traced_run):
        report, collector, _ = traced_run
        for record in report.records[:50]:
            times = [e.time for e in collector.events_for(record.query_id)]
            assert times == sorted(times)

    def test_decision_carries_candidates_and_branch(self, traced_run):
        report, collector, _ = traced_run
        decisions = [e for e in collector.events if e.kind == "decision"]
        assert len(decisions) == len(report.records)
        for event in decisions[:20]:
            names = [name for name, _ in event.data["candidates"]]
            # Table-3 preset: CPU + six GPU partitions when the cube
            # reaches the query, six GPU partitions otherwise
            assert set(names) <= {
                "Q_CPU", "Q_G1", "Q_G2", "Q_G3", "Q_G4", "Q_G5", "Q_G6"
            }
            assert event.data["branch"].startswith("step")
            assert event.data["target"] in names

    def test_feedback_events_carry_bias_ratio(self, traced_run):
        _, collector, _ = traced_run
        feedback = [e for e in collector.events if e.kind == "feedback"]
        assert feedback
        for event in feedback[:20]:
            assert event.data["bias_ratio"] == pytest.approx(1.0)  # exact models
            assert event.data["applied"] == pytest.approx(0.0)


class TestBookReconciliation:
    def test_trace_reconciles_with_submission_books(self, traced_run):
        # acceptance (b)
        report, collector, _ = traced_run
        assert assert_valid(report, collector=collector) is report

    def test_validation_fails_on_dropped_decision(self, traced_run):
        report, collector, _ = traced_run
        corrupted = TraceCollector()
        dropped = next(e for e in collector.events if e.kind == "decision")
        corrupted.events = [e for e in collector.events if e is not dropped]
        result = audit(report, collector=corrupted)
        assert not result.ok
        assert any(v.invariant == "trace" for v in result.violations)

    def test_validation_fails_on_tampered_estimate(self, traced_run):
        report, collector, _ = traced_run
        corrupted = TraceCollector()
        corrupted.events = list(collector.events)
        i = next(
            idx for idx, e in enumerate(corrupted.events) if e.kind == "decision"
        )
        event = corrupted.events[i]
        corrupted.events[i] = TraceEvent(
            kind="decision",
            time=event.time,
            query_id=event.query_id,
            data={**event.data, "estimated_time": event.data["estimated_time"] + 1.0},
        )
        result = audit(report, collector=corrupted)
        assert not result.ok
        assert "disagrees with its submission" in result.summary()

    def test_validation_fails_on_phantom_rejection(self, traced_run):
        report, collector, _ = traced_run
        corrupted = TraceCollector()
        corrupted.events = list(collector.events)
        corrupted.emit("rejected", report.horizon, 10**6, reason="phantom")
        result = audit(report, collector=corrupted)
        assert not result.ok
        assert "rejected" in result.summary()


class TestDecisionIdentical:
    def test_report_identical_with_tracing_on_and_off(self, traced_run):
        # acceptance (c): tracing must not perturb the run
        report, _, untraced = traced_run
        assert report == untraced
        assert repr(report) == repr(untraced)
        assert report.summary() == untraced.summary()

    def test_hooks_default_to_none(self):
        from repro.core.scheduler import HybridScheduler
        from repro.core.stages import NO_SUBSCRIBERS
        from repro.sim.engine import SimulationEngine
        from repro.sim.resources import Server

        engine = SimulationEngine()
        assert engine.observer is None
        server = Server(engine, "S")
        assert server.on_start is None and server.on_finish is None
        cpu_q = PartitionQueue("Q_CPU", QueueKind.CPU)
        trans_q = PartitionQueue("Q_TRANS", QueueKind.TRANSLATION)
        gpu_q = PartitionQueue("Q_G1", QueueKind.GPU, n_sm=1)

        class _Est:
            def estimate(self, q):
                raise NotImplementedError

        sched = HybridScheduler(cpu_q, [gpu_q], trans_q, _Est(), 0.5)
        assert sched.subscribers is NO_SUBSCRIBERS

    def test_collector_is_single_run(self, traced_run):
        _, collector, _ = traced_run
        config = paper_system_config(threads=8, include_32gb=True)
        workload = paper_workload(include_32gb=True, seed=6)
        with pytest.raises(SimulationError, match="single-run"):
            HybridSystem(config).run(
                workload.generate(5), collector=collector
            )


class TestPartitionTelemetry:
    def test_series_cover_all_partitions(self, traced_run):
        report, collector, _ = traced_run
        assert set(collector.series) == set(report.utilisations)

    def test_samples_monotone_and_sane(self, traced_run):
        _, collector, _ = traced_run
        for name, samples in collector.series.items():
            times = [s.time for s in samples]
            assert times == sorted(times)
            for s in samples:
                assert s.queue == name
                assert s.backlog >= 0.0
                assert s.outstanding >= 0
                assert s.queue_depth >= 0
                assert s.in_service >= 0

    def test_booked_vs_realised_signal_present(self, traced_run):
        # under 150 q/s the slow GPU partitions queue up: both the
        # booked T_Q backlog and the realised depth must register it
        _, collector, _ = traced_run
        samples = collector.partition_series("Q_G1")
        assert max(s.backlog for s in samples) > 0.0
        assert max(s.queue_depth + s.in_service for s in samples) > 1

    def test_sample_series_disabled(self):
        config = paper_system_config(threads=8, include_32gb=True)
        workload = paper_workload(include_32gb=True, seed=6)
        collector = TraceCollector(sample_series=False)
        HybridSystem(config).run(workload.generate(20), collector=collector)
        assert collector.events
        assert collector.series == {}


@pytest.fixture(scope="module")
def rejecting_run():
    """A traced admission-control run that both completes and rejects."""
    factory = functools.partial(AdmissionControlScheduler, lateness_factor=0.0)
    config = paper_system_config(threads=8, include_32gb=True, scheduler_factory=factory)
    workload = paper_workload(include_32gb=True, text_prob=TABLE3_TEXT_PROB, seed=7)
    stream = workload.generate(300, ArrivalProcess("uniform", rate=2000.0))
    collector = TraceCollector()
    report = HybridSystem(config).run(stream, collector=collector)
    return report, collector


class TestRejections:
    def test_rejected_queries_emit_rejected_events(self, rejecting_run):
        report, collector = rejecting_run
        assert report.rejected > 0
        rejected = [e for e in collector.events if e.kind == "rejected"]
        assert len(rejected) == report.rejected
        assert audit(report, collector=collector).ok
        # a rejected query's stream stops at the rejection
        kinds = collector.kinds_for(rejected[0].query_id)
        assert kinds == ("arrival", "estimated", "rejected")


class TestSeededTraceArms:
    @pytest.mark.parametrize("kind", SEEDABLE_VIOLATIONS["trace"])
    def test_each_arm_fails_the_trace_family(self, rejecting_run, kind):
        report, collector = rejecting_run
        assert report.completed > 0 and report.rejected > 0
        corrupted = seed_violation(collector, kind)
        result = audit(report, collector=corrupted)
        assert {v.invariant for v in result.violations} == {"trace"}, result.summary()
        # the healthy trace is left as it was
        assert audit(report, collector=collector).ok

    def test_a_trace_without_a_rejection_cannot_lose_one(self, traced_run):
        _, collector, _ = traced_run
        with pytest.raises(InvariantViolation, match="cannot seed 'dropped-rejection'"):
            seed_violation(collector, "dropped-rejection")


class TestBranchClassification:
    def _queues(self):
        cpu = PartitionQueue("Q_CPU", QueueKind.CPU)
        gpu = PartitionQueue("Q_G1", QueueKind.GPU, n_sm=1)
        return cpu, gpu

    def test_step5_branches(self):
        cpu, gpu = self._queues()
        candidates = [(cpu, 0.1), (gpu, 0.2)]
        assert classify_branch(candidates, 0.5, cpu) == "step5-cpu"
        assert classify_branch(candidates, 0.5, gpu) == "step5-gpu"

    def test_boundary_is_inclusive(self):
        cpu, gpu = self._queues()
        assert classify_branch([(cpu, 0.5), (gpu, 9.0)], 0.5, cpu) == "step5-cpu"

    def test_step6_when_nobody_makes_it(self):
        cpu, gpu = self._queues()
        candidates = [(cpu, 1.0), (gpu, 2.0)]
        assert classify_branch(candidates, 0.5, cpu) == "step6-min-lateness"

    def test_outside_pbd_flags_deadline_blind_placement(self):
        cpu, gpu = self._queues()
        candidates = [(cpu, 0.1), (gpu, 2.0)]
        assert classify_branch(candidates, 0.5, gpu) == "step5-outside-pbd"

    def test_paper_scheduler_never_places_outside_pbd(self, traced_run):
        _, collector, _ = traced_run
        branches = {
            e.data["branch"] for e in collector.events if e.kind == "decision"
        }
        assert "step5-outside-pbd" not in branches
        assert branches & {"step5-cpu", "step5-gpu"}

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown trace event"):
            TraceEvent(kind="teleport", time=0.0, query_id=1)
        assert "decision" in EVENT_KINDS


class TestExports:
    def test_jsonl_roundtrip(self, traced_run, tmp_path):
        _, collector, _ = traced_run
        path = tmp_path / "trace.jsonl"
        n = collector.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == n
        records = [json.loads(line) for line in lines]
        events = [r for r in records if r["record"] == "event"]
        samples = [r for r in records if r["record"] == "sample"]
        assert len(events) == len(collector.events)
        assert len(samples) == sum(len(s) for s in collector.series.values())
        # events keep emission order and are self-describing
        assert events[0]["kind"] == "arrival"
        kinds = {e["kind"] for e in events}
        assert kinds <= set(EVENT_KINDS)
        assert {s["queue"] for s in samples} == set(collector.series)

    def test_dashboard_renders(self, traced_run):
        report, collector, _ = traced_run
        dashboard = render_dashboard(report, collector, width=40)
        assert "booked T_Q backlog" in dashboard
        assert "realised jobs" in dashboard
        for name in report.utilisations:
            assert name in dashboard

    def test_dashboard_needs_telemetry(self, traced_run):
        report, _, _ = traced_run
        with pytest.raises(ReproError, match="telemetry"):
            render_dashboard(report, TraceCollector(sample_series=False))

    def test_sparkline_basics(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "  "
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == " " and line[2] == "#"
        # tiny non-zero values remain visible
        assert sparkline([0.001, 1.0])[0] != " "


class TestCalibrationSurface:
    def test_biased_models_reported_on_system_report(self):
        config = paper_system_config(threads=8, include_32gb=True)
        from dataclasses import replace

        config = replace(config, noise_bias=1.5)
        workload = paper_workload(include_32gb=True, seed=8)
        report = HybridSystem(config).run(workload.generate(60))
        assert report.feedback_stats
        assert report.overall_bias_ratio == pytest.approx(1.5)
        for name, stats in report.feedback_stats.items():
            assert stats.bias_ratio == pytest.approx(1.5)
            assert report.bias_ratio(name) == pytest.approx(1.5)

    def test_unseen_queue_bias_is_nan(self):
        import math

        from repro.sim.metrics import SystemReport

        report = SystemReport.from_records([])
        assert math.isnan(report.overall_bias_ratio)
        assert math.isnan(report.bias_ratio("Q_CPU"))
