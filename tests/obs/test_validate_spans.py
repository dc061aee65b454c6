"""The ``spans`` validation family against real runs and seeded breaks."""

import pytest

from repro.errors import InvariantViolation
from repro.obs import SpanTracer, head_sampled, stitch, trace_id_for
from repro.paper import paper_system_config, paper_workload
from repro.query.workload import ArrivalProcess
from repro.sim import HybridSystem, TraceCollector
from repro.sim.validate import SEEDABLE_VIOLATIONS, assert_valid, audit, seed_violation

SEED = 2012


@pytest.fixture(scope="module")
def traced_run():
    """One fully-sampled simulated run with spans, lifecycle, and report."""
    config = paper_system_config(threads=4, include_32gb=False)
    stream = paper_workload(
        include_32gb=False, text_prob=0.4, seed=9
    ).generate(40)
    tracer = SpanTracer(1.0, seed=SEED, process="sim")
    collector = TraceCollector()
    report = HybridSystem(config).run(stream, collector=collector, spans=tracer)
    submitted = [tq.query.query_id for tq in stream]
    return report, collector, tracer.spans(), submitted


class ManualClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def fleet_style_spans():
    """A hand-built two-process wire trace (frontdoor + shard)."""
    front_clock = ManualClock()
    front = SpanTracer(1.0, seed=SEED, clock=front_clock, process="frontdoor")
    front.open(1, "frontdoor.request")
    front.record(1, "wire.roundtrip", 0.1, 0.9, track="wire-0", shard=0)
    shard_clock = ManualClock(50.0)
    shard = SpanTracer(1.0, seed=SEED, clock=shard_clock, process="shard-0")
    shard.adopt(1, front.traceparent(1))
    shard.open(1, "serve.query")
    shard.record(1, "pool.service", 50.1, 50.4, track="Q_CPU", pool="Q_CPU")
    shard_clock.t = 50.5
    shard.close(1)
    front_clock.t = 1.0
    front.close(1)
    return stitch(front.drain() + shard.drain())


class TestCleanRuns:
    def test_real_run_passes_with_full_context(self, traced_run):
        report, collector, spans, submitted = traced_run
        assert spans, "a fully-sampled run must record spans"
        result = audit(report, spans=spans, seed=SEED, sample_rate=1.0, submitted=submitted)
        assert result.ok, result.summary()
        assert "spans" in result.checked

    def test_spans_alone_run_the_spans_family_alone(self, traced_run):
        _, _, spans, _ = traced_run
        assert audit(spans=spans).checked == ("spans",)
        assert audit(spans=iter(spans)).ok  # any iterable, consumed once
        assert assert_valid(spans=spans) is None

    def test_fleet_style_trace_passes(self):
        spans = fleet_style_spans()
        result = audit(spans=spans)
        assert result.ok, result.summary()

    def test_a_drained_run_closes_every_root(self):
        """A simulated run drains its stream, so no root is left to
        abandon: every sampled query's root closed as its query ended."""
        config = paper_system_config(threads=4, include_32gb=False)
        stream = paper_workload(include_32gb=False, text_prob=0.4, seed=5).generate(
            50, ArrivalProcess("uniform", rate=200.0)
        )
        tracer = SpanTracer(1.0, seed=SEED, process="sim")
        HybridSystem(config).run(stream, spans=tracer)
        assert tracer.open_count() == 0
        roots = [s for s in tracer.spans() if s.parent_id is None]
        assert len(roots) == 50
        assert all(root.status != "abandoned" for root in roots)

    def test_empty_set_is_vacuously_valid(self):
        assert audit(spans=()).ok


class TestSeededViolations:
    """Every corruption arm must be caught by the family that owns it."""

    def _corrupt_and_validate(self, kind, traced_run):
        report, collector, spans, submitted = traced_run
        if kind == "severed":
            spans = fleet_style_spans()
        corrupted = seed_violation(spans, kind)
        kwargs = {}
        if kind == "unsampled":
            kwargs = dict(seed=SEED, sample_rate=1.0, submitted=submitted)
        elif kind == "books":
            kwargs = dict(report=report)
        return audit(spans=corrupted, **kwargs)

    @pytest.mark.parametrize("kind", SEEDABLE_VIOLATIONS["spans"])
    def test_arm_is_caught(self, kind, traced_run):
        result = self._corrupt_and_validate(kind, traced_run)
        assert not result.ok, f"seeded {kind!r} violation went undetected"
        assert all(v.invariant == "spans" for v in result.violations)

    def test_unknown_kind_raises(self, traced_run):
        _, _, spans, _ = traced_run
        with pytest.raises(InvariantViolation, match="unknown violation"):
            seed_violation(spans, "no-such-kind")

    def test_unseedable_arm_raises(self):
        lone = fleet_style_spans()[:1]  # a root with no children, no wire
        with pytest.raises(InvariantViolation, match="cannot seed"):
            seed_violation(lone, "orphan")
        with pytest.raises(InvariantViolation, match="empty set"):
            seed_violation((), "inverted")


class TestSamplingAccounting:
    def test_partial_rate_matches_the_formula_exactly(self):
        config = paper_system_config(threads=4, include_32gb=False)
        stream = paper_workload(
            include_32gb=False, text_prob=0.4, seed=11
        ).generate(60)
        tracer = SpanTracer(0.3, seed=SEED, process="sim")
        collector = TraceCollector()
        HybridSystem(config).run(stream, collector=collector, spans=tracer)
        submitted = [tq.query.query_id for tq in stream]
        spans = tracer.spans()
        assert_valid(spans=spans, seed=SEED, sample_rate=0.3, submitted=submitted)
        traced = {s.trace_id for s in spans}
        expected = {
            trace_id_for(SEED, qid)
            for qid in submitted
            if head_sampled(SEED, 0.3, qid)
        }
        assert traced == expected
        assert 0 < len(traced) < len(submitted)

    def test_extra_trace_is_flagged_both_ways(self, traced_run):
        _, _, spans, submitted = traced_run
        # claim a smaller submitted set: recorded traces become "extra"
        result = audit(spans=spans, seed=SEED, sample_rate=1.0, submitted=submitted[:5])
        assert any("recorded but no submitted" in v.message for v in result.violations)
        # claim a larger one: the formula expects traces the run lacks
        result = audit(
            spans=spans, seed=SEED, sample_rate=1.0, submitted=list(submitted) + [10_000_001]
        )
        assert any("recorded no spans" in v.message for v in result.violations)


class TestSeveredTrees:
    def test_partial_root_exempts_a_severed_trace(self):
        spans = fleet_style_spans()
        root = next(s for s in spans if s.parent_id is None)
        survivors = [
            s for s in spans if s.process == root.process
        ]  # shard spans lost with the crashed worker
        # without stitch's partial stamp this is a severed-tree violation
        unstitched = audit(spans=survivors)
        assert any("severed" in v.message for v in unstitched.violations)
        # stitch knows shard 0 crashed and stamps the root partial
        restamped = stitch(survivors, crashed=(0,))
        result = audit(spans=restamped)
        assert result.ok, result.summary()
        assert next(
            s for s in restamped if s.parent_id is None
        ).status == "partial"


class TestBufferOverflow:
    def test_a_mid_trace_overflow_leaves_no_orphan(self):
        """Concurrent traces fill the buffer while several roots are open:
        each open root keeps one slot in reserve, so what overflows is
        whole traces and stage spans, never a root whose children were
        kept."""
        config = paper_system_config(threads=4, include_32gb=False)
        stream = paper_workload(include_32gb=False, text_prob=0.4, seed=9).generate(
            60, ArrivalProcess("uniform", rate=200.0)
        )
        tracer = SpanTracer(1.0, seed=SEED, process="sim", max_spans=40)
        report = HybridSystem(config).run(stream, spans=tracer)
        spans = tracer.spans()
        assert tracer.dropped > 0 and len(spans) == tracer.recorded == 40
        assert tracer.open_count() == 0
        # the buffer filled with more than one trace still open
        roots = {s.trace_id: s for s in spans if s.parent_id is None}
        kept = {s.trace_id for s in spans}
        assert kept == set(roots)
        assert max(
            sum(1 for r in roots.values() if r.start <= root.start < r.end)
            for root in roots.values()
        ) > 1
        result = audit(report, spans=spans)
        assert result.ok, result.summary()
