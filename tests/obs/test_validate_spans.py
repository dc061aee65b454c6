"""The ``spans`` validation family against real runs and seeded breaks."""

import pytest

from repro.errors import InvariantViolation
from repro.obs import SpanTracer, head_sampled, stitch, trace_id_for
from repro.paper import paper_system_config, paper_workload
from repro.sim import HybridSystem, TraceCollector
from repro.sim.validate import (
    SEEDABLE_SPANS_VIOLATIONS,
    assert_spans_valid,
    seed_spans_violation,
    validate_spans,
)

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
        result = validate_spans(
            spans,
            report=report,
            seed=SEED,
            sample_rate=1.0,
            submitted=submitted,
        )
        assert result.ok, result.summary()
        assert result.checked == ("spans",)

    def test_assert_returns_the_span_tuple(self, traced_run):
        _, _, spans, _ = traced_run
        assert assert_spans_valid(spans) == tuple(spans)

    def test_fleet_style_trace_passes(self):
        spans = fleet_style_spans()
        result = validate_spans(spans)
        assert result.ok, result.summary()

    def test_empty_set_is_vacuously_valid(self):
        assert validate_spans(()).ok


class TestSeededViolations:
    """Every corruption arm must be caught by the family that owns it."""

    def _corrupt_and_validate(self, kind, traced_run):
        report, collector, spans, submitted = traced_run
        if kind == "severed":
            spans = fleet_style_spans()
        corrupted = seed_spans_violation(spans, kind)
        kwargs = {}
        if kind == "unsampled":
            kwargs = dict(seed=SEED, sample_rate=1.0, submitted=submitted)
        elif kind == "books":
            kwargs = dict(report=report)
        return validate_spans(corrupted, **kwargs)

    @pytest.mark.parametrize("kind", SEEDABLE_SPANS_VIOLATIONS)
    def test_arm_is_caught(self, kind, traced_run):
        result = self._corrupt_and_validate(kind, traced_run)
        assert not result.ok, f"seeded {kind!r} violation went undetected"
        assert all(v.invariant == "spans" for v in result.violations)

    def test_unknown_kind_raises(self, traced_run):
        _, _, spans, _ = traced_run
        with pytest.raises(InvariantViolation, match="unknown violation"):
            seed_spans_violation(spans, "no-such-kind")

    def test_unseedable_arm_raises(self):
        lone = fleet_style_spans()[:1]  # a root with no children, no wire
        with pytest.raises(InvariantViolation, match="cannot seed"):
            seed_spans_violation(lone, "orphan")
        with pytest.raises(InvariantViolation, match="empty set"):
            seed_spans_violation((), "inverted")


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
        spans = assert_spans_valid(
            tracer.spans(),
            seed=SEED,
            sample_rate=0.3,
            submitted=submitted,
        )
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
        result = validate_spans(
            spans, seed=SEED, sample_rate=1.0, submitted=submitted[:5]
        )
        assert any("recorded but no submitted" in v.message for v in result.violations)
        # claim a larger one: the formula expects traces the run lacks
        result = validate_spans(
            spans,
            seed=SEED,
            sample_rate=1.0,
            submitted=list(submitted) + [10_000_001],
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
        unstitched = validate_spans(survivors)
        assert any("severed" in v.message for v in unstitched.violations)
        # stitch knows shard 0 crashed and stamps the root partial
        restamped = stitch(survivors, crashed=(0,))
        result = validate_spans(restamped)
        assert result.ok, result.summary()
        assert next(
            s for s in restamped if s.parent_id is None
        ).status == "partial"
