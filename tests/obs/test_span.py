"""SpanTracer semantics: sampling, context, lifecycle, bounds, stitch.

Everything here drives the tracer directly under a manual clock, so the
tests are pure functions of their inputs — no engine, no threads.
"""

import pytest

from repro.core.stages import Outcome
from repro.obs import (
    SpanTracer,
    format_traceparent,
    head_sampled,
    parse_traceparent,
    stitch,
    trace_id_for,
)


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_tracer(rate=1.0, seed=7, **kwargs):
    clock = ManualClock()
    tracer = SpanTracer(rate, seed=seed, clock=clock, **kwargs)
    return tracer, clock


class TestHeadSampling:
    def test_rate_one_samples_everything(self):
        assert all(head_sampled(7, 1.0, qid) for qid in range(200))

    def test_rate_zero_samples_nothing(self):
        assert not any(head_sampled(7, 0.0, qid) for qid in range(200))

    def test_decision_is_a_pure_function(self):
        first = {qid for qid in range(1000) if head_sampled(7, 0.3, qid)}
        second = {qid for qid in range(1000) if head_sampled(7, 0.3, qid)}
        assert first == second

    def test_rate_is_roughly_proportional(self):
        hits = sum(head_sampled(7, 0.25, qid) for qid in range(2000))
        assert 0.18 * 2000 < hits < 0.32 * 2000

    def test_different_seeds_sample_different_sets(self):
        a = {qid for qid in range(1000) if head_sampled(1, 0.5, qid)}
        b = {qid for qid in range(1000) if head_sampled(2, 0.5, qid)}
        assert a != b

    def test_trace_ids_are_distinct_and_stable(self):
        ids = {trace_id_for(7, qid) for qid in range(1000)}
        assert len(ids) == 1000
        assert trace_id_for(7, 42) == trace_id_for(7, 42)
        assert all(len(t) == 16 for t in ids)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(-0.1)
        with pytest.raises(ValueError):
            SpanTracer(1.5)


class TestTraceparent:
    def test_round_trip(self):
        value = format_traceparent("aa" * 8, "bb" * 8)
        assert parse_traceparent(value) == ("aa" * 8, "bb" * 8, True)

    def test_unsampled_flag(self):
        value = format_traceparent("aa" * 8, "bb" * 8, sampled=False)
        assert parse_traceparent(value)[2] is False

    @pytest.mark.parametrize(
        "bad", ["", "xx", "01-aa-bb-01", "00-aa-01", "00--bb-01", "00-aa--01"]
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(ValueError):
            parse_traceparent(bad)


class TestLifecycle:
    def test_open_record_close_builds_one_tree(self):
        tracer, clock = make_tracer()
        root_id = tracer.open(1, "serve.query", query_class="small")
        clock.t = 2.0
        tracer.record(1, "pool.service", 1.0, 2.0, track="Q_CPU", pool="Q_CPU")
        tracer.annotate(1, target="Q_CPU")
        tracer.close(1, met_deadline=True)
        spans = tracer.spans()
        assert [s.name for s in spans] == ["pool.service", "serve.query"]
        child, root = spans
        assert root.span_id == root_id and root.parent_id is None
        assert child.parent_id == root_id
        assert child.trace_id == root.trace_id == trace_id_for(7, 1)
        assert root.attributes == {
            "query_class": "small",
            "target": "Q_CPU",
            "met_deadline": True,
        }
        assert (root.start, root.end) == (0.0, 2.0)

    def test_unsampled_query_records_nothing(self):
        tracer, _ = make_tracer(rate=0.0)
        assert tracer.open(1, "serve.query") is None
        assert tracer.record(1, "pool.service", 0.0, 1.0) is None
        assert tracer.close(1) is None
        assert len(tracer) == 0 and tracer.sampled_count == 0

    def test_close_is_idempotent(self):
        tracer, _ = make_tracer()
        tracer.open(1, "serve.query")
        assert tracer.close(1) is not None
        assert tracer.close(1) is None
        assert len(tracer) == 1

    def test_resubmitted_id_keeps_the_first_root(self):
        tracer, _ = make_tracer()
        first = tracer.open(1, "serve.query")
        assert tracer.open(1, "serve.query") == first
        tracer.close(1)
        assert len(tracer) == 1

    def test_close_all_abandons_open_roots(self):
        tracer, clock = make_tracer()
        tracer.open(1, "serve.query")
        tracer.open(2, "serve.query")
        tracer.close(1)
        clock.t = 5.0
        assert tracer.close_all(status=Outcome.ABANDONED.value) == 1
        statuses = {s.query_id: s.status for s in tracer.spans()}
        assert statuses == {1: "ok", 2: "abandoned"}
        assert tracer.open_count() == 0

    def test_a_close_drops_an_adoption_that_never_opened(self):
        """A shard adopts the frame's context before its engine decides;
        a query shed there is closed unopened, and the adoption must not
        outlive that close (the next open samples by its own rate)."""
        tracer, _ = make_tracer(rate=0.0)
        tracer.adopt(1, format_traceparent("aa" * 8, "bb" * 8))
        assert tracer.close(1, status=Outcome.REJECTED.value) is None
        assert tracer.open(1, "serve.query") is None
        assert len(tracer) == 0 and tracer.open_count() == 0

    def test_buffer_bound_counts_drops(self):
        tracer, _ = make_tracer(max_spans=2)
        tracer.open(1, "serve.query")
        for i in range(4):
            tracer.record(1, "stage", float(i), float(i))
        tracer.close(1)
        assert len(tracer) == 2
        # the open root holds one slot in reserve: the second stage span
        # fills the buffer, so three are refused and the root still fits
        assert tracer.dropped == 3
        assert {s.name for s in tracer.spans()} == {"stage", "serve.query"}

    def test_drain_pops_the_buffer(self):
        tracer, _ = make_tracer()
        tracer.open(1, "serve.query")
        tracer.close(1)
        assert len(tracer.drain()) == 1
        assert len(tracer) == 0

    def test_identically_clocked_runs_produce_identical_buffers(self):
        def run():
            tracer, clock = make_tracer()
            for qid in range(5):
                tracer.open(qid, "serve.query", start=float(qid))
                tracer.record(qid, "pool.service", qid + 0.1, qid + 0.5)
                tracer.close(qid, end=qid + 1.0)
            return [s.to_dict() for s in tracer.spans()]

        assert run() == run()


class TestAdoption:
    def test_adopted_context_overrides_sampling(self):
        upstream, _ = make_tracer(seed=7, process="frontdoor")
        root_id = upstream.open(1, "frontdoor.request")
        # rate 0: the shard would never sample on its own
        shard, _ = make_tracer(rate=0.0, seed=7, process="shard-0")
        shard.adopt(1, upstream.traceparent(1))
        child_root = shard.open(1, "serve.query")
        assert child_root is not None
        shard.close(1)
        (span,) = shard.spans()
        assert span.trace_id == trace_id_for(7, 1)
        assert span.parent_id == root_id
        assert span.process == "shard-0"

    def test_unsampled_traceparent_is_ignored(self):
        shard, _ = make_tracer(rate=0.0)
        shard.adopt(1, format_traceparent("aa" * 8, "bb" * 8, sampled=False))
        assert shard.open(1, "serve.query") is None

    def test_traceparent_is_none_without_an_open_root(self):
        tracer, _ = make_tracer(rate=0.0)
        tracer.open(1, "serve.query")
        assert tracer.traceparent(1) is None
        assert tracer.context(1) is None


class TestStitch:
    def _fleet_spans(self):
        front, _ = make_tracer(process="frontdoor")
        front.open(1, "frontdoor.request")
        front.record(1, "wire.roundtrip", 0.0, 1.0, shard=3)
        shard, _ = make_tracer(process="shard-3")
        shard.adopt(1, front.traceparent(1))
        shard.open(1, "serve.query")
        shard.close(1)
        front.close(1)
        return front.drain() + shard.drain()

    def test_merges_and_orders_deterministically(self):
        merged = stitch(self._fleet_spans())
        assert [s.process for s in merged] == [
            "frontdoor",
            "frontdoor",
            "shard-3",
        ]
        root = next(s for s in merged if s.parent_id is None)
        assert root.status == "ok"

    def test_crashed_shard_restamps_the_root_partial(self):
        merged = stitch(self._fleet_spans(), crashed=(3,))
        root = next(s for s in merged if s.parent_id is None)
        assert root.status == "partial"
        # non-root spans keep their own status
        assert all(
            s.status == "ok" for s in merged if s.parent_id is not None
        )

    def test_unrelated_crash_leaves_the_trace_alone(self):
        merged = stitch(self._fleet_spans(), crashed=(9,))
        root = next(s for s in merged if s.parent_id is None)
        assert root.status == "ok"
