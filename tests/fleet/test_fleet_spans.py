"""Distributed traces across the fleet: one stitched tree per query.

The tentpole acceptance test lives here: a sampled query submitted
through the front door yields a single trace whose root opens in the
frontdoor process and whose pool.service leaf runs inside a shard
subprocess — two processes, one trace_id, parent links intact.
"""

import json
import urllib.request
from dataclasses import replace

import pytest

from repro.fleet import Fleet, FleetServer, ShardSpec
from repro.obs import SpanTracer
from repro.query.model import Condition, Query
from repro.sim import assert_fleet_valid, assert_valid, validate_fleet


def traced_spec():
    return ShardSpec(shard_id=0, rows=600, cpu_threads=1, span_sample=1.0)


def shape(hi, agg="sum"):
    return Query(
        conditions=(Condition("date", 1, lo=0, hi=hi),),
        measures=("sales_price",),
        agg=agg,
    )


def make_fleet(num_shards=2, spec=None):
    spec = spec if spec is not None else traced_spec()
    # same seed on both sides of the wire: the shard's own head-sampling
    # agrees with the front door's even before adoption kicks in
    tracer = SpanTracer(spec.span_sample, seed=spec.seed, process="frontdoor")
    return Fleet(num_shards=num_shards, spec=spec, spans=tracer)


def post_json(url, payload, timeout=60):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.load(response)


@pytest.mark.wallclock
class TestFleetSpans:
    def test_one_query_one_tree_spanning_two_processes(self):
        with make_fleet() as fleet:
            answer = fleet.submit(shape(3), "small")
            assert answer.accepted
            report = fleet.fleet_report(drain=True)

        # one call audits the merged books and the stitched trees
        assert validate_fleet(report).checked == ("fleet", "spans")
        assert_fleet_valid(report)
        spans = report.spans
        assert spans, "a fully-sampled fleet run must ship spans home"
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span.trace_id, []).append(span)
        (members,) = by_trace.values()
        root = next(s for s in members if s.parent_id is None)
        assert root.name == "frontdoor.request"
        assert root.process == "frontdoor"
        assert root.status == "ok"
        # the acceptance criterion: a shard-side service leaf shares the
        # trace and hangs off the frontdoor tree via the wire hop
        service = next(s for s in members if s.name == "pool.service")
        assert service.process.startswith("shard-")
        assert len({s.process for s in members}) >= 2
        names = {s.name for s in members}
        assert {"fleet.route", "wire.roundtrip", "serve.query"} <= names
        wire = next(s for s in members if s.name == "wire.roundtrip")
        assert wire.process == "frontdoor"
        assert wire.attributes["shard"] == service.attributes.get(
            "shard", int(service.process.split("-", 1)[1])
        )

    def test_http_and_direct_submissions_both_trace(self):
        with make_fleet() as fleet:
            with FleetServer(fleet) as server:
                status, answer = post_json(
                    server.url + "/query",
                    {
                        "q": "SELECT sum(sales_price) "
                        "WHERE date.year IN [0, 2)",
                        "class": "small",
                    },
                )
                assert status == 200 and answer["accepted"]
            for hi in (2, 4, 5):
                assert fleet.submit(shape(hi), "small").accepted
            report = fleet.fleet_report(drain=True)

        assert_fleet_valid(report)
        spans = report.spans
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 4
        assert all(r.name == "frontdoor.request" for r in roots)
        assert all(r.status == "ok" for r in roots)
        # the HTTP-submitted root carries the handler's class annotation
        assert any(
            r.attributes.get("query_class") == "small" for r in roots
        )
        multi = [
            t
            for t in {r.trace_id for r in roots}
            if len({s.process for s in spans if s.trace_id == t}) >= 2
        ]
        assert len(multi) == 4, "every trace must include its shard subtree"

    def test_sampling_is_identical_across_the_wire(self):
        spec = replace(traced_spec(), span_sample=0.5)
        with make_fleet(spec=spec) as fleet:
            queries = [shape(hi) for hi in (2, 3, 4, 5, 6, 7)]
            for query in queries:
                assert fleet.submit(query, "small").accepted
            report = fleet.fleet_report(drain=True)

        assert_fleet_valid(report)
        submitted = [q.query_id for q in queries]
        spans = report.spans
        assert_valid(spans=spans, seed=spec.seed, sample_rate=0.5, submitted=submitted)
        # sampled traces are complete (frontdoor + shard), unsampled
        # ones are absent entirely — never a half-traced query
        for trace_id in {s.trace_id for s in spans}:
            members = [s for s in spans if s.trace_id == trace_id]
            assert len({s.process for s in members}) >= 2

    def test_crashed_shard_flags_partial_trees(self):
        with make_fleet() as fleet:
            owners = {}
            for hi in (2, 3, 4, 5):
                owners[hi] = fleet.submit(shape(hi), "small").shard_id
            victim = fleet.alive[0]
            assert any(owner == victim for owner in owners.values())
            fleet._shards[victim].process.kill()
            fleet._shards[victim].process.join(timeout=30)
            assert fleet.check() == (victim,)
            report = fleet.fleet_report(drain=True)

        assert report.crashed == (victim,)
        spans = report.spans
        assert_valid(spans=spans)
        roots = {
            s.query_id: s for s in spans if s.parent_id is None
        }
        assert len(roots) == 4
        # the dead shard's subtrees are gone, but their traces are
        # flagged partial rather than dropped or left claiming "ok"
        for span in spans:
            if span.name != "wire.roundtrip":
                continue
            root = next(
                s
                for s in spans
                if s.trace_id == span.trace_id and s.parent_id is None
            )
            if span.attributes["shard"] == victim:
                assert root.status == "partial"
            else:
                assert root.status == "ok"
