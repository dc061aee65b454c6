"""The eighth invariant family, on synthetic fleet reports.

No worker processes here: reports are built in-process with hand-fed
registries, so each reconciliation can be broken surgically and the
checker proven to catch exactly that break.
"""

from dataclasses import replace

import pytest

from repro.errors import InvariantViolation
from repro.fleet.fleet import Fleet, FleetReport, ShardReport
from repro.metrics import MetricsRegistry, merge_snapshots
from repro.sim import (
    SEEDABLE_VIOLATIONS,
    assert_fleet_valid,
    seed_violation,
    validate_fleet,
)
from repro.sim.metrics import QueryRecord


def record(query_id, target="Q_CPU"):
    return QueryRecord(
        query_id=query_id,
        query_class="small",
        target=target,
        submit_time=0.0,
        finish_time=0.01,
        deadline=0.5,
        estimated_time=0.005,
        measured_time=0.01,
        translated=False,
        answer=1.0,
    )


def shard_report(shard_id, n_records, cache_hits=0, target="Q_CPU"):
    """A shard whose snapshot exactly matches its records, as a real
    worker's does after a drained run."""
    registry = MetricsRegistry()
    submitted = registry.counter("repro_queries_submitted_total", "")
    completed = registry.counter(
        "repro_queries_completed_total", "", labels=("target",)
    )
    latency = registry.histogram(
        "repro_query_latency_seconds", "", labels=("target",)
    )
    records = []
    for i in range(n_records):
        submitted.inc()
        completed.inc(target=target)
        latency.observe(0.01, target=target)
        records.append(record(query_id=shard_id * 1000 + i, target=target))
    hits = tuple(
        record(query_id=shard_id * 1000 + 500 + i, target="ROLLUP_CACHE")
        for i in range(cache_hits)
    )
    return ShardReport(
        shard_id=shard_id,
        records=tuple(records),
        cache_hits=hits,
        rejected=0,
        errors=0,
        elapsed=1.0,
        snapshot=registry.collect(1.0),
        validation="ok (synthetic)",
    )


@pytest.fixture
def healthy():
    shards = (shard_report(0, 3), shard_report(1, 5, cache_hits=2))
    return FleetReport(
        shards=shards,
        crashed=(),
        routed={0: 3, 1: 7},  # shard 1: 5 scheduler-offered + 2 cache hits
        failed={0: 0, 1: 0},
        merged=merge_snapshots([s.snapshot for s in shards]),
    )


class TestValidateFleet:
    def test_healthy_fleet_passes(self, healthy):
        result = validate_fleet(healthy)
        assert result.ok, result.summary()
        assert result.checked == ("fleet",)
        assert assert_fleet_valid(healthy) is healthy

    @pytest.mark.parametrize("kind", SEEDABLE_VIOLATIONS["fleet"])
    def test_each_seeded_violation_caught(self, healthy, kind):
        corrupted = seed_violation(healthy, kind)
        result = validate_fleet(corrupted)
        assert not result.ok, f"seeded {kind} violation slipped through"
        assert all(v.invariant == "fleet" for v in result.violations)
        with pytest.raises(InvariantViolation):
            assert_fleet_valid(corrupted)

    def test_unknown_seed_kind_rejected(self, healthy):
        with pytest.raises(InvariantViolation, match="unknown violation"):
            seed_violation(healthy, "no-such-kind")

    def test_live_and_crashed_overlap_flagged(self, healthy):
        result = validate_fleet(replace(healthy, crashed=(0,)))
        assert any("both live and crashed" in v.message for v in result.violations)

    def test_failed_requests_relax_only_the_routing_check(self, healthy):
        # shard 1 lost a request in transit: routed 8, received 7
        bad_books = replace(
            healthy, routed={0: 3, 1: 8}, failed={0: 0, 1: 1}
        )
        assert validate_fleet(bad_books).ok
        # ...but with failed == 0 the same mismatch is a violation
        strict = replace(healthy, routed={0: 3, 1: 8})
        result = validate_fleet(strict)
        assert any("front door routed" in v.message for v in result.violations)

    def test_failing_local_audit_flagged(self, healthy):
        tainted = replace(
            healthy,
            shards=(
                replace(healthy.shards[0], validation="conservation: 1 lost job"),
            )
            + healthy.shards[1:],
        )
        result = validate_fleet(tainted)
        assert any("local audit failed" in v.message for v in result.violations)

    def test_crashed_shard_contributes_only_routing_books(self, healthy):
        # shard 1 crashed before shutdown: its report is gone, its routed
        # count remains — a partial fleet must still reconcile
        partial = FleetReport(
            shards=healthy.shards[:1],
            crashed=(1,),
            routed=healthy.routed,
            failed={0: 0, 1: 4},
            merged=merge_snapshots([healthy.shards[0].snapshot]),
        )
        assert validate_fleet(partial).ok

    def test_merged_histogram_undercount_flagged(self, healthy):
        # drop one latency observation from the merged view only
        merged = healthy.merged
        fam = merged.family("repro_query_latency_seconds")
        (key,) = [k for k, _ in fam.items() if k == ("Q_CPU",)]
        hist = fam.samples[key]
        first_full = next(i for i, c in enumerate(hist.counts) if c > 0)
        smaller = replace(
            hist,
            count=hist.count - 1,
            counts=tuple(
                c - 1 if i == first_full else c
                for i, c in enumerate(hist.counts)
            ),
        )
        broken = replace(
            merged,
            families=tuple(
                replace(f, samples={**f.samples, key: smaller})
                if f.name == "repro_query_latency_seconds"
                else f
                for f in merged.families
            ),
        )
        result = validate_fleet(replace(healthy, merged=broken))
        assert any(
            "repro_query_latency_seconds" == v.queue for v in result.violations
        )


def test_the_front_door_books_are_its_counters():
    """``Fleet.books()`` (read by ``FleetReport.routed`` / ``failed`` and
    the door's ``/report``) is the ``repro_fleet_*_total`` counters: every
    shard id, 0 when never routed.  No shard is spawned."""
    fleet = Fleet(3)
    routed = fleet.registry.get("repro_fleet_routed_total")
    routed.inc(shard="1")
    routed.inc(shard="1")
    fleet.registry.get("repro_fleet_failed_total").inc(shard="2")
    assert fleet.books() == ({0: 0, 1: 2, 2: 0}, {0: 0, 1: 0, 2: 1})
