"""End-to-end fleet tests: real worker processes, real sockets, real HTTP.

These spawn actual shard subprocesses, so they are wall-clock tests by
nature; the worlds are kept tiny (600-row replicas, 1 CPU thread per
shard) to bound the spawn cost.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import FleetError
from repro.fleet import Fleet, FleetServer, ShardSpec
from repro.query.model import Condition, Query
from repro.sim import assert_fleet_valid


def tiny_spec():
    return ShardSpec(shard_id=0, rows=600, cpu_threads=1)


def shape(hi, agg="sum"):
    return Query(
        conditions=(Condition("date", 1, lo=0, hi=hi),),
        measures=("sales_price",),
        agg=agg,
    )


def get_json(url, timeout=15):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.load(response)


def post_json(url, payload, timeout=60):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.load(response)


@pytest.mark.wallclock
class TestFleetEndToEnd:
    def test_two_shards_serve_merge_and_reconcile(self):
        with Fleet(num_shards=2, spec=tiny_spec()) as fleet:
            assert fleet.alive == (0, 1)
            assert all(p["ok"] for p in fleet.ping().values())

            # replicas answer identically: the same shape routed twice
            # lands on the same shard (affinity) with the same answer
            first = fleet.submit(shape(3), "small")
            second = fleet.submit(shape(3), "small")
            assert first.shard_id == second.shard_id
            assert first.record.answer == second.record.answer

            # spread some distinct shapes across the ring
            owners = set()
            for hi in (2, 4, 5, 6):
                answer = fleet.submit(shape(hi), "small")
                assert answer.accepted
                owners.add(answer.shard_id)

            # rollup affinity pays off: repeat a shape until the shard's
            # admission policy wants it, materialise, then hit the cache
            for _ in range(3):
                fleet.submit(shape(4, agg="avg"), "small")
            assert fleet.maintain() >= 1
            hit = fleet.submit(shape(4, agg="avg"), "small")
            assert hit.cache_hit

            merged = fleet.merged_metrics()
            assert merged.family("repro_fleet_routed_total") is not None
            assert merged.family("repro_queries_submitted_total") is not None

            report = fleet.fleet_report(drain=True)

        assert_fleet_valid(report)
        assert report.crashed == ()
        assert sum(report.routed.values()) == 10
        assert report.completed + report.cache_hits == 10
        assert report.cache_hits >= 1
        assert {s.shard_id for s in report.shards} == {0, 1}
        for shard in report.shards:
            assert shard.validation.startswith("ok")

    def test_http_front_door(self):
        with Fleet(num_shards=2, spec=tiny_spec()) as fleet:
            with FleetServer(fleet) as server:
                status, health = get_json(server.url + "/health")
                assert status == 200 and health["ok"]
                assert health["alive"] == [0, 1]

                status, answer = post_json(
                    server.url + "/query",
                    {
                        "q": "SELECT sum(sales_price) WHERE date.year IN [0, 2)",
                        "class": "small",
                    },
                )
                assert status == 200 and answer["ok"] and answer["accepted"]
                assert answer["record"]["answer"] is not None

                # malformed body and unparseable query are 400s, not 500s
                with pytest.raises(urllib.error.HTTPError) as err:
                    post_json(server.url + "/query", {"nope": 1})
                assert err.value.code == 400
                with pytest.raises(urllib.error.HTTPError) as err:
                    post_json(server.url + "/query", {"q": "SELECT ???"})
                assert err.value.code == 400

                with urllib.request.urlopen(
                    server.url + "/metrics", timeout=30
                ) as response:
                    text = response.read().decode()
                assert "repro_fleet_routed_total" in text
                assert "repro_queries_submitted_total" in text
                assert "repro_fleet_request_seconds_bucket" in text

                status, live = get_json(server.url + "/report")
                assert status == 200 and live["crashed"] == []
                # every shard id, 0 when never routed: one query so far
                assert set(live["routed"]) == {"0", "1"}
                assert sum(live["routed"].values()) == 1
                assert live["failed"] == {"0": 0, "1": 0}

            report = fleet.fleet_report(drain=True)
        assert_fleet_valid(report)
        assert report.completed == 1

    def test_crashed_shard_detected_and_routed_around(self):
        with Fleet(num_shards=2, spec=tiny_spec()) as fleet:
            server = FleetServer(fleet).start()
            try:
                baseline = {
                    hi: fleet.submit(shape(hi), "small").shard_id
                    for hi in (2, 3, 4, 5)
                }
                victim = fleet.alive[0]
                fleet._shards[victim].process.kill()
                fleet._shards[victim].process.join(timeout=30)

                assert fleet.check() == (victim,)
                assert fleet.alive == tuple(
                    s for s in (0, 1) if s != victim
                )

                # health goes degraded, but routing carries on: the dead
                # shard's keys move, the survivor's keys stay put
                with pytest.raises(urllib.error.HTTPError) as err:
                    get_json(server.url + "/health")
                assert err.value.code == 503
                for hi, owner in baseline.items():
                    answer = fleet.submit(shape(hi), "small")
                    assert answer.shard_id != victim
                    if owner != victim:
                        assert answer.shard_id == owner
            finally:
                server.close()
            report = fleet.fleet_report(drain=True)

        assert report.crashed == (victim,)
        assert len(report.shards) == 1
        assert report.shards[0].shard_id != victim
        assert_fleet_valid(report)

    def test_submit_with_no_live_shards_raises(self):
        with Fleet(num_shards=1, spec=tiny_spec()) as fleet:
            fleet._shards[0].process.kill()
            fleet._shards[0].process.join(timeout=30)
            fleet.check()
            with pytest.raises(FleetError):
                fleet.submit(shape(3), "small")
