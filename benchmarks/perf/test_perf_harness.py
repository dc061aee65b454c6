"""Tests of the benchmark harness itself (run explicitly; not in tier-1 testpaths).

    PYTHONPATH=src PYTHONHASHSEED=0 python -m pytest benchmarks/perf/test_perf_harness.py
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bench
import compare
import drive
import e2e
import render
import stats
import worlds
from oracle import Oracle
from spans import SpanLog

from repro.errors import ParseError
from repro.query.model import Condition, Query
from repro.query.parser import parse_query
from repro.relational import tpcds_like_schema

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


# -- percentiles ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 95.0) == 95
    assert stats.percentile(values, 100.0) == 100
    assert stats.percentile([7.0], 99.0) == 7.0


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.supported(200, 95.0) and not stats.supported(199, 95.0)
    assert stats.supported(1000, 99.0) and not stats.supported(999, 99.0)
    assert stats.highest_supported(700) == 95.0  # scan-heavy's samples per round
    assert stats.highest_supported(19) is None
    assert stats.highest_supported(20) == 50.0
    assert stats.highest_supported(10_000) == 99.9


def test_spread_is_the_interquartile_distance_over_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    s = stats.summarise(values)
    assert (s["q1"], s["value"], s["q3"]) == (10.5, 12.0, 13.5)
    assert stats.spread(values) == pytest.approx(3.0 / 12.0)


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    log = SpanLog()
    root = log.add("root", 0.0, 10.0, query=1)
    log.add("a", 1.0, 4.0, root, 1)
    log.add("b", 3.0, 6.0, root, 1)  # overlaps a: the union is [1, 6]
    log.add("c", 9.0, 12.0, root, 1)  # clipped to the parent: [9, 10]
    grandchild_parent = log.add("d", 6.0, 8.0, root, 1)
    log.add("e", 6.5, 7.0, grandchild_parent, 1)
    own = log.self_times()
    assert own[root] == pytest.approx(10.0 - 5.0 - 1.0 - 2.0)
    assert own[grandchild_parent] == pytest.approx(1.5)
    assert own[1] == 3.0  # a leaf's self time is its duration


# -- the renderer --------------------------------------------------------------


def test_rendered_text_parses_back_to_the_same_conditions():
    hierarchies = tpcds_like_schema(scale=0.5).hierarchies
    query = Query(
        conditions=(
            Condition("date", 2, lo=3, hi=17),
            Condition("store", 2, codes=(4, 9, 11)),
            Condition("item", 2, text_values=("O'Brien Brand", "Plain")),
        ),
        measures=("quantity",),
    )
    text = render.checked(query, hierarchies)
    assert "IN [3, 17)" in text and "IN (4, 9, 11)" in text and "\\'" in text
    assert parse_query(text, hierarchies).conditions == query.conditions
    assert render.render(Query(conditions=(), measures=("quantity",)), {}) == (
        "SELECT sum(quantity)"
    )


def test_a_literal_the_grammar_cannot_carry_is_refused():
    hierarchies = tpcds_like_schema(scale=0.5).hierarchies
    # a backslash before a quote cannot be written in the door's language
    query = Query(
        conditions=(Condition("item", 2, text_values=("back\\'slash",)),),
        measures=("quantity",),
    )
    with pytest.raises((ValueError, ParseError)):
        render.checked(query, hierarchies)


# -- compare -------------------------------------------------------------------


def _runs(**metrics):
    """Three runs whose listed metrics take the given values, the rest 1.0."""
    names = [m["name"] for m in SPEC["end_to_end"]]
    return [
        {name: metrics.get(name, [1.0, 1.0, 1.0])[i] for name in names}
        for i in range(3)
    ]


def _verdicts(parent, change):
    rows = compare.compare({"w": parent}, {"w": change})
    assert len(rows) == len(SPEC["end_to_end"])
    return {r["metric"]: r["verdict"] for r in rows}


def test_compare_verdicts():
    steady = _runs(throughput_qps=[1000.0, 1010.0, 990.0], p50_ms=[2.0, 2.02, 1.98])
    assert set(_verdicts(steady, steady).values()) == {"ok"}

    slower = _runs(throughput_qps=[700.0, 710.0, 690.0], p50_ms=[2.7, 2.75, 2.65])
    verdicts = _verdicts(steady, slower)
    assert verdicts["throughput_qps"] == "regressed"  # -30% against a 20% bound
    assert verdicts["p50_ms"] == "regressed"
    assert verdicts["p95_ms"] == "ok"

    # inside the bound
    assert _verdicts(steady, _runs(throughput_qps=[950.0, 960.0, 940.0]))[
        "throughput_qps"
    ] == "ok"

    # a parent whose own runs spread wider than the bound cannot tell ...
    noisy = _runs(throughput_qps=[700.0, 1000.0, 1300.0])
    assert _verdicts(noisy, steady)["throughput_qps"] == "unresolved"
    # ... unless every run of the change beats every run of the parent
    faster = _runs(throughput_qps=[1400.0, 1410.0, 1390.0])
    assert _verdicts(noisy, faster)["throughput_qps"] == "ok"


def test_compare_exits_nonzero_on_a_regression(tmp_path):
    def write(directory, qps):
        directory.mkdir()
        for i, value in enumerate(qps):
            run = _runs(throughput_qps=[value] * 3)[0]
            (directory / f"e2e-w-{i}.json").write_text(json.dumps({
                "workload": "w", "traced": False, "started_ns": i,
                "metrics": {k: {"value": v} for k, v in run.items()},
            }))

    write(tmp_path / "a", [1000.0, 1005.0, 995.0])
    write(tmp_path / "b", [700.0, 705.0, 695.0])
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1


# -- the oracle and a planted wrong answer -----------------------------------


def test_oracle_agrees_with_the_engine_and_catches_an_off_by_one():
    workload = worlds.WORKLOADS["small-table3"].tiny()
    world = worlds.build_world(workload, seed=5)
    entries = worlds.query_list(world, 40)
    oracle = Oracle(world.dataset.table, world.dataset.vocabularies)
    engine = world.engine().start()
    try:
        target = drive.EngineTarget(engine)
        for entry in entries:
            reply = target.call(0, entry)
            assert reply.status == drive.OK
            assert oracle.matches(reply.answer, entry.query)
            assert not oracle.matches(reply.answer + 1.0, entry.query)
            assert not oracle.matches(None, entry.query)
    finally:
        engine.drain()
    assert any(e.query.needs_translation for e in entries)  # text resolved too


def test_a_planted_wrong_answer_fails_the_run(monkeypatch):
    honest = drive.EngineTarget.call
    calls = {"n": 0}

    def lying(self, client, entry):
        reply = honest(self, client, entry)
        calls["n"] += 1
        if calls["n"] % 50 == 0 and reply.answer is not None:
            reply.answer += 1.0
        return reply

    monkeypatch.setattr(drive.EngineTarget, "call", lying)
    workload = worlds.WORKLOADS["small-table3"].tiny()
    result = e2e.run_end_to_end(workload, seed=3, seconds=1.0, smoke=True)
    assert result["failed"] >= 1
    assert any("wrong" in p for p in result["problems"])
    assert json.loads(bench.final_line(result))["correct"] is False


def test_a_refused_operation_is_a_miss_and_a_failure():
    class Refusing:
        def idle(self, client):
            pass

        def call(self, client, entry):
            return drive.Reply(drive.REJECTED if client else drive.OK, 1.0)

    entry = worlds.Entry(Query(conditions=(), measures=("quantity",)), "x", "")
    (result,) = drive.run_phases(Refusing(), [entry], 0.0, 1, 0.05)
    assert result.failed > 0 and result.attempted > result.failed
    assert result.metrics()["deadline_hit_rate"] < 1.0
    assert len(result.latencies) == result.attempted - result.failed


# -- the command ---------------------------------------------------------------


def _bench(*args, **kwargs):
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        capture_output=True, text=True, timeout=170, env=env, **kwargs,
    )


def _result_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_runs_all_four_workloads_quickly():
    started = time.perf_counter()
    done = _bench("--smoke")
    took = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    results = _result_lines(done.stdout)
    assert len(results) == len(SPEC["workloads"]) == 4
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert took < 25.0, f"--smoke took {took:.1f} s"


@pytest.mark.parametrize("workload", ["small-table3", "hot-ingest"])
def test_traced_smoke_prints_every_per_layer_metric(workload):
    done = _bench("--smoke", "--workload", workload, "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    (result,) = _result_lines(done.stdout)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["correct"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_fleet_run_leaves_no_process_behind(trace):
    # a session of its own: whatever the run started, and whatever those
    # started, carries its id, also once orphaned (a zombie still counts)
    child = subprocess.Popen(
        [sys.executable, str(HERE / "bench.py"), "--smoke", "--workload", "fleet-http",
         "--trace", trace],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"}, start_new_session=True,
    )
    out, _ = child.communicate(timeout=170)
    assert child.returncode == 0, out
    listing = subprocess.run(
        ["ps", "-eo", "sid=,pid=,stat=,args="], capture_output=True, text=True, check=True
    ).stdout
    left = [line for line in listing.splitlines() if line.split()[0] == str(child.pid)]
    assert not left, left


def test_hash_randomisation_is_refused_and_a_missing_program_fails(tmp_path):
    env = {**os.environ, "PYTHONHASHSEED": "random"}
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--smoke"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode != 0 and "PYTHONHASHSEED" in done.stderr

    # a checkout with the benchmark but without src/: no result, non-zero exit
    copy = tmp_path / "benchmarks" / "perf"
    copy.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(copy / "bench.py"), "--workload", "small-table3",
         "--seed", "1", "--seconds", "3", "--trace", "0"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert not _result_lines(done.stdout)
