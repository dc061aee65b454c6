"""The end-to-end run of one workload: set-ups, closed loop, verification, audit."""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.fleet import Fleet, FleetServer
from repro.query.model import Query
from repro.sim import assert_fleet_valid
from repro.sim.validate import assert_valid

import drive
import render
import stats
import worlds
from oracle import Oracle

ROUND_SECONDS = 3.0
AUDITED_HITS = 4000
MIN_SETUP_MEASURED = 1.0
SETUP_TIMEOUT = 120.0


@dataclass(frozen=True)
class Plan:
    """What surrounds the timed rounds of one run."""

    list_length: int = worlds.LIST_LENGTH
    verify: int = 300
    warmup: float = 2.0
    setups: int = 3
    #: spin until the host's speed reading is steady before measuring
    settle: bool = True


FULL = Plan()
SMOKE = Plan(list_length=400, verify=60, warmup=0.3, setups=1, settle=False)


# -- sessions: a built system plus the target the clients call --------------


class EngineSession:
    """World + started engine, timed up to the first answered query."""

    def __init__(self, workload, seed: int):
        self.world = worlds.build_world(workload, seed)
        self.engine = self.world.engine().start()
        self.target = drive.EngineTarget(self.engine)
        _probe(self.target, workload)

    def audit(self) -> None:
        self.engine.drain()
        report = self.engine.report()
        # the pool books are audited in full; the rollup family's duplicate
        # check is quadratic in the hit count (38 s for 68 000 hits), so it
        # sees the newest AUDITED_HITS only
        hits = report.cache_hits[-AUDITED_HITS:]
        assert_valid(replace(report, cache_hits=hits), require_drained=True)

    def close(self) -> None:
        self.engine.stop(finish_queued=False)


class FleetSession:
    """Two shard processes + the HTTP door, timed up to the first answered POST."""

    def __init__(self, workload, seed: int):
        self._workload, self._seed = workload, seed
        self.fleet = Fleet(num_shards=2, spec=worlds.shard_spec(workload, seed))
        self.door = None
        self.target = None
        try:
            self.fleet.start()
            self.door = FleetServer(self.fleet, port=0).start()
            self.target = drive.HttpTarget(self.door.host, self.door.port)
            _probe(self.target, workload)
        except BaseException:
            self.close()
            raise

    @cached_property
    def world(self):
        """The shards' data, rebuilt here for the oracle (not part of set-up)."""
        return worlds.build_world(self._workload, self._seed)

    def audit(self) -> None:
        assert_fleet_valid(self.fleet.fleet_report())

    def close(self) -> None:
        if self.target is not None:
            self.target.close()
        if self.door is not None:
            self.door.close()
        self.fleet.stop()


def _probe(target, workload) -> None:
    """The first answered query: the grand total, which any set-up can answer."""
    query = Query(conditions=(), measures=(workload.measure,))
    reply = target.call(0, worlds.Entry(query, "probe", render.render(query, {})))
    if reply.status != drive.OK:
        raise RuntimeError(f"set-up probe was not answered: {reply.status}")


def open_session(workload, seed: int):
    return (FleetSession if workload.fleet else EngineSession)(workload, seed)


def setups(workload, seed: int, count: int) -> list[float]:
    """Seconds to bring the system up and answer a first query, `count` times.

    More often (up to 3 x `count`) while less than MIN_SETUP_MEASURED
    seconds have been measured: the small world sets up in 0.05 s, and
    three such readings spread 47 % between runs.

    This guest reports freed pages back to its host every 2 s, and
    touching a reported page again costs a host fault: the same
    `scan-heavy` set-up took 0.53 or 0.85-1.19 s depending on when
    memory was last freed.  Touching more memory than the build needs,
    immediately before it, makes five of six set-ups the 0.53 s kind (the
    median of three absorbs the sixth).  The shards build in processes
    of their own, so a fleet's set-up touches nothing here.
    """
    touch_bytes = 0 if workload.fleet else int(2.5 * worlds.world_bytes(workload))
    seconds: list[float] = []
    while len(seconds) < count or (
        count > 1 and sum(seconds) < MIN_SETUP_MEASURED and len(seconds) < 3 * count
    ):
        gc.collect()
        np.ones(touch_bytes // 8)
        start = time.perf_counter()
        session = open_session(workload, seed)
        seconds.append(time.perf_counter() - start)
        session.close()
    return seconds


def timed_setups(workload, seed: int, smoke: bool) -> list[float]:
    """`setups` in a process of its own, so that this one's peak RSS stays the run's."""
    command = [
        sys.executable, str(Path(__file__).with_name("bench.py")), "setup",
        "--workload", workload.name, "--seed", str(seed),
    ] + (["--smoke"] if smoke else [])
    # a group of its own, so that a set-up that hangs takes its shards with it
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, process_group=0
    )
    try:
        out, err = child.communicate(timeout=SETUP_TIMEOUT)
    except BaseException:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"set-up process failed: {err[-500:]}")
    return json.loads(out.splitlines()[-1])


# -- the end-to-end run ------------------------------------------------------


def run_end_to_end(workload, seed: int, seconds: float, smoke: bool) -> dict:
    plan = SMOKE if smoke else FULL
    rounds = max(1, int(seconds // ROUND_SECONDS))
    round_seconds = min(ROUND_SECONDS, seconds)
    ref_before = drive.settle_host() if plan.settle else drive.host_ref_ms()

    session = open_session(workload, seed)
    problems: list[str] = []
    try:
        setup_seconds = timed_setups(workload, seed, smoke)
        world = session.world
        entries = worlds.query_list(world, plan.list_length)
        oracle = Oracle(
            world.dataset.table,
            world.dataset.vocabularies,
            exact=workload.measure == "quantity",
        )
        target = session.target
        if workload.ingest_rows:
            timed = plan.warmup + rounds * round_seconds
            slots = int(timed / worlds.INGEST_EVERY) + 2
            target = drive.IngestingTarget(
                session.engine,
                world,
                worlds.ingest_batches(world, slots, workload.ingest_rows),
                oracle,
            )

        results = drive.run_phases(target, entries, plan.warmup, rounds, round_seconds)

        if workload.ingest_rows:
            target.writing = False
        wrong = 0
        verify = entries[:plan.verify]
        for entry in verify:
            reply = target.call(0, entry)
            # the device keeps the table it was loaded with; ingest maintains
            # cubes only, so a GPU-served answer is checked against base rows
            base_only = reply.target.startswith("Q_G")
            if reply.status != drive.OK or not oracle.matches(
                reply.answer, entry.query, base_only
            ):
                wrong += 1
        if wrong:
            problems.append(f"{wrong} of {len(verify)} verified answers were wrong")

        rss = drive.peak_rss_mb()
        try:
            session.audit()
        except Exception as exc:  # noqa: BLE001 - any audit failure fails the run
            problems.append(f"audit: {type(exc).__name__}: {str(exc)[:300]}")
    finally:
        session.close()

    attempted = sum(r.attempted for r in results) + len(verify)
    failed = sum(r.failed for r in results) + wrong
    if failed > wrong:
        problems.append(f"{failed - wrong} operations failed or were refused")

    per_round = [r.metrics() for r in results]
    metrics = {
        "setup_s": {"unit": "s", **stats.summarise(setup_seconds)},
        "throughput_qps": {"unit": "q/s"},
        "cpu_ms_per_query": {"unit": "ms"},
        "p50_ms": {"unit": "ms"},
        "p95_ms": {"unit": "ms"},
        "deadline_hit_rate": {"unit": "share"},
    }
    for name, slot in metrics.items():
        if name != "setup_s":
            slot.update(stats.summarise([m[name] for m in per_round]))
    metrics["ok_share"] = {
        "unit": "share", "value": 1.0 - failed / attempted, "n": attempted,
    }
    metrics["peak_rss_mb"] = {"unit": "MB", "value": rss, "n": 1}

    samples = [len(r.latencies) for r in results]
    notes = [
        f"closed loop, {worlds.CLIENTS} clients, {rounds} rounds x {round_seconds:g} s, "
        f"samples per round {min(samples)}-{max(samples)}",
        f"host.ref_ms before {ref_before:.1f} after {drive.host_ref_ms():.1f}",
    ]
    highest = stats.highest_supported(min(samples))
    notes.append(
        f"highest percentile with >= {stats.MIN_BEYOND} samples beyond it in every "
        f"round: {f'p{highest:g}' if highest else 'none'}"
        + ("" if highest and highest >= 95.0 else " (p95_ms is not supported)")
    )
    if workload.ingest_rows:
        took = sorted(target.ingest_seconds)
        notes.append(
            f"{len(took)} ingests, median {1e3 * stats.percentile(took, 50.0):.1f} ms"
            if took else "0 ingests"
        )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": notes,
    }
