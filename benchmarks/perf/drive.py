"""The closed loop: two clients, no think time, timed from outside.

A *target* is what a client calls: the in-process engine, the same
engine with client 0 doubling as the ingest writer, or the HTTP door.
`run_phases` drives one target through a warm-up and N timed rounds and
returns one `Round` per timed round; nothing here reads engine
internals, so the numbers are what a caller of the public API sees.
"""

from __future__ import annotations

import gc
import http.client
import json
import multiprocessing
import os
import resource
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError

import stats
from worlds import CLIENTS, INGEST_EVERY, TIME_CONSTRAINT, Entry, fresh

OK, REJECTED, ERROR = "ok", "rejected", "error"
#: no operation may take longer; one that does is an error, not a hang
CALL_TIMEOUT = 30.0


@dataclass
class Reply:
    status: str
    answer: float | None = None
    #: the partition that answered (the oracle needs it on `hot-ingest`)
    target: str = ""


class EngineTarget:
    """`ServeEngine.submit` + `Ticket.wait`, one fresh query id per call."""

    def __init__(self, engine):
        self.engine = engine

    def idle(self, client: int) -> None:
        pass

    def call(self, client: int, entry: Entry) -> Reply:
        query = fresh(entry.query)
        try:
            outcome = self.engine.submit(query, entry.query_class, timeout=CALL_TIMEOUT)
        except ReproError:
            return Reply(ERROR)
        if not outcome.accepted:
            return Reply(REJECTED)
        ticket = outcome.ticket
        if not ticket.wait(timeout=CALL_TIMEOUT) or ticket.error is not None:
            return Reply(ERROR)
        return Reply(OK, ticket.record.answer, ticket.record.target)


class IngestingTarget(EngineTarget):
    """`EngineTarget` whose client 0 is also the writer.

    Every INGEST_EVERY seconds of wall time client 0 folds the next batch
    into the pyramid and the rollup catalog before its next query; a
    slot it is too late for is skipped, never made up.
    """

    def __init__(self, engine, world, batches, oracle):
        super().__init__(engine)
        self._pyramid = world.config.pyramid
        self._catalog = world.catalog
        self._batches = iter(batches)
        self._oracle = oracle
        self._due = time.perf_counter() + INGEST_EVERY
        self.writing = True
        self.ingest_seconds: list[float] = []

    def idle(self, client: int) -> None:
        if client != 0 or not self.writing:
            return
        now = time.perf_counter()
        if now < self._due:
            return
        batch = next(self._batches, None)
        if batch is None:
            return
        self._pyramid.ingest(batch)
        self._catalog.ingest(batch)
        self._oracle.add_rows(batch)
        done = time.perf_counter()
        self.ingest_seconds.append(done - now)
        while self._due <= done:
            self._due += INGEST_EVERY


class HttpTarget:
    """POST /query on the fleet's front door, one `http.client` connection per client."""

    def __init__(self, host: str, port: int):
        self._conns = [
            http.client.HTTPConnection(host, port, timeout=CALL_TIMEOUT)
            for _ in range(CLIENTS)
        ]
        self.connects = 0
        self.requests = 0

    def idle(self, client: int) -> None:
        pass

    def call(self, client: int, entry: Entry) -> Reply:
        conn = self._conns[client]
        body = json.dumps({"q": entry.text, "class": entry.query_class})
        try:
            if conn.sock is None:
                self.connects += 1
            self.requests += 1
            conn.request(
                "POST", "/query", body, {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            return Reply(ERROR)
        if response.status != 200:
            return Reply(ERROR)
        reply = json.loads(payload)
        if not reply.get("accepted"):
            return Reply(REJECTED)
        record = reply["record"]
        return Reply(OK, record["answer"], record["target"])

    def close(self) -> None:
        for conn in self._conns:
            conn.close()


@dataclass
class Round:
    wall: float = 0.0
    cpu: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    in_deadline: int = 0

    def metrics(self) -> dict[str, float]:
        ordered = sorted(self.latencies)
        return {
            "throughput_qps": len(ordered) / self.wall,
            "cpu_ms_per_query": 1e3 * self.cpu / max(len(ordered), 1),
            "p50_ms": 1e3 * stats.percentile(ordered, 50.0),
            "p95_ms": 1e3 * stats.percentile(ordered, 95.0),
            "deadline_hit_rate": self.in_deadline / self.attempted,
        }


def children_cpu_seconds() -> float:
    """utime + stime of live child processes (the shards), from /proc."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def cpu_seconds() -> float:
    return time.process_time() + children_cpu_seconds()


def peak_rss_mb() -> float:
    """This process's high-water RSS plus that of its live children."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def host_ref_ms() -> float:
    """A fixed two-thread Python + numpy spin; it reads high when the host is busy."""
    def spin() -> None:
        block = np.arange(200_000, dtype=np.float64)
        scratch = np.empty_like(block)
        for _ in range(300):
            np.sqrt(block, out=scratch).sum()
            sum(range(2000))

    threads = [threading.Thread(target=spin) for _ in range(2)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return 1e3 * (time.perf_counter() - start)


def settle_host() -> float:
    """Spin for 1.2 s or more, until two successive readings agree (20 at most).

    Returns the last reading.

    After a minute of idleness this host gives the process one core for
    about its first second of load (readings of 190, 190, 190, 190, 180,
    115, 100, 100 ms), which would land on `setup_s`.  A busy neighbour,
    by contrast, does not go away by waiting and stays visible in the
    before/after readings.
    """
    started = time.perf_counter()
    readings = [host_ref_ms()]
    while len(readings) < 20:
        readings.append(host_ref_ms())
        steady = abs(readings[-1] - readings[-2]) <= 0.1 * readings[-2]
        if steady and time.perf_counter() - started >= 1.2:
            break
    return readings[-1]


def run_phases(
    target, entries: list[Entry], warmup: float, rounds: int, round_seconds: float
) -> list[Round]:
    """Warm up, then run `rounds` timed rounds; `gc.collect()` between them.

    Client `i` walks `entries[i::CLIENTS]` and keeps its place across
    phases.  A round's wall time runs from the common start to the last
    client's last answer; an exception in a client fails the whole run.
    """
    durations = [warmup] + [round_seconds] * rounds
    results = [Round() for _ in durations]
    gate = threading.Barrier(CLIENTS + 1)
    ends = [0.0] * CLIENTS
    crashed: list[BaseException] = []
    lock = threading.Lock()

    def client(index: int) -> None:
        position = index
        for phase, duration in enumerate(durations):
            gate.wait()
            latencies, attempted, failed, in_deadline = [], 0, 0, 0
            stop_at = time.perf_counter() + duration
            try:
                while time.perf_counter() < stop_at and not crashed:
                    target.idle(index)
                    entry = entries[position % len(entries)]
                    position += CLIENTS
                    start = time.perf_counter()
                    reply = target.call(index, entry)
                    took = time.perf_counter() - start
                    attempted += 1
                    if reply.status == OK:
                        latencies.append(took)
                        in_deadline += took <= TIME_CONSTRAINT
                    else:
                        failed += 1
            except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
                crashed.append(exc)
            ends[index] = time.perf_counter()
            with lock:
                result = results[phase]
                result.latencies.extend(latencies)
                result.attempted += attempted
                result.failed += failed
                result.in_deadline += in_deadline
            gate.wait()

    threads = [
        threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for result in results:
        gc.collect()
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        gate.wait()
        gate.wait()
        result.wall = max(ends) - started
        result.cpu = cpu_seconds() - cpu_before
    for thread in threads:
        thread.join()
    if crashed:
        raise crashed[0]
    return results[1:]
