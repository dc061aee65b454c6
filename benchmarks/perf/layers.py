"""The traced run: a fixed-count, one-client pass that yields the per-layer numbers.

Two parts.  The *traced pass* submits the first 2 000 queries of the
workload's list one at a time and records harness-side spans around
`submit` and `Ticket.wait`; the engine's own public books
(`Ticket.record`, `WorkerPool.history`) supply the queue-wait, translate
and service intervals, so one query is one span tree and a layer's self
time is its span minus its children.  The *layer suite* then calls each
layer's public entry point directly on generated inputs.  Layers that
are on the workload's served path are timed on its own queries; the
rollup, ingest, translation and fleet layers are timed on fixed probe
inputs built from the same seed, so every metric is a measurement on
every workload (README.md says which move which end-to-end number).

One load-generating thread at a time, fixed counts: every count-type
metric repeats exactly for a given seed.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.core.partitions import PartitionQueue, QueueKind
from repro.errors import AdmissionRejected, BackpressureError, CubeNotAvailableError
from repro.fleet import (
    Fleet,
    FleetServer,
    HashRing,
    affinity_key,
    query_from_json,
    query_to_json,
    record_from_json,
    record_to_json,
)
from repro.fleet.worker import build_shard_engine
from repro.olap import ROLLUP_TARGET, ParallelAggregator, RollupRouter
from repro.query.parser import parse_query
from repro.query.workload import QueryClass, QueryStream, TimedQuery
from repro.serve import MaterialisedExecutor, NullExecutor, ServeEngine
from repro.sim import assert_fleet_valid
from repro.sim.system import HybridSystem, SystemEstimator
from repro.sim.validate import assert_valid

import drive
import stats
import worlds
from oracle import Oracle
from spans import SpanLog

BATCH = 64
TRACE_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Sizes:
    """The fixed counts of one traced run (fixed, so that counts repeat)."""

    traced: int = 2000
    #: untraced calls `trace.overhead_share` compares the traced ones with
    untraced: int = 500
    #: inputs per directly-timed layer whose calls cost milliseconds
    kernel: int = 300
    #: probe inputs for the rollup, text and (off-path) fleet layers
    probe: int = 300
    open_loop_seconds: float = 5.0


FULL = Sizes()
SMOKE = Sizes(traced=256, untraced=64, kernel=64, probe=128, open_loop_seconds=0.5)


def _time_each(fn, items) -> list[float]:
    out = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        out.append(time.perf_counter() - start)
    return out


def _time_batches(fn, items) -> list[float]:
    """Seconds per item of `fn(chunk)` over consecutive chunks of BATCH."""
    out = []
    for i in range(0, len(items) - BATCH + 1, BATCH):
        chunk = items[i:i + BATCH]
        start = time.perf_counter()
        fn(chunk)
        out.append((time.perf_counter() - start) / BATCH)
    return out


def _us(seconds: list[float]) -> dict:
    return {"unit": "us", **stats.summarise([1e6 * s for s in seconds])}


def _ms(seconds: list[float]) -> dict:
    return {"unit": "ms", **stats.summarise([1e3 * s for s in seconds])}


def _count(value: float, unit: str = "count") -> dict:
    return {"unit": unit, "value": value, "n": 1}


def _engine_offset(engine) -> float:
    """Engine-relative time -> `time.monotonic()` (the engine's clock source)."""
    before = time.monotonic()
    elapsed = engine.elapsed
    return (before + time.monotonic()) / 2.0 - elapsed


def _one_client(engine, entries) -> list[tuple[float, float, float, object]]:
    """Submit and wait for each entry in turn: (t0, t1, t2, ticket) per query."""
    out = []
    for entry in entries:
        query = worlds.fresh(entry.query)
        t0 = time.monotonic()
        outcome = engine.submit(query, entry.query_class)
        t1 = time.monotonic()
        if not outcome.accepted or not outcome.ticket.wait(drive.CALL_TIMEOUT):
            raise RuntimeError(f"traced query {query} was refused or timed out")
        out.append((t0, t1, time.monotonic(), outcome.ticket))
    return out


# -- the traced pass ---------------------------------------------------------


def traced_pass(engine, entries, oracle, log: SpanLog, sizes: Sizes):
    """The one-client pass on a started `engine`.

    Returns (metrics, wrong answers, the answered records, the median
    share of a query no child span covers).  Children of one `trace.query`
    root: the `submit` call, each wait for a pool, the translation, the
    service on the CPU or a GPU partition, and the hand-back from service
    end (for a rollup hit, from the return of `submit`) to the client
    having the answer.
    """
    def untraced(prefix) -> list[float]:
        out = []
        for entry in prefix:
            start = time.monotonic()
            engine.submit(worlds.fresh(entry.query), entry.query_class).ticket.wait(
                drive.CALL_TIMEOUT
            )
            out.append(time.monotonic() - start)
        return out

    # the untraced prefix runs half before and half after the traced pass, so
    # a host that speeds up or slows down during the run biases neither side
    half = entries[:sizes.untraced // 2]
    untraced(half)  # discarded: first touches of cubes and tables
    plain = untraced(half)
    router = engine.rollup
    hits_before = router.hits if router is not None else 0
    offset = _engine_offset(engine)
    calls = _one_client(engine, entries)
    hit_rate = (router.hits - hits_before) / len(entries) if router is not None else 0.0
    plain += untraced(half)
    engine.drain()
    assert_valid(engine.report(), require_drained=True)

    history = {
        name: {qid: (start + offset, end + offset) for qid, start, end in pool.history}
        for name, pool in engine.pools.items()
    }
    trans_name = engine.trans_queue.name
    busy = {"Q_CPU": 0.0, "Q_TRANS": 0.0, "Q_GPU": 0.0}
    served = {"Q_CPU": 0, "Q_TRANS": 0, "Q_GPU": 0}
    # per query, 0.0 where the stage did not happen, so the medians add up
    parts = {k: [] for k in ("submit", "wait", "translate", "service", "complete")}
    queue_waits, records = [], []
    wrong = 0
    for entry, (t0, t1, t2, ticket) in zip(entries, calls):
        record = ticket.record
        records.append(record)
        qid = record.query_id
        root = log.add("trace.query", t0, t2, query=qid)
        log.add("serve.engine.submit", t0, t1, root, qid)
        wait = translate = service = 0.0
        if record.target == ROLLUP_TARGET:
            # served inside submit: what is left is handing the answer back
            log.add("serve.engine.complete", t1, t2, root, qid)
            complete = t2 - t1
        else:
            start, end = history[record.target][qid]
            queue_waits.append(start - (record.submit_time + offset))
            # the worker cannot dequeue before submit releases the engine
            # lock, so waiting that is not the submit call starts at t1
            waiting_from = t1
            if record.translated:
                t_start, t_end = history[trans_name][qid]
                log.add("serve.pool.queue_wait", waiting_from, t_start, root, qid)
                log.add("text.translator", t_start, t_end, root, qid)
                wait += max(0.0, t_start - waiting_from)
                translate = t_end - t_start
                busy["Q_TRANS"] += translate
                served["Q_TRANS"] += 1
                waiting_from = t_end
            log.add("serve.pool.queue_wait", waiting_from, start, root, qid)
            wait += max(0.0, start - waiting_from)
            kind = "Q_CPU" if record.target == "Q_CPU" else "Q_GPU"
            layer = "olap.parallel" if kind == "Q_CPU" else "gpu.kernels"
            log.add(layer, start, end, root, qid)
            service = end - start
            busy[kind] += service
            served[kind] += 1
            log.add("serve.engine.complete", end, t2, root, qid)
            complete = t2 - end
        for name, value in zip(parts, (t1 - t0, wait, translate, service, complete)):
            parts[name].append(value)
        if not oracle.matches(record.answer, entry.query):
            wrong += 1

    own = log.self_times()
    uncovered = statistics.median(
        own[i] / span.duration
        for i, span in enumerate(log.spans)
        if span.name == "trace.query"
    )
    wall = calls[-1][2] - calls[0][0]
    e2e = [t2 - t0 for t0, _, t2, _ in calls]
    e2e_us = 1e6 * statistics.median(e2e)
    sum_us = 1e6 * sum(statistics.median(values) for values in parts.values())
    overhead = statistics.median(e2e[:len(half)]) / statistics.median(plain) - 1.0
    metrics = {
        "trace.e2e_us": _us(e2e),
        # the stage medians a later PR will quote, added up ...
        "trace.sum_us": _count(sum_us, "us"),
        # ... and how far that is from the end-to-end median
        "trace.unaccounted_share": _count(abs(e2e_us - sum_us) / e2e_us, "share"),
        "trace.overhead_share": _count(overhead, "share"),
        "serve.engine.submit_us": _us(parts["submit"]),
        "serve.engine.complete_us": _us(parts["complete"]),
        "serve.pool.queue_wait_us": _us(queue_waits),
        "olap.rollup.hit_rate": _count(hit_rate, "ratio"),
    }
    for kind in busy:
        metrics[f"serve.pool.busy_share.{kind}"] = _count(busy[kind] / wall, "share")
        metrics[f"serve.pool.served.{kind}"] = _count(served[kind])
    # the spans of one query tile it on every path, so this reads 0; a stage
    # added to the tree without its neighbours would show here
    return metrics, wrong, records, uncovered


# -- serve.engine: other drivers of the same layer ---------------------------


def engine_layer(config, entries, make_engine, rate: float, sizes: Sizes):
    """NullExecutor round trip, `submit_batch`, and the fixed-rate open loop.

    Returns (metrics, open-loop submissions shed or rejected).
    """
    null = ServeEngine(config, executor=NullExecutor()).start()
    try:
        roundtrip = [t2 - t0 for t0, _, t2, _ in _one_client(null, entries)]
        batch_seconds = []
        for i in range(0, len(entries) - BATCH + 1, BATCH):
            chunk = entries[i:i + BATCH]
            queries = [worlds.fresh(e.query) for e in chunk]
            classes = [e.query_class for e in chunk]
            start = time.perf_counter()
            outcomes = null.submit_batch(queries, classes)
            batch_seconds.append((time.perf_counter() - start) / BATCH)
            for outcome in outcomes:
                outcome.ticket.wait(drive.CALL_TIMEOUT)
    finally:
        null.drain()

    # open loop: one paced sender, each query timed from when it was due,
    # completion read from the engine's own record afterwards
    engine = make_engine().start()
    offset = _engine_offset(engine)
    sent, late, shed = [], [], 0
    try:
        begin = time.monotonic()
        for i in range(int(sizes.open_loop_seconds * rate)):
            due = begin + i / rate
            remaining = due - time.monotonic()
            if remaining > 0:
                time.sleep(remaining)
            entry = entries[i % len(entries)]
            late.append(max(0.0, time.monotonic() - due))
            try:
                outcome = engine.submit(
                    worlds.fresh(entry.query), entry.query_class, block=False
                )
            except BackpressureError:
                shed += 1
                continue
            if outcome.accepted:
                sent.append((due, outcome.ticket))
            else:
                shed += 1
    finally:
        engine.drain()
    latency = sorted(t.record.finish_time + offset - due for due, t in sent)
    return {
        "serve.engine.null_roundtrip_us": _us(roundtrip),
        "serve.engine.submit_batch_us": _us(batch_seconds),
        "serve.engine.open_p50_ms": _count(1e3 * stats.percentile(latency, 50.0), "ms"),
        "serve.engine.open_p95_ms": _count(1e3 * stats.percentile(latency, 95.0), "ms"),
        "loadgen.late_p99_ms": _count(1e3 * stats.percentile(sorted(late), 99.0), "ms"),
    }, shed


# -- sim.system and core.scheduler ------------------------------------------


def scheduling_layers(world, entries, rate: float) -> dict:
    config = world.config
    queries = [e.query for e in entries]
    estimator = SystemEstimator(config)
    metrics = {
        "sim.system.estimate_us": _us(_time_each(estimator.estimate, queries)),
        "sim.system.estimate_batch_us": _us(
            _time_batches(estimator.estimate_batch, queries)
        ),
    }

    def scheduler():
        cpu = PartitionQueue("Q_CPU", QueueKind.CPU)
        trans = PartitionQueue(
            "Q_TRANS", QueueKind.TRANSLATION, capacity=config.translation_workers
        )
        gpus = [
            PartitionQueue(f"Q_{p.name}", QueueKind.GPU, n_sm=p.n_sm)
            for p in config.scheme
        ]
        return config.scheduler_factory(
            cpu, gpus, trans, SystemEstimator(config), config.time_constraint
        )

    def settle(sched, decision) -> None:
        # the work "completes" exactly as estimated, so the books stay bounded
        est = decision.processing.estimated_time
        decision.target.apply_feedback(est, est)
        if decision.translation is not None:
            est = decision.translation.estimated_time
            sched.trans_queue.apply_feedback(est, est)

    sched = scheduler()
    single, rejected = [], 0
    for i, query in enumerate(queries):
        start = time.perf_counter()
        try:
            decision = sched.schedule(query, i / rate)
        except AdmissionRejected:
            decision = None
        single.append(time.perf_counter() - start)
        if decision is None:
            rejected += 1
        else:
            settle(sched, decision)
    sched = scheduler()
    batched = []
    for i in range(0, len(queries) - BATCH + 1, BATCH):
        start = time.perf_counter()
        decisions = sched.schedule_batch(queries[i:i + BATCH], i / rate)
        batched.append((time.perf_counter() - start) / BATCH)
        for decision in decisions:
            if not isinstance(decision, AdmissionRejected):
                settle(sched, decision)
    metrics["core.scheduler.schedule_us"] = _us(single)
    metrics["core.scheduler.schedule_batch_us"] = _us(batched)
    metrics["core.scheduler.rejected"] = _count(rejected)

    # the simulated plane over shapes only: what the shared scheduler costs there
    stream = QueryStream(
        [TimedQuery(i / rate, e.query, e.query_class) for i, e in enumerate(entries)]
    )
    system = HybridSystem(world.analytic_config())
    for name, kwargs in (("run_us", {}), ("run_batch_us", {"batch_size": BATCH})):
        took = []
        for _ in range(3):
            start = time.perf_counter()
            system.run(stream, **kwargs)
            took.append((time.perf_counter() - start) / len(stream))
        metrics[f"sim.system.{name}"] = _us(took)
    return metrics


# -- text, kernels, parser, ring, protocol ----------------------------------


def text_layer(world, sizes: Sizes) -> dict:
    """Translation of text-bearing Table-3 `mid` queries over this world's dictionaries."""
    text_class = QueryClass(
        "text", 1.0, resolution=2, dims_constrained=(1, 2), coverage=(0.5, 1.0),
        text_prob=1.0,
    )
    queries = [q for q, _ in worlds.mix_queries(world, [text_class], sizes.probe)]
    service = world.config.translation_service
    dictionaries = service.dictionaries.values()
    before = sum(d.probes for d in dictionaries)
    single = _time_each(service.translate, queries)
    probes = sum(d.probes for d in dictionaries) - before
    return {
        "text.translator.translate_us": _us(single),
        "text.translator.translate_batch_us": _us(
            _time_batches(service.translate_batch, queries)
        ),
        "text.dictionary.probes_per_query": _count(probes / len(queries)),
    }


def kernel_layers(world, entries, sizes: Sizes) -> dict:
    """Each kernel layer on the first `sizes.kernel` list queries it can answer."""
    config = world.config
    pyramid, device = config.pyramid, config.device
    translate = MaterialisedExecutor(config).translate
    resolved = [translate(e.query) for e in entries]
    aggregator = ParallelAggregator(num_threads=worlds.CLIENTS)

    cube_inputs = []
    for query in resolved:
        try:
            cube_inputs.append((pyramid.select_level(query).cube, query))
        except CubeNotAvailableError:
            continue
        if len(cube_inputs) == sizes.kernel:
            break
    agg_seconds = _time_each(lambda pair: aggregator.aggregate(*pair), cube_inputs)
    cells = [
        pyramid.scanned_bytes(query) // cube.cell_nbytes for cube, query in cube_inputs
    ]

    n_sm = next(iter(config.scheme)).n_sm
    scanned = []

    def execute(query):
        scanned.append(device.execute_query(query, n_sm).kernel.result.bytes_read)

    gpu_seconds = _time_each(execute, resolved[:sizes.kernel])
    return {
        "olap.parallel.aggregate_us": _us(agg_seconds),
        "olap.parallel.cells_per_query": _count(sum(cells) / len(cells)),
        # computed bytes (a sum streams one float64 per selected cell) over
        # measured CPU time: a CPU figure, not a device's
        "olap.parallel.gb_per_s": _count(8 * sum(cells) / sum(agg_seconds) / 1e9, "GB/s"),
        "gpu.kernels.execute_us": _us(gpu_seconds),
        "gpu.kernels.bytes_per_query": _count(sum(scanned) / len(scanned)),
        "gpu.kernels.gb_per_s": _count(sum(scanned) / sum(gpu_seconds) / 1e9, "GB/s"),
    }


#: stands in for the five time fields of a reply record, so that
#: `fleet.protocol.frame_bytes` is a count that repeats exactly
_CANONICAL_TIME = 1.2345678901234567


def _request(entry) -> dict:
    return {"kind": "query", "query": query_to_json(entry.query),
            "class": entry.query_class, "timeout": drive.CALL_TIMEOUT}


def _reply(record) -> dict:
    return {"ok": True, "accepted": True, "cache_hit": False,
            "record": record_to_json(record)}


def wire_layers(world, entries, records) -> dict:
    """Parser, ring and frame codec on the list's own queries and answers."""
    hierarchies = world.schema.hierarchies
    ring = HashRing(range(2))
    routed = [0, 0]

    def route(query):
        routed[ring.route(affinity_key(query))] += 1

    def encode(pair):
        json.dumps(_request(pair[0]))
        json.dumps(_reply(pair[1]))

    def decode(pair):
        query_from_json(json.loads(pair[0])["query"])
        record_from_json(json.loads(pair[1])["record"])

    t = _CANONICAL_TIME
    frames = [
        (
            json.dumps(_request(entry)).encode(),
            json.dumps(_reply(replace(
                record, submit_time=t, finish_time=t, deadline=t,
                estimated_time=t, measured_time=t,
            ))).encode(),
        )
        for entry, record in zip(entries, records)
    ]
    return {
        "query.parser.parse_us": _us(
            _time_each(lambda e: parse_query(e.text, hierarchies), entries)
        ),
        "fleet.ring.route_us": _us(_time_each(route, [e.query for e in entries])),
        "fleet.ring.shard_share_max": _count(max(routed) / sum(routed), "share"),
        "fleet.protocol.encode_us": _us(_time_each(encode, list(zip(entries, records)))),
        "fleet.protocol.decode_us": _us(_time_each(decode, frames)),
        # request + reply, each with its 4-byte length prefix
        "fleet.protocol.frame_bytes": _count(
            statistics.median(len(a) + len(b) + 8 for a, b in frames)
        ),
    }


# -- olap.rollup / olap.pyramid ----------------------------------------------


def rollup_layers(world, oracle, sizes: Sizes):
    """Coverage lookup, hit service and ingest, on hot/cold probe queries.

    Uses the workload's catalog when it has one, else one built from the
    same three hot cuboids.  Runs last: ingest grows the row set (the
    oracle follows it).  Returns (metrics, wrong answers, answers checked).
    """
    workload = world.workload
    catalog = world.catalog
    if catalog is None:  # off this workload's path: the same three hot cuboids
        catalog = worlds.hot_catalog(world.dataset.table, workload.measure)
    rng = np.random.default_rng(world.seed + 2)
    probes = worlds.hot_cold_queries(world.schema, workload.measure, sizes.probe, rng)
    hot = [q for q, cls in probes if cls == "hot"]
    cold = [q for q, cls in probes if cls == "cold"]
    router = RollupRouter(catalog)
    answers = []
    metrics = {
        "olap.rollup.covers_hit_us": _us(_time_each(catalog.covers, hot)),
        "olap.rollup.covers_miss_us": _us(_time_each(catalog.covers, cold)),
        "olap.rollup.serve_hit_us": _us(
            _time_each(lambda q: answers.append((q, router.serve(q))), hot)
        ),
    }
    wrong = sum(
        r is None or not oracle.matches(r.answer, q) for q, r in answers
    )
    batches = worlds.ingest_batches(world, 3, workload.ingest_rows or 2000)
    metrics["olap.pyramid.ingest_ms"] = _ms(
        _time_each(world.config.pyramid.ingest, batches)
    )
    metrics["olap.rollup.ingest_ms"] = _ms(_time_each(catalog.ingest, batches))
    for batch in batches:
        oracle.add_rows(batch)
    # after ingest the cuboids must still agree with the (grown) row set
    recheck = hot[:50]
    wrong += sum(
        not oracle.matches(getattr(router.serve(q), "answer", None), q) for q in recheck
    )
    return metrics, wrong, len(hot) + len(recheck)


# -- fleet.fleet / fleet.frontdoor / fleet.worker ----------------------------


def fleet_layers(workload, seed, entries, oracle, in_process_us: float):
    """The same queries through `Fleet.submit` (b) and through HTTP (c).

    (a), the in-process median on `build_shard_engine(spec)`, comes from
    the caller: wire = b - a, http = c - b.  Returns (metrics, wrong
    answers, the HTTP latencies).
    """
    wrong = 0
    fleet = Fleet(num_shards=2, spec=worlds.shard_spec(workload, seed)).start()
    door = None
    try:
        door = FleetServer(fleet, port=0).start()
        cpu_before = drive.children_cpu_seconds()
        via_fleet = []
        for entry in entries:
            start = time.perf_counter()
            answer = fleet.submit(worlds.fresh(entry.query), entry.query_class)
            via_fleet.append(time.perf_counter() - start)
            if not answer.accepted or not oracle.matches(answer.record.answer, entry.query):
                wrong += 1
        target = drive.HttpTarget(door.host, door.port)
        via_http = []
        for entry in entries:
            start = time.perf_counter()
            reply = target.call(0, entry)
            via_http.append(time.perf_counter() - start)
            if reply.status != drive.OK or not oracle.matches(reply.answer, entry.query):
                wrong += 1
        target.close()
        shard_cpu = drive.children_cpu_seconds() - cpu_before
        start = time.perf_counter()
        report = fleet.fleet_report(drain=True)
        report_seconds = time.perf_counter() - start
        assert_fleet_valid(report)
    finally:
        if door is not None:
            door.close()
        fleet.stop()
    b = 1e6 * statistics.median(via_fleet)
    c = 1e6 * statistics.median(via_http)
    return {
        "fleet.fleet.wire_us": _count(b - in_process_us, "us"),
        "fleet.frontdoor.http_us": _count(c - b, "us"),
        "fleet.frontdoor.connects_per_request": _count(target.connects / target.requests),
        "fleet.worker.cpu_ms_per_query": _count(
            1e3 * shard_cpu / (2 * len(entries)), "ms"
        ),
        "fleet.worker.report_ms": _count(1e3 * report_seconds, "ms"),
    }, wrong, via_http


# -- the run ---------------------------------------------------------------


def run_traced(workload, seed: int, smoke: bool) -> dict:
    sizes = SMOKE if smoke else FULL
    ref_before = drive.host_ref_ms() if smoke else drive.settle_host()
    world = worlds.build_world(workload, seed)
    entries = worlds.query_list(world, sizes.traced)
    oracle = Oracle(
        world.dataset.table, world.dataset.vocabularies, workload.measure == "quantity"
    )
    rate = workload.stated_qps / 2.0
    log = SpanLog()

    def make_engine():
        if workload.fleet:  # (a): the shard's own engine, in this process
            return build_shard_engine(worlds.shard_spec(workload, seed))[0]
        return world.engine()

    metrics, wrong, records, uncovered = traced_pass(
        make_engine().start(), entries, oracle, log, sizes
    )
    checked = len(entries)
    engine_metrics, shed = engine_layer(world.config, entries, make_engine, rate, sizes)
    metrics.update(engine_metrics)
    metrics.update(scheduling_layers(world, entries, rate))
    metrics.update(text_layer(world, sizes))
    metrics.update(kernel_layers(world, entries, sizes))
    metrics.update(wire_layers(world, entries, records))

    # the fleet layers: the fleet workload's own list against its in-process
    # median; elsewhere a short probe of the same shipped two-shard fleet
    if workload.fleet:
        small, fleet_entries, fleet_oracle = workload, entries, oracle
        in_process_us = metrics["trace.e2e_us"]["value"]
    else:
        small = worlds.WORKLOADS["fleet-http"]
        small = small.tiny() if smoke else small
        small_world = worlds.build_world(small, seed)
        fleet_entries = worlds.query_list(small_world, sizes.probe)
        fleet_oracle = Oracle(
            small_world.dataset.table, small_world.dataset.vocabularies, exact=False
        )
        shard_engine = build_shard_engine(worlds.shard_spec(small, seed))[0].start()
        calls = _one_client(shard_engine, fleet_entries)
        shard_engine.drain()
        in_process_us = 1e6 * statistics.median(t2 - t0 for t0, _, t2, _ in calls)
    fleet_metrics, fleet_wrong, via_http = fleet_layers(
        small, seed, fleet_entries, fleet_oracle, in_process_us
    )
    metrics.update(fleet_metrics)
    if workload.fleet:
        # this workload's end to end is the HTTP path: the in-process stages
        # plus the two hops measured by difference
        e2e = metrics["trace.e2e_us"] = _us(via_http)
        hops = sum(
            fleet_metrics[name]["value"]
            for name in ("fleet.fleet.wire_us", "fleet.frontdoor.http_us")
        )
        total = metrics["trace.sum_us"]["value"] + hops
        metrics["trace.sum_us"] = _count(total, "us")
        metrics["trace.unaccounted_share"] = _count(
            abs(e2e["value"] - total) / e2e["value"], "share"
        )
    checked += 2 * len(fleet_entries)

    rollup_metrics, rollup_wrong, rollup_checked = rollup_layers(world, oracle, sizes)
    metrics.update(rollup_metrics)
    checked += rollup_checked

    ref_after = drive.host_ref_ms()
    metrics["host.ref_ms"] = _count(max(ref_before, ref_after), "ms")
    if not smoke:
        log.dump(TRACE_DIR / f"trace-{workload.name}.json")

    problems = []
    if wrong or fleet_wrong or rollup_wrong:
        problems.append(
            f"wrong answers: {wrong} traced, {fleet_wrong} fleet, {rollup_wrong} rollup"
        )
    if shed:
        problems.append(f"{shed} open-loop submissions were shed or rejected")
    if uncovered > 0.1:
        problems.append(f"spans leave {uncovered:.1%} of the median query uncovered")
    return {
        "metrics": dict(sorted(metrics.items())),
        "attempted": checked,
        "failed": wrong + fleet_wrong + rollup_wrong + shed,
        "problems": problems,
        "notes": [
            f"one client, {len(entries)} traced queries, {len(log.spans)} spans, "
            f"median uncovered share {uncovered:.4f}",
            f"host.ref_ms before {ref_before:.1f} after {ref_after:.1f}",
        ],
    }
