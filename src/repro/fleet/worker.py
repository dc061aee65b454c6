"""One fleet shard: a full serving engine behind a socket listener.

A shard is a *process* (spawned by :class:`~repro.fleet.fleet.Fleet`
via ``multiprocessing.get_context("spawn")``), so N shards mean N
engine locks, N GILs, and N rollup caches — the scaling unit the
single-process :class:`~repro.serve.engine.ServeEngine` cannot offer.
:func:`run_worker` is the process entry point: it builds the
materialised world ``repro serve`` also serves (:func:`build_serve_world`,
the one recipe for it; deterministic from ``(rows, seed, scale)``, so
every shard of a replicated fleet answers identically), binds a
loopback listener on an OS-assigned port, reports the port back
through the spawn pipe, and then serves the length-prefixed JSON
protocol of :mod:`repro.fleet.protocol` with one handler thread per
connection.

At ``shutdown`` with ``drain=true`` the worker drains its engine and
answers with its final books — records, rejection count, a metrics
snapshot, and the verdict of running :func:`~repro.sim.validate.audit`
on the drained report and that snapshot *locally* — so the fleet view
aggregates already-audited shards.
"""

from __future__ import annotations

import socket
import threading
import traceback
from dataclasses import dataclass
from typing import Any

from repro.fleet.protocol import (
    query_from_json,
    record_to_json,
    recv_frame,
    send_frame,
)

__all__ = ["ShardSpec", "run_worker", "build_serve_world", "build_shard_engine"]


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker process needs to build its world.

    Plain picklable primitives only: the spec crosses the ``spawn``
    boundary, where nothing else of the parent survives.  Shards are
    *replicas* — same rows, same seed — so any shard can answer any
    query and routing is purely a cache-affinity/load decision.
    """

    shard_id: int
    rows: int = 10_000
    seed: int = 2012
    scale: float = 0.5
    scheduler: str = "hybrid"
    time_constraint: float = 0.5
    cpu_threads: int = 2
    translation_workers: int = 1
    max_in_flight: int = 256
    slo_target: float = 0.9
    rollup_budget_bytes: int = 8 * 2**20
    #: span head-sampling rate; > 0 attaches a SpanTracer to the shard
    #: engine (same seed as the front door, so both sides of the wire
    #: make identical per-query sampling decisions)
    span_sample: float = 0.0


def build_serve_world(spec: ShardSpec):
    """The serve world of one spec: ``(config, dataset)``.

    A TPC-DS-flavoured fact table, a 3-level ``sales_price`` cube
    pyramid, dictionary translation, the paper's partition scheme over
    a simulated C2070, and the Figure-10 scheduler chosen by
    ``spec.scheduler``.  Deliberately a function of the spec alone —
    two calls with equal specs build worlds that answer every query
    identically.  Both ``repro serve`` and every fleet shard serve this
    world; each adds its own attachments around the returned
    :class:`~repro.sim.system.SystemConfig`.
    """
    from repro.core import SCHEDULERS
    from repro.core.perfmodel import XEON_X5667_8T
    from repro.gpu import SimulatedGPU
    from repro.gpu.partitioning import paper_partition_scheme
    from repro.gpu.timing import TESLA_C2070_TIMING
    from repro.olap import CubePyramid
    from repro.relational import generate_dataset, tpcds_like_schema
    from repro.sim.system import SystemConfig
    from repro.text import TranslationService, build_dictionaries
    from repro.units import GB

    schema = tpcds_like_schema(scale=spec.scale)
    dataset = generate_dataset(schema, num_rows=spec.rows, seed=spec.seed)
    pyramid = CubePyramid.from_fact_table(
        dataset.table, "sales_price", [0, 1, 2]
    )
    translator = TranslationService(
        build_dictionaries(dataset.vocabularies), schema.hierarchies
    )
    device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    device.load_table(dataset.table)
    config = SystemConfig(
        cpu_model=XEON_X5667_8T.with_overhead(0.002),
        pyramid=pyramid,
        device=device,
        scheme=paper_partition_scheme(),
        translation_service=translator,
        time_constraint=spec.time_constraint,
        scheduler_factory=SCHEDULERS[spec.scheduler],
        translation_workers=spec.translation_workers,
    )
    return config, dataset


def build_shard_engine(spec: ShardSpec):
    """Build one shard's engine + registry + rollup router (started).

    The engine serves :func:`build_serve_world`'s world with the
    shard's attachments: a metrics registry, an SLO monitor, a rollup
    tier over the same fact table, and (when sampled) a span tracer.
    """
    from repro.metrics import MetricsRegistry, SloMonitor
    from repro.olap.rollup import AdmissionPolicy, RollupCatalog, RollupRouter
    from repro.serve import ServeEngine

    config, dataset = build_serve_world(spec)
    registry = MetricsRegistry()
    slo = SloMonitor(target=spec.slo_target, registry=registry)
    rollup = RollupRouter(
        RollupCatalog(dataset.table, "sales_price"),
        policy=AdmissionPolicy(byte_budget=spec.rollup_budget_bytes),
    )
    tracer = None
    if spec.span_sample > 0.0:
        from repro.obs.span import SpanTracer

        tracer = SpanTracer(
            spec.span_sample,
            seed=spec.seed,
            process=f"shard-{spec.shard_id}",
        )
    engine = ServeEngine(
        config,
        metrics=registry,
        slo=slo,
        rollup=rollup,
        max_in_flight=spec.max_in_flight,
        cpu_threads=spec.cpu_threads,
        spans=tracer,
    )
    return engine, registry, rollup


class _ShardServer:
    """The in-process request handler behind one shard's listener."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.engine, self.registry, self.rollup = build_shard_engine(spec)
        self._stop = threading.Event()
        self._drained = False
        self._lifecycle = threading.Lock()

    # -- request handlers ---------------------------------------------------

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        kind = request.get("kind")
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            return {"ok": False, "error": f"unknown request kind {kind!r}"}
        try:
            return handler(request)
        except Exception as exc:  # noqa: BLE001 - reported over the wire
            return {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }

    def _on_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {
            "ok": True,
            "shard_id": self.spec.shard_id,
            "in_flight": self.engine.in_flight,
            "elapsed": self.engine.elapsed,
            "drained": self._drained,
        }

    def _on_query(self, request: dict[str, Any]) -> dict[str, Any]:
        from repro.core.stages import Outcome
        from repro.errors import BackpressureError, ServeError

        query = query_from_json(request["query"])
        query_class = str(request.get("class", "default"))
        timeout = float(request.get("timeout", 30.0))
        traceparent = request.get("traceparent")
        tracer = self.engine.spans
        if traceparent and tracer is not None:
            # the frame's context field IS the sampling signal: adopt it
            # so this shard's serve.query subtree parents under the
            # front door's span and shares its trace_id
            tracer.adopt(query.query_id, str(traceparent))
        try:
            outcome = self.engine.submit(query, query_class, block=True, timeout=timeout)
        except (BackpressureError, ServeError) as exc:  # shed, or draining
            shed = isinstance(exc, BackpressureError)
            if tracer is not None:
                # refused before the engine opened a root: the close
                # drops the adopted context no open() would ever take
                refused = Outcome.REJECTED if shed else Outcome.FAILED
                tracer.close(query.query_id, status=refused.value)
            if shed:
                return {"ok": True, "accepted": False, "shed": True, "why": str(exc)}
            return {"ok": False, "error": str(exc)}
        if not outcome.accepted:
            return {"ok": True, "accepted": False, "shed": False}
        ticket = outcome.ticket
        assert ticket is not None
        if not ticket.wait(timeout=timeout):
            if ticket.outcome is Outcome.ABANDONED:
                return {"ok": False, "error": f"query {query.query_id}: shard stopping"}
            return {
                "ok": False,
                "error": f"query {query.query_id} timed out after {timeout}s",
            }
        if ticket.error is not None:
            return {"ok": False, "error": repr(ticket.error)}
        record = ticket.record
        return {
            "ok": True,
            "accepted": True,
            "cache_hit": outcome.cache_hit,
            "record": record_to_json(record),
        }

    def _on_metrics(self, request: dict[str, Any]) -> dict[str, Any]:
        snapshot = self.registry.collect(self.engine.elapsed)
        return {"ok": True, "snapshot": snapshot.to_json()}

    def _on_report(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, **self._shard_books(validate=False)}

    def _on_maintain(self, request: dict[str, Any]) -> dict[str, Any]:
        limit = request.get("limit")
        n = self.rollup.maintain(limit=None if limit is None else int(limit))
        return {"ok": True, "materialized": n, "cuboids": len(self.rollup.catalog)}

    def _on_shutdown(self, request: dict[str, Any]) -> dict[str, Any]:
        with self._lifecycle:
            drain = bool(request.get("drain", True))
            drain_error = None
            if not self._drained:
                from repro.errors import ServeError

                try:
                    if drain:
                        self.engine.drain()
                    else:
                        self.engine.stop(finish_queued=False)
                except ServeError as exc:
                    drain_error = str(exc)
                self._drained = True
            books = self._shard_books(validate=drain)
            span_payload: list[dict[str, Any]] = []
            tracer = self.engine.spans
            if tracer is not None:
                # stop() ended stranded queries ABANDONED: roots closed
                span_payload = [s.to_dict() for s in tracer.drain()]
            self._stop.set()
            return {
                "ok": True,
                "drain_error": drain_error,
                "spans": span_payload,
                **books,
            }

    def _shard_books(self, validate: bool) -> dict[str, Any]:
        """The shard's final (or mid-run) books, locally audited."""
        engine = self.engine
        report = engine.report()
        snapshot = self.registry.collect(engine.elapsed)
        validation = "ok (not audited mid-run)"
        if validate:
            from repro.sim.validate import audit

            validation = audit(report, require_drained=True, snapshot=snapshot).summary()
        return {
            "shard_id": self.spec.shard_id,
            "records": [record_to_json(r) for r in engine.records],
            "cache_hits": [record_to_json(r) for r in engine.cache_hits],
            "retired": vars(report.retired),
            "rejected": engine.rejected,
            "errors": len(engine.errors),
            "elapsed": engine.elapsed,
            "snapshot": snapshot.to_json(),
            "validation": validation,
        }

    # -- the serve loop -----------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                request = recv_frame(conn)
                if request is None:
                    return
                send_frame(conn, self.handle(request))
                if self._stop.is_set():
                    return
        except OSError:
            return  # peer went away; the fleet will notice via health checks
        finally:
            conn.close()

    def serve(self, listener: socket.socket) -> None:
        listener.settimeout(0.2)  # poll the stop flag between accepts
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"shard-{self.spec.shard_id}-conn",
                    daemon=True,
                ).start()
        finally:
            listener.close()
            if not self._drained:
                self.engine.stop(finish_queued=False)


def run_worker(spec: ShardSpec, ready) -> None:
    """Process entry point: build the world, report the port, serve.

    ``ready`` is the child end of a ``multiprocessing`` pipe; the worker
    sends exactly one message on it — ``{"shard_id", "port"}`` on
    success, or ``{"shard_id", "error"}`` if the world build failed —
    then serves until a ``shutdown`` request.
    """
    import signal

    # group signals (a terminal Ctrl-C, a supervisor's TERM to the process
    # group) must not kill shards out from under the front door — graceful
    # shutdown is the parent's job, coordinated via the shutdown frame.
    # Stragglers are still killable: Fleet._join_all escalates to SIGKILL.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        server = _ShardServer(spec)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(64)
        server.engine.start()
    except Exception as exc:  # noqa: BLE001 - reported through the pipe
        ready.send(
            {"shard_id": spec.shard_id, "error": f"{type(exc).__name__}: {exc}"}
        )
        ready.close()
        return
    ready.send({"shard_id": spec.shard_id, "port": listener.getsockname()[1]})
    ready.close()
    server.serve(listener)
