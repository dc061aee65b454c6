"""The fleet manager: N worker-process shards behind one router.

:class:`Fleet` owns the process lifecycle (spawn with a ready
handshake, health checks, crashed-shard detection, graceful drain), the
:class:`~repro.fleet.ring.HashRing` routing decision, and the front
door's own bookkeeping — ``repro_fleet_*`` metric families recording
where queries went and what came back.  The merged fleet view is built
from parts that already exist: each shard ships its
:class:`~repro.metrics.registry.MetricsSnapshot` over the wire and
:func:`~repro.metrics.registry.merge_snapshots` folds them (plus the
front door's own registry) into one count-exact snapshot that
:func:`~repro.sim.validate.validate_fleet` can audit.

Lifecycle::

    with Fleet(num_shards=4).start() as fleet:
        answer = fleet.submit(query, "small")
        ...
        report = fleet.fleet_report(drain=True)   # terminal: drains + joins
    assert_fleet_valid(report)

A crashed shard (process exited without a shutdown handshake) is
detected by :meth:`check`, removed from the routing alive-set — the
ring walks successors, so only that shard's keys move — and reported in
``FleetReport.crashed`` so a partial fleet is visible, never silent.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.core.stages import Outcome
from repro.errors import FleetError
from repro.fleet.protocol import (
    query_to_json,
    record_from_json,
    recv_frame,
    send_frame,
)
from repro.fleet.ring import DEFAULT_VNODES, HashRing, affinity_key
from repro.fleet.worker import ShardSpec, run_worker
from repro.metrics import MetricsRegistry, MetricsSnapshot, merge_snapshots
from repro.obs.span import Span, SpanTracer, stitch
from repro.query.model import Query
from repro.sim.metrics import QueryRecord, Retired

__all__ = [
    "Fleet",
    "FleetAnswer",
    "FleetReport",
    "ShardClient",
    "ShardReport",
]


class ShardClient:
    """A pooled-connection client for one shard's socket listener.

    Connections are checked out per request and returned on success, so
    concurrent front-door threads each get their own socket (the worker
    serves one handler thread per connection).  A connection that saw a
    protocol or socket error is closed, not recycled.
    """

    def __init__(
        self,
        shard_id: int,
        port: int,
        host: str = "127.0.0.1",
        timeout: float = 30.0,
    ):
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.timeout = timeout
        self._pool: list = []
        self._lock = threading.Lock()
        self._closed = False

    def _checkout(self):
        with self._lock:
            if self._closed:
                raise FleetError(f"shard {self.shard_id}: client is closed")
            if self._pool:
                return self._pool.pop()
        import socket as _socket

        return _socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def request(
        self, message: Mapping[str, Any], timeout: float | None = None
    ) -> dict[str, Any]:
        """One request/response round trip; raises :class:`FleetError`.

        Any transport failure invalidates the connection — the caller
        decides whether the *shard* is dead (see :meth:`Fleet.check`).
        """
        sock = self._checkout()
        try:
            sock.settimeout(self.timeout if timeout is None else timeout)
            send_frame(sock, message)
            response = recv_frame(sock)
        except FleetError:
            sock.close()
            raise
        except OSError as exc:
            sock.close()
            raise FleetError(
                f"shard {self.shard_id} transport failed: {exc}"
            ) from exc
        if response is None:
            sock.close()
            raise FleetError(
                f"shard {self.shard_id} closed the connection mid-request"
            )
        with self._lock:
            if self._closed:
                sock.close()
            else:
                self._pool.append(sock)
        return response

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for sock in pool:
            sock.close()


@dataclass(frozen=True)
class FleetAnswer:
    """What one routed submission came back with."""

    shard_id: int
    accepted: bool
    shed: bool = False
    cache_hit: bool = False
    record: QueryRecord | None = None


@dataclass(frozen=True)
class ShardReport:
    """One shard's final books, as shipped over the wire at shutdown.

    ``records`` and ``cache_hits`` are the engine's kept books;
    ``retired`` totals the rest, and :attr:`completed` /
    :attr:`hit_count` count both.
    """

    shard_id: int
    records: tuple[QueryRecord, ...]
    cache_hits: tuple[QueryRecord, ...]
    rejected: int
    errors: int
    elapsed: float
    snapshot: MetricsSnapshot
    validation: str
    retired: Retired = field(default_factory=Retired)

    @property
    def completed(self) -> int:
        return len(self.records) + self.retired.completed

    @property
    def hit_count(self) -> int:
        return len(self.cache_hits) + self.retired.cache_hits

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ShardReport":
        return cls(
            shard_id=int(data["shard_id"]),
            records=tuple(record_from_json(r) for r in data["records"]),
            cache_hits=tuple(record_from_json(r) for r in data["cache_hits"]),
            rejected=int(data["rejected"]),
            errors=int(data["errors"]),
            elapsed=float(data["elapsed"]),
            snapshot=MetricsSnapshot.from_json(data["snapshot"]),
            validation=str(data["validation"]),
            retired=Retired(**data["retired"]),
        )


@dataclass(frozen=True)
class FleetReport:
    """The merged fleet view :func:`~repro.sim.validate.validate_fleet` audits.

    ``shards`` holds only shards that completed the shutdown handshake;
    crashed shards appear in ``crashed`` with their routing books intact
    in ``routed``/``failed`` — a partial fleet reports as partial.
    """

    shards: tuple[ShardReport, ...]
    crashed: tuple[int, ...]
    routed: Mapping[int, int]
    failed: Mapping[int, int]
    merged: MetricsSnapshot
    drained: bool = True
    #: the stitched fleet-wide span set (front door + every drained
    #: shard, grouped by trace_id; crashed shards' partial trees carry
    #: roots re-stamped ``status="partial"``).  Empty when no tracer
    #: was attached.
    spans: tuple[Span, ...] = ()

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.shards)

    @property
    def cache_hits(self) -> int:
        return sum(s.hit_count for s in self.shards)

    @property
    def rejected(self) -> int:
        return sum(s.rejected for s in self.shards)

    def summary(self) -> str:
        return (
            f"fleet of {len(self.shards)} shard(s)"
            f"{f' ({len(self.crashed)} crashed)' if self.crashed else ''}: "
            f"{sum(self.routed.values())} routed, {self.completed} completed, "
            f"{self.cache_hits} cache hits, {self.rejected} rejected, "
            f"{sum(self.failed.values())} failed"
        )


@dataclass
class _Shard:
    """Internal: one spawned worker and its client."""

    shard_id: int
    process: Any
    client: ShardClient | None = None
    port: int | None = None
    reported: bool = False


class Fleet:
    """Spawn, route to, observe, and drain a set of worker shards.

    Parameters
    ----------
    num_shards:
        How many worker processes to spawn.  Shards are replicas (same
        rows, same seed) so any shard can answer any query; the ring
        adds cache affinity on top.
    spec:
        Template :class:`~repro.fleet.worker.ShardSpec`; its
        ``shard_id`` is replaced per shard.
    registry:
        The front door's own :class:`MetricsRegistry` (created when
        omitted).  Carries the ``repro_fleet_*`` families and is merged
        into every fleet-wide snapshot.
    spans:
        Optional front-door :class:`~repro.obs.span.SpanTracer`.  Each
        head-sampled submission gets a ``frontdoor.request`` root (the
        HTTP front door opens it; direct :meth:`submit` callers get one
        opened here), ``fleet.route`` and ``wire.roundtrip`` stage
        spans, and a ``traceparent`` context field on the shard-bound
        frame so the shard's subtree parents under this root.  Shards
        must be spawned with a matching ``spec.span_sample`` (same seed)
        for their engines to trace the adopted context.
    """

    def __init__(
        self,
        num_shards: int = 2,
        spec: ShardSpec | None = None,
        *,
        registry: MetricsRegistry | None = None,
        vnodes: int = DEFAULT_VNODES,
        start_timeout: float = 180.0,
        request_timeout: float = 30.0,
        spans: SpanTracer | None = None,
    ):
        if num_shards < 1:
            raise FleetError(f"a fleet needs at least one shard, got {num_shards}")
        self.num_shards = num_shards
        self.spec = spec if spec is not None else ShardSpec(shard_id=0)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans = spans
        self.ring = HashRing(range(num_shards), vnodes=vnodes)
        self.start_timeout = start_timeout
        self.request_timeout = request_timeout
        self._shards: dict[int, _Shard] = {}
        self._crashed: list[int] = []
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._epoch = 0.0
        m = self.registry
        self._m_routed = m.counter(
            "repro_fleet_routed_total",
            "Queries the front door routed, by shard",
            labels=("shard",),
        )
        self._m_completed = m.counter(
            "repro_fleet_completed_total",
            "Routed queries that came back with a record, by shard",
            labels=("shard",),
        )
        self._m_rejected = m.counter(
            "repro_fleet_rejected_total",
            "Routed queries the shard's admission control shed, by shard",
            labels=("shard",),
        )
        self._m_failed = m.counter(
            "repro_fleet_failed_total",
            "Routed queries lost to transport or shard errors, by shard",
            labels=("shard",),
        )
        self._m_shards = m.gauge(
            "repro_fleet_shards", "Shard processes by state", labels=("state",)
        )
        self._m_latency = m.histogram(
            "repro_fleet_request_seconds",
            "Front-door round-trip time per routed query",
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Fleet":
        """Spawn every shard and wait for all ready handshakes."""
        if self._started:
            raise FleetError("fleet already started")
        self._started = True
        self._epoch = time.monotonic()
        ctx = multiprocessing.get_context("spawn")
        pending: list[tuple[int, Any]] = []
        for shard_id in range(self.num_shards):
            recv_end, send_end = ctx.Pipe(duplex=False)
            spec = replace(self.spec, shard_id=shard_id)
            process = ctx.Process(
                target=run_worker,
                args=(spec, send_end),
                name=f"repro-shard-{shard_id}",
                daemon=True,
            )
            process.start()
            send_end.close()  # parent keeps only the reading end
            self._shards[shard_id] = _Shard(shard_id=shard_id, process=process)
            pending.append((shard_id, recv_end))
        deadline = time.monotonic() + self.start_timeout
        try:
            for shard_id, recv_end in pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not recv_end.poll(timeout=remaining):
                    raise FleetError(
                        f"shard {shard_id} did not hand shake within "
                        f"{self.start_timeout}s"
                    )
                message = recv_end.recv()
                if "error" in message:
                    raise FleetError(
                        f"shard {shard_id} failed to start: {message['error']}"
                    )
                shard = self._shards[shard_id]
                shard.port = int(message["port"])
                shard.client = ShardClient(
                    shard_id, shard.port, timeout=self.request_timeout
                )
        except BaseException:
            self.stop()
            raise
        finally:
            for _, recv_end in pending:
                recv_end.close()
        self._m_shards.set(float(self.num_shards), state="live")
        self._m_shards.set(0.0, state="crashed")
        return self

    def __enter__(self) -> "Fleet":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def alive(self) -> tuple[int, ...]:
        """Shard ids believed live (spawned, handshaken, not crashed)."""
        with self._lock:
            crashed = set(self._crashed)
        return tuple(
            sid
            for sid, shard in sorted(self._shards.items())
            if shard.client is not None and sid not in crashed
        )

    def check(self) -> tuple[int, ...]:
        """Detect crashed shards: a live process must have no exit code.

        Newly crashed shards leave the routing alive-set immediately;
        the consistent-hash ring moves only their keys.  Returns the
        full crashed tuple (stable order).
        """
        with self._lock:
            for sid, shard in self._shards.items():
                if sid in self._crashed or shard.reported:
                    continue
                if shard.process.exitcode is not None:
                    self._crashed.append(sid)
                    if shard.client is not None:
                        shard.client.close()
            crashed = tuple(sorted(self._crashed))
        self._m_shards.set(float(len(self.alive)), state="live")
        self._m_shards.set(float(len(crashed)), state="crashed")
        return crashed

    @property
    def crashed(self) -> tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._crashed))

    def books(self) -> tuple[dict[int, int], dict[int, int]]:
        """The front door's ``(routed, failed)`` books, read from its
        ``repro_fleet_routed_total`` / ``repro_fleet_failed_total``
        counters: every shard id, 0 when never routed."""

        def book(counter) -> dict[int, int]:
            return {
                sid: int(counter.value(shard=str(sid)))
                for sid in range(self.num_shards)
            }

        return book(self._m_routed), book(self._m_failed)

    def ping(self) -> dict[int, dict[str, Any]]:
        """Health-check every live shard over its own socket."""
        self.check()
        out: dict[int, dict[str, Any]] = {}
        for sid in self.alive:
            client = self._shards[sid].client
            assert client is not None
            out[sid] = client.request({"kind": "ping"}, timeout=10.0)
        return out

    # -- the data path ------------------------------------------------------

    def submit(
        self,
        query: Query,
        query_class: str = "default",
        timeout: float | None = None,
    ) -> FleetAnswer:
        """Route one query by affinity and wait for the shard's answer.

        Raises :class:`FleetError` when no shard is live or the routed
        shard fails mid-request (the failure is booked against that
        shard and :meth:`check` runs, so the next submit routes around
        it if the process died).
        """
        key = affinity_key(query)
        shard_id = self.ring.route(key, alive=self.alive)
        client = self._shards[shard_id].client
        assert client is not None
        self._m_routed.inc(shard=str(shard_id))
        tracer = self.spans
        owns_root = False
        traceparent = None
        if tracer is not None:
            # the HTTP front door opens the root before calling submit;
            # direct callers (tests, benchmarks) get one opened here
            if tracer.context(query.query_id) is None:
                root = tracer.open(query.query_id, "frontdoor.request", query_class=query_class)
                owns_root = root is not None
            t_route = tracer.now()
            tracer.record(
                query.query_id,
                "fleet.route",
                t_route,
                t_route,
                track="router",
                shard=shard_id,
                key=key,
            )
            traceparent = tracer.traceparent(query.query_id)
        message = {
            "kind": "query",
            "query": query_to_json(query),
            "class": query_class,
            "timeout": self.request_timeout if timeout is None else timeout,
        }
        if traceparent is not None:
            message["traceparent"] = traceparent
        started = time.monotonic()
        wire_start = tracer.now() if tracer is not None else 0.0
        error: FleetError | None = None
        try:
            response = client.request(message, timeout=timeout)
        except FleetError as exc:
            error = exc
        else:
            self._m_latency.observe(time.monotonic() - started)
        if tracer is not None:
            tracer.record(
                query.query_id,
                "wire.roundtrip",
                wire_start,
                tracer.now(),
                track=f"wire-{shard_id}",
                status="ok" if error is None else "error",
                shard=shard_id,
            )
        label, outcome = str(shard_id), Outcome.FAILED
        try:
            if error is not None:
                self._m_failed.inc(shard=label)
                self.check()
                raise error
            if not response.get("ok", False):
                self._m_failed.inc(shard=label)
                raise FleetError(
                    f"shard {shard_id} failed the query: "
                    f"{response.get('error', 'unknown error')}"
                )
            if not response.get("accepted", False):
                self._m_rejected.inc(shard=label)
                outcome = Outcome.REJECTED
                shed = bool(response.get("shed", False))
                return FleetAnswer(shard_id=shard_id, accepted=False, shed=shed)
            self._m_completed.inc(shard=label)
            answer = FleetAnswer(
                shard_id=shard_id,
                accepted=True,
                cache_hit=bool(response.get("cache_hit", False)),
                record=record_from_json(response["record"]),
            )
            outcome = Outcome.SERVED
            return answer
        finally:
            if owns_root:
                tracer.close(query.query_id, status=outcome.value)

    def maintain(self, limit: int | None = None) -> int:
        """Ask every live shard to run rollup maintenance; total built."""
        total = 0
        for sid in self.alive:
            client = self._shards[sid].client
            assert client is not None
            response = client.request({"kind": "maintain", "limit": limit})
            total += int(response.get("materialized", 0))
        return total

    # -- observation --------------------------------------------------------

    def elapsed(self) -> float:
        return 0.0 if not self._started else time.monotonic() - self._epoch

    def merged_metrics(self) -> MetricsSnapshot:
        """One fleet-wide snapshot: Σ shard snapshots + the front door's."""
        self.check()
        snapshots = [self.registry.collect(self.elapsed())]
        for sid in self.alive:
            client = self._shards[sid].client
            assert client is not None
            response = client.request({"kind": "metrics"}, timeout=10.0)
            snapshots.append(MetricsSnapshot.from_json(response["snapshot"]))
        return merge_snapshots(snapshots)

    def fleet_report(self, drain: bool = True) -> FleetReport:
        """Terminal: drain every live shard, join, and merge the books.

        Each shard drains its engine, runs its local audit, and ships
        its final records + snapshot in the shutdown response.  Crashed
        shards contribute nothing but their routing books — the report
        says so via ``crashed``.
        """
        self.check()
        shard_reports: list[ShardReport] = []
        gathered_spans: list[Span] = []
        for sid in self.alive:
            shard = self._shards[sid]
            assert shard.client is not None
            try:
                response = shard.client.request(
                    {"kind": "shutdown", "drain": drain},
                    timeout=max(self.request_timeout, 120.0),
                )
            except FleetError:
                with self._lock:
                    if sid not in self._crashed:
                        self._crashed.append(sid)
                continue
            shard_reports.append(ShardReport.from_json(response))
            gathered_spans.extend(
                Span.from_dict(s) for s in response.get("spans", ())
            )
            shard.reported = True
        self._join_all()
        self._stopped = True
        merged = merge_snapshots(
            [self.registry.collect(self.elapsed())]
            + [report.snapshot for report in shard_reports]
        )
        crashed = self.crashed
        routed, failed = self.books()
        self._m_shards.set(0.0, state="live")
        self._m_shards.set(float(len(crashed)), state="crashed")
        if self.spans is not None:
            # the front door's own buffer joins the gathered shard
            # buffers; stitch() flags (never drops) traces whose shard
            # subtree died with a crashed process
            self.spans.close_all(status=Outcome.ABANDONED.value)
            gathered_spans.extend(self.spans.drain())
        return FleetReport(
            shards=tuple(shard_reports),
            crashed=crashed,
            routed=routed,
            failed=failed,
            merged=merged,
            drained=drain,
            spans=stitch(gathered_spans, crashed),
        )

    # -- teardown -----------------------------------------------------------

    def _join_all(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        for shard in self._shards.values():
            if shard.client is not None:
                shard.client.close()
            remaining = max(0.1, deadline - time.monotonic())
            shard.process.join(timeout=remaining)
            if shard.process.exitcode is None:
                shard.process.terminate()
                shard.process.join(timeout=5.0)
            if shard.process.exitcode is None:
                # workers ignore SIGTERM (group-signal immunity); escalate
                shard.process.kill()
                shard.process.join(timeout=5.0)

    def stop(self) -> None:
        """Non-drain teardown; safe to call repeatedly / after a report."""
        if self._stopped or not self._started:
            self._stopped = True
            return
        self._stopped = True
        for sid in self.alive:
            client = self._shards[sid].client
            if client is None:
                continue
            try:
                client.request({"kind": "shutdown", "drain": False}, timeout=30.0)
            except FleetError:
                pass
        self._join_all()
        self._m_shards.set(0.0, state="live")
