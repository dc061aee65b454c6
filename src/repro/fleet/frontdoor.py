"""The fleet's HTTP front door.

Same construction as :class:`~repro.metrics.exporter.MetricsExporter`
— a stdlib ``ThreadingHTTPServer`` on a daemon thread, one handler
subclass bound per server via ``type()`` — but serving the query path,
not just observability:

- ``POST /query``  body ``{"q": "<query text>", "class": "small"}`` —
  parse the textual query language, route by affinity, answer with the
  shard's :class:`~repro.sim.metrics.QueryRecord` as JSON;
- ``GET /metrics`` — the *merged* fleet snapshot (every shard's
  registry plus the front door's ``repro_fleet_*`` families) in
  Prometheus text exposition format;
- ``GET /report`` — live routing books and per-shard health as JSON;
- ``GET /health`` — 200 when every shard is live, 503 with the crashed
  ids when the fleet is partial.

The handler threads only ever touch the :class:`~repro.fleet.fleet.
Fleet` client pool and its books lock — never a shard's engine lock,
which lives in another process entirely.  That process boundary is the
point: a stuck scrape or a slow client cannot stall shard admission.

Connections persist (HTTP/1.1 keep-alive): one handler thread serves a
client's requests on one socket until the client closes it or the
server does, so a closed-loop client pays the TCP handshake and the
thread spawn once, not per query.  Nagle's algorithm is off on every
connection: the handler writes a reply's headers and its body in two
``send`` calls, and with Nagle on, the body of a reply on a kept
connection waits for the client's delayed ACK (~40 ms).  Every reply
carries ``Content-Length``.  A refusal sent before the body is read (400
for no valid ``Content-Length``, 413 for a length over the frame bound)
and every ``send_error`` reply (404, malformed request lines) carry
``Connection: close`` and end the connection, because the unread body
would otherwise be parsed as the next request.  A refusal sent after
the body is read (a bad ``timeout``, a bad query) keeps it.  A client
that is gone when its reply is written ends the connection quietly; its
``frontdoor.request`` root closes as ``abandoned``.  :meth:`FleetServer.
close` shuts down every open connection, so no kept socket outlives the
server.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from repro.core.stages import Outcome
from repro.errors import FleetError, ReproError
from repro.fleet.fleet import Fleet
from repro.fleet.protocol import MAX_FRAME_BYTES, record_to_json
from repro.metrics.exporter import CONTENT_TYPE, render_prometheus

__all__ = ["FleetServer"]


class _FrontDoorHandler(BaseHTTPRequestHandler):
    # bound via a type() subclass per server instance
    fleet: Fleet
    hierarchies: Mapping[str, Any]

    protocol_version = "HTTP/1.1"  # keep-alive: one connection per client
    disable_nagle_algorithm = True  # TCP_NODELAY: see the module docstring

    # -- helpers ------------------------------------------------------------

    def _send(
        self, status: int, data: bytes, content_type: str, *, close: bool = False
    ) -> bool:
        """Write one reply; ``False`` when the client was gone.

        ``close`` ends the connection after this reply.  A failed write
        ends it too, quietly: the client cannot read a reply or an error.
        """
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(data)
        except ConnectionError:
            self.close_connection = True
            return False
        return True

    def _send_json(
        self, status: int, payload: Mapping[str, Any], *, close: bool = False
    ) -> bool:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return self._send(
            status, body, "application/json; charset=utf-8", close=close
        )

    # -- routes -------------------------------------------------------------

    def do_GET(self):  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            try:
                snapshot = self.fleet.merged_metrics()
            except (FleetError, ReproError) as exc:
                self._send_json(503, {"ok": False, "error": str(exc)})
                return
            self._send(200, render_prometheus(snapshot).encode("utf-8"), CONTENT_TYPE)
        elif path == "/report":
            crashed = self.fleet.check()
            routed, failed = self.fleet.books()
            self._send_json(
                200,
                {
                    "ok": True,
                    "alive": list(self.fleet.alive),
                    "crashed": list(crashed),
                    "routed": {str(k): v for k, v in routed.items()},
                    "failed": {str(k): v for k, v in failed.items()},
                    "elapsed": self.fleet.elapsed(),
                },
            )
        elif path in ("/", "/health"):
            crashed = self.fleet.check()
            alive = self.fleet.alive
            healthy = bool(alive) and not crashed
            self._send_json(
                200 if healthy else 503,
                {
                    "ok": healthy,
                    "alive": list(alive),
                    "crashed": list(crashed),
                },
            )
        else:
            self.send_error(404, "serving /query, /metrics, /report, /health")

    def do_POST(self):  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path != "/query":
            self.send_error(404, "POST is only served at /query")
            return
        # checked before a byte of the body is read: a negative length
        # would read until the client closes, a huge one is allocated.
        # Both refusals end the connection: the unread body would be
        # parsed as the next request.
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            length = -1
        if length < 0:
            self._send_json(
                400,
                {"ok": False, "error": "bad request: no valid Content-Length"},
                close=True,
            )
            return
        if length > MAX_FRAME_BYTES:
            self._send_json(
                413,
                {"ok": False, "error": f"body over {MAX_FRAME_BYTES} bytes"},
                close=True,
            )
            return
        try:
            request = json.loads(self.rfile.read(length).decode("utf-8"))
            if not isinstance(request, dict) or "q" not in request:
                raise ValueError('body must be a JSON object with a "q" field')
            timeout = request.get("timeout")
            if timeout is not None:
                timeout = float(timeout)
                if not math.isfinite(timeout) or timeout < 0:
                    raise ValueError("timeout must be a finite number >= 0")
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            self._send_json(400, {"ok": False, "error": f"bad request: {exc}"})
            return
        from repro.query.parser import parse_query

        try:
            query = parse_query(str(request["q"]), self.hierarchies)
        except ReproError as exc:
            self._send_json(400, {"ok": False, "error": f"bad query: {exc}"})
            return
        # The handler owns the frontdoor.request root span so it covers
        # the full HTTP round-trip, including reply serialisation; submit
        # sees the root already open and only adds its stage spans.
        tracer = self.fleet.spans
        query_class = str(request.get("class", "default"))
        root_open = tracer is not None and (
            tracer.open(query.query_id, "frontdoor.request", query_class=query_class) is not None
        )
        outcome, attributes = Outcome.FAILED, {}
        try:
            answer = self.fleet.submit(query, query_class=query_class, timeout=timeout)
        except FleetError as exc:
            attributes["error"] = str(exc)
            self._send_json(503, {"ok": False, "error": str(exc)})
        else:
            payload: dict[str, Any] = {
                "ok": True,
                "shard": answer.shard_id,
                "accepted": answer.accepted,
                "shed": answer.shed,
                "cache_hit": answer.cache_hit,
            }
            if answer.record is not None:
                payload["record"] = record_to_json(answer.record)
            attributes["shed"] = answer.shed
            if not self._send_json(200, payload):
                outcome = Outcome.ABANDONED  # the client left before its answer
            else:
                outcome = Outcome.SERVED if answer.accepted else Outcome.REJECTED
        finally:
            if root_open:
                tracer.close(query.query_id, status=outcome.value, **attributes)

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass  # requests are routine; keep stderr quiet


class _DoorServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that books each open connection with the
    daemon thread serving it, so :meth:`end_connections` can end them.

    ``process_request`` runs on the accept loop, so once ``shutdown()``
    has returned every accepted connection is in the books.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._connections_lock = threading.Lock()
        self._connections: dict[socket.socket, threading.Thread] = {}

    def process_request(self, request, client_address):
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name=f"fleet-frontdoor-conn-:{self.server_port}",
            daemon=True,
        )
        with self._connections_lock:
            self._connections[request] = thread
        thread.start()

    def shutdown_request(self, request):
        # the handler is done with this connection; off the books first,
        # so end_connections never shuts a socket that is being closed
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def end_connections(self, timeout: float) -> None:
        """Shut down every open connection and join its thread.

        A handler waiting for its client's next request reads EOF; one
        still serving a request finds its reply write failing and ends
        quietly.  Either way, the thread returns.
        """
        with self._connections_lock:
            open_now = list(self._connections.items())
            for connection, _ in open_now:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the client already reset it
        deadline = time.monotonic() + timeout
        for _, thread in open_now:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))


class FleetServer:
    """Serve the fleet's HTTP API from a daemon thread.

    ``port=0`` asks the OS for a free port; read :attr:`port` (or
    :attr:`url`) after :meth:`start`.  :meth:`close` is idempotent, so
    shutdown paths can call it unconditionally.
    """

    def __init__(
        self,
        fleet: Fleet,
        port: int = 0,
        host: str = "127.0.0.1",
        hierarchies: Mapping[str, Any] | None = None,
    ):
        if hierarchies is None:
            # the parser only needs dimension shapes, which are a pure
            # function of the schema scale — no dataset build required
            from repro.relational import tpcds_like_schema

            hierarchies = tpcds_like_schema(scale=fleet.spec.scale).hierarchies
        self._fleet = fleet
        self._hierarchies = hierarchies
        self._requested_port = port
        self.host = host
        self._server: _DoorServer | None = None
        self._thread: threading.Thread | None = None
        self.port: int | None = None

    def start(self) -> "FleetServer":
        if self._server is not None:
            raise FleetError("fleet server already started")
        handler = type(
            "BoundFrontDoorHandler",
            (_FrontDoorHandler,),
            {"fleet": self._fleet, "hierarchies": self._hierarchies},
        )
        self._server = _DoorServer((self.host, self._requested_port), handler)
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"fleet-frontdoor-:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        if self.port is None:
            raise FleetError("fleet server not started")
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop accepting, end every open connection and release the
        listening socket; safe to call repeatedly."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.end_connections(timeout=5.0)
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "FleetServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()
