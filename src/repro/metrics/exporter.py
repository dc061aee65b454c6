"""Prometheus text exposition and the background scrape endpoint.

:func:`render_prometheus` turns a :class:`MetricsSnapshot` into the
text exposition format 0.0.4 (``# HELP`` / ``# TYPE`` headers,
cumulative ``_bucket{le=...}`` lines plus ``_sum`` / ``_count`` for
histograms).  :class:`MetricsExporter` serves it from a daemon
``ThreadingHTTPServer`` thread at ``GET /metrics``.

The handler only ever calls ``registry.collect()``, which takes the
registry lock — never the serving engine's lock — so a slow or stuck
scraper cannot stall query admission, and a scrape mid-run sees one
consistent cut of every counter.
"""

from __future__ import annotations

import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.errors import MetricsError
from repro.metrics.histogram import HistogramSnapshot
from repro.metrics.registry import MetricsRegistry, MetricsSnapshot

__all__ = ["render_prometheus", "MetricsExporter", "CONTENT_TYPE"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _fmt_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(
    names: tuple[str, ...], values: tuple[str, ...], extra: tuple[tuple[str, str], ...] = ()
) -> str:
    pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    pairs += [f'{n}="{_escape_label(v)}"' for n, v in extra]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """Render a snapshot in Prometheus text exposition format 0.0.4."""
    lines: list[str] = []
    for fam in snapshot.families:
        if fam.help:
            lines.append(f"# HELP {fam.name} {_escape_help(fam.help)}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        for key, sample in fam.items():
            if isinstance(sample, HistogramSnapshot):
                cumulative = sample.cumulative_counts()
                bucket_les = [_fmt_value(b) for b in sample.bounds] + ["+Inf"]
                for le, cum in zip(bucket_les, cumulative):
                    labels = _label_str(fam.label_names, key, extra=(("le", le),))
                    lines.append(f"{fam.name}_bucket{labels} {cum}")
                base = _label_str(fam.label_names, key)
                lines.append(f"{fam.name}_sum{base} {_fmt_value(sample.total)}")
                lines.append(f"{fam.name}_count{base} {sample.count}")
            else:
                labels = _label_str(fam.label_names, key)
                lines.append(f"{fam.name}{labels} {_fmt_value(sample)}")
    return "\n".join(lines) + "\n" if lines else ""


class _MetricsHandler(BaseHTTPRequestHandler):
    # bound via a type() subclass per exporter instance
    registry: MetricsRegistry
    now_fn: Callable[[], float]

    def do_GET(self):  # noqa: N802 - http.server API
        if self.path.split("?", 1)[0] not in ("/", "/metrics"):
            self.send_error(404, "only /metrics is served here")
            return
        body = render_prometheus(self.registry.collect(self.now_fn())).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass  # scrapes are routine; keep stderr quiet


class MetricsExporter:
    """Serve ``GET /metrics`` for one registry from a daemon thread.

    ``port=0`` asks the OS for a free port; read :attr:`port` (or
    :attr:`url`) after :meth:`start`.  The exporter is also a context
    manager: ``with MetricsExporter(reg) as exp: ...`` starts and stops
    the server around the block.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
        now_fn: Callable[[], float] | None = None,
    ):
        self._registry = registry
        self._requested_port = port
        self.host = host
        self._now_fn = now_fn if now_fn is not None else (lambda: 0.0)
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.port: int | None = None

    def start(self) -> "MetricsExporter":
        if self._server is not None:
            raise MetricsError("exporter already started")
        handler = type(
            "BoundMetricsHandler",
            (_MetricsHandler,),
            {"registry": self._registry, "now_fn": staticmethod(self._now_fn)},
        )
        self._server = ThreadingHTTPServer((self.host, self._requested_port), handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"metrics-exporter-:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        if self.port is None:
            raise MetricsError("exporter not started")
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        """Release the listening socket; safe to call repeatedly.

        The serve engine calls this from ``stop()``/``drain()`` when it
        owns the exporter, so the port is released the moment the engine
        goes down — a daemonised server thread otherwise keeps the
        socket bound for the life of the process and the next
        ``repro serve`` run in the same process fails to bind it.
        """
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
