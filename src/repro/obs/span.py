"""Distributed span tracing: the causal timeline the trace plane lacks.

:mod:`repro.sim.obs` records *what happened* to a query (typed
lifecycle events); :mod:`repro.metrics` records *how much* (counters
and histograms).  Neither answers the fleet-scale question "where did
this one query's time go" once a submission crosses the process
boundary — front door to shard, shard to partition pool.  This module
adds that third plane:

* :class:`Span` — one named interval ``[start, end]`` on a trace,
  with a parent link, a process identity (clock domain), a track (the
  partition/pool lane it renders on), attributes, and a status.
* :class:`SpanTracer` — the per-process recorder: deterministic seeded
  head-sampling (:func:`head_sampled` — same seed, same rate, same
  ``query_id`` ⇒ same decision in *every* process, run after run), a
  thread-safe bounded buffer, and an active-context table keyed by
  ``query_id`` so instrumentation sites scattered across threads all
  parent under the query's root span without passing handles around.
* :func:`format_traceparent` / :func:`parse_traceparent` — a
  W3C-traceparent-style context field (``00-<trace>-<span>-01``)
  threaded through :mod:`repro.fleet.protocol` query frames, so a
  shard's spans parent correctly under the front door's root.
* :func:`stitch` — merge per-process buffers by ``trace_id`` and flag
  (never drop) trees left partial by a crashed shard.

Everything here is stdlib-only and imports nothing from the rest of
the package: the engines depend on the tracer, never the reverse.

Lock ordering: the tracer's buffer lock is **leaf-level**.  Tracer
methods are called with the engine lock held and call no engine,
pool, registry or catalog code, so no lock can ever be acquired
under it.  It holds no metrics sink either: it keeps its
own totals, and a run's metrics view reads them.

Determinism contract (relied on by ``repro.sim.validate``'s ``spans``
family, which re-derives it independently): ``trace_id`` is the first
16 hex digits of ``blake2b("{seed}:{query_id}")`` and the sampling
decision is ``blake2b("{seed}:span-sample:{query_id}")``'s leading
32 bits, scaled to [0, 1), compared against the rate.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "Span",
    "SpanTracer",
    "format_traceparent",
    "head_sampled",
    "parse_traceparent",
    "stitch",
    "trace_id_for",
]

#: salt that keeps the sampling hash independent of the trace-id hash —
#: otherwise low-rate sampling would bias which trace ids can appear
_SAMPLE_SALT = "span-sample"

#: spans a tracer buffers before counting drops (per process)
DEFAULT_MAX_SPANS = 65_536


def trace_id_for(seed: int, query_id: int) -> str:
    """Deterministic 64-bit trace id (16 hex chars) for one query."""
    return blake2b(f"{seed}:{query_id}".encode(), digest_size=8).hexdigest()


def head_sampled(seed: int, sample_rate: float, query_id: int) -> bool:
    """The head-sampling decision: pure function of (seed, rate, id).

    Every process of a fleet evaluates this identically, so the front
    door and its shards never disagree about which queries are traced,
    and two runs over the same workload sample byte-identical trace-id
    sets.
    """
    if sample_rate >= 1.0:
        return True
    if sample_rate <= 0.0:
        return False
    digest = blake2b(
        f"{seed}:{_SAMPLE_SALT}:{query_id}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest[:4], "big") / 2**32 < sample_rate


def format_traceparent(trace_id: str, span_id: str, sampled: bool = True) -> str:
    """W3C-style context field: ``00-<trace_id>-<span_id>-<flags>``."""
    return f"00-{trace_id}-{span_id}-{'01' if sampled else '00'}"


def parse_traceparent(value: str) -> tuple[str, str, bool]:
    """Inverse of :func:`format_traceparent`; raises ``ValueError``."""
    parts = str(value).split("-")
    if len(parts) != 4 or parts[0] != "00":
        raise ValueError(f"malformed traceparent {value!r}")
    version, trace_id, span_id, flags = parts
    if not trace_id or not span_id:
        raise ValueError(f"malformed traceparent {value!r}")
    return trace_id, span_id, flags == "01"


@dataclass
class Span:
    """One named interval on a trace.

    ``start``/``end`` are monotonic readings in the *recording
    process's* clock domain (``process`` names that domain — timestamps
    are only comparable between spans with equal ``process``).
    ``track`` is the display lane: one per partition/pool/shard, the
    unit the Perfetto export maps to a thread timeline.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float
    process: str = "main"
    track: str = "main"
    status: str = "ok"
    query_id: int | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """Wire/JSON form (the ``spans`` protocol op ships these)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "process": self.process,
            "track": self.track,
            "status": self.status,
            "query_id": self.query_id,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=(
                None if data.get("parent_id") is None else str(data["parent_id"])
            ),
            name=str(data["name"]),
            start=float(data["start"]),
            end=float(data["end"]),
            process=str(data.get("process", "main")),
            track=str(data.get("track", "main")),
            status=str(data.get("status", "ok")),
            query_id=(
                None if data.get("query_id") is None else int(data["query_id"])
            ),
            attributes=dict(data.get("attributes", {})),
        )


@dataclass
class _Active:
    """Per-query open root: the parent every stage span attaches under."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    track: str
    attributes: dict[str, Any]


class SpanTracer:
    """Per-process span recorder with deterministic head-sampling.

    Parameters
    ----------
    sample_rate:
        Fraction of queries traced, decided per ``query_id`` by
        :func:`head_sampled` — deterministic, not random.
    seed:
        Sampling/trace-id seed.  A fleet must use one seed everywhere
        (the front door samples; shards adopt via traceparent).
    process:
        This tracer's clock-domain/process label (``"frontdoor"``,
        ``"shard-0"``, ...).
    clock:
        Monotonic time source.  Engines re-bind this to their injected
        clock via :meth:`bind_clock`, so serve-plane span timestamps
        share the report/trace timebase (and ``FakeClock`` runs are
        deterministic).  Defaults to :func:`time.monotonic`.
    max_spans:
        Buffer bound; spans past it are counted in :attr:`dropped`,
        never silently lost from the books.  Each open root holds one
        slot in reserve, so its :meth:`close` always fits and an
        overflow never leaves a recorded child without its root: an
        :meth:`open` or :meth:`record` is refused (and counted) once the
        buffer plus the open roots reach the bound.

    The running totals — :attr:`seen` sampling decisions, of which
    :attr:`sampled_count` sampled, and :attr:`recorded` / :attr:`dropped`
    spans — cover the tracer's whole life, across every run that used it.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        seed: int = 2012,
        *,
        process: str = "main",
        clock: Callable[[], float] | None = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.sample_rate = float(sample_rate)
        self.seed = int(seed)
        self.process = str(process)
        self.max_spans = int(max_spans)
        self._clock: Callable[[], float] = (
            clock if clock is not None else time.monotonic
        )
        self._lock = threading.Lock()  # LEAF lock: never call out under it
        self._spans: list[Span] = []
        self._active: dict[int, _Active] = {}
        self._adopted: dict[int, tuple[str, str]] = {}
        self._seq: dict[tuple[str, str], int] = {}
        self.recorded = 0
        self.dropped = 0
        self.seen = 0
        self.sampled_count = 0

    # -- clock ---------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Adopt an engine's clock domain (injected ``Clock``-backed)."""
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # -- sampling ------------------------------------------------------------

    def sampled(self, query_id: int) -> bool:
        """This query's head-sampling decision (books one ``seen``)."""
        decision = head_sampled(self.seed, self.sample_rate, query_id)
        with self._lock:
            self.seen += 1
            if decision:
                self.sampled_count += 1
        return decision

    def trace_id_for(self, query_id: int) -> str:
        return trace_id_for(self.seed, query_id)

    # -- context -------------------------------------------------------------

    def adopt(self, query_id: int, traceparent: str) -> None:
        """Adopt an upstream context: the next :meth:`open` for this
        query joins the remote trace (and is force-sampled — the
        upstream head decision travels with the frame)."""
        trace_id, parent_id, sampled = parse_traceparent(traceparent)
        if not sampled:
            return
        with self._lock:
            self._adopted[query_id] = (trace_id, parent_id)

    def context(self, query_id: int) -> tuple[str, str] | None:
        """``(trace_id, root_span_id)`` of the query's open root, if any."""
        with self._lock:
            active = self._active.get(query_id)
            if active is None:
                return None
            return active.trace_id, active.span_id

    def traceparent(self, query_id: int) -> str | None:
        """The context field to thread through an outbound frame."""
        ctx = self.context(query_id)
        if ctx is None:
            return None
        return format_traceparent(ctx[0], ctx[1])

    # -- recording -----------------------------------------------------------

    def _full(self) -> bool:
        # the buffer plus one reserved slot per open root (lock held)
        return len(self._spans) + len(self._active) >= self.max_spans

    def _next_span_id(self, trace_id: str, name: str) -> str:
        # deterministic per (trace, process, name): the n-th occurrence
        # always hashes to the same id, so identically-clocked runs
        # produce identical buffers regardless of thread interleaving
        key = (trace_id, name)
        n = self._seq.get(key, 0)
        self._seq[key] = n + 1
        return blake2b(
            f"{trace_id}:{self.process}:{name}:{n}".encode(), digest_size=8
        ).hexdigest()

    def open(
        self,
        query_id: int,
        name: str,
        *,
        start: float | None = None,
        track: str | None = None,
        **attributes: Any,
    ) -> str | None:
        """Open the query's root span; returns its id, or ``None`` when
        the query is not sampled (every later call for it no-ops).

        An adopted context (see :meth:`adopt`) overrides sampling and
        parents the root under the upstream span.
        """
        when = self.now() if start is None else start
        with self._lock:
            adopted = self._adopted.pop(query_id, None)
        if adopted is not None:
            trace_id, parent_id = adopted
        else:
            if not self.sampled(query_id):
                return None
            trace_id, parent_id = self.trace_id_for(query_id), None
        with self._lock:
            if query_id in self._active:  # resubmitted id: keep the first
                return self._active[query_id].span_id
            if self._full():
                self.dropped += 1
                return None
            span_id = self._next_span_id(trace_id, name)
            self._active[query_id] = _Active(
                trace_id=trace_id,
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                start=when,
                track=self.process if track is None else track,
                attributes=dict(attributes),
            )
        return span_id

    def record(
        self,
        query_id: int,
        name: str,
        start: float,
        end: float,
        *,
        track: str | None = None,
        status: str = "ok",
        **attributes: Any,
    ) -> str | None:
        """Record one finished stage span under the query's open root.

        No-ops (returns ``None``) when the query has no open root —
        that is the entire sampling fast path for unsampled traffic.
        """
        with self._lock:
            active = self._active.get(query_id)
            if active is None:
                return None
            if self._full():
                self.dropped += 1
                span_id = None
            else:
                self.recorded += 1
                span_id = self._next_span_id(active.trace_id, name)
                self._spans.append(
                    Span(
                        trace_id=active.trace_id,
                        span_id=span_id,
                        parent_id=active.span_id,
                        name=name,
                        start=start,
                        end=end,
                        process=self.process,
                        track=self.process if track is None else track,
                        status=status,
                        query_id=query_id,
                        attributes=dict(attributes),
                    )
                )
        return span_id

    def annotate(self, query_id: int, **attributes: Any) -> None:
        """Merge attributes into the query's root span (no-op unless open)."""
        with self._lock:
            active = self._active.get(query_id)
            if active is not None:
                active.attributes.update(attributes)

    def close(
        self,
        query_id: int,
        *,
        end: float | None = None,
        status: str = "ok",
        **attributes: Any,
    ) -> str | None:
        """Close the query's root span and append it to the buffer.

        Idempotent: a second close (or a close for an unsampled query)
        is a no-op, so error paths may close unconditionally.  The root
        always fits: its slot was reserved when it opened.  It also drops
        an :meth:`adopt`-ed context of a query that never opened.
        """
        when = self.now() if end is None else end
        with self._lock:
            self._adopted.pop(query_id, None)
            active = self._active.pop(query_id, None)
            if active is None:
                return None
            self.recorded += 1
            self._spans.append(
                Span(
                    trace_id=active.trace_id,
                    span_id=active.span_id,
                    parent_id=active.parent_id,
                    name=active.name,
                    start=active.start,
                    end=when,
                    process=self.process,
                    track=active.track,
                    status=status,
                    query_id=query_id,
                    attributes={**active.attributes, **attributes},
                )
            )
        return active.span_id

    def close_all(self, *, status: str, end: float | None = None) -> int:
        """Close every open root with ``status`` (a fleet report)."""
        when = self.now() if end is None else end
        with self._lock:
            open_ids = list(self._active)
        for query_id in open_ids:
            self.close(query_id, end=when, status=status)
        return len(open_ids)

    # -- the buffer ----------------------------------------------------------

    def spans(self) -> tuple[Span, ...]:
        """A stable snapshot of the buffer (emission order)."""
        with self._lock:
            return tuple(self._spans)

    def drain(self) -> tuple[Span, ...]:
        """Pop the buffer (the ``spans`` wire op and fleet gather path)."""
        with self._lock:
            spans, self._spans = tuple(self._spans), []
            return spans

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def open_count(self) -> int:
        with self._lock:
            return len(self._active)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"SpanTracer({self.process!r}, rate={self.sample_rate}, "
                f"seed={self.seed}, {len(self._spans)} spans, "
                f"{len(self._active)} open, dropped={self.dropped})"
            )


def stitch(
    spans: Iterable[Span], crashed: Iterable[int] = ()
) -> tuple[Span, ...]:
    """Merge per-process span buffers into one fleet-wide, flagged set.

    Spans are grouped by ``trace_id`` and ordered deterministically
    (trace, process, start, span id).  A trace whose ``wire.roundtrip``
    span targeted a shard in ``crashed`` lost that shard's subtree with
    the process; its root is re-stamped ``status="partial"`` so the
    incomplete tree is *flagged*, never silently dropped — the
    ``spans`` validation family requires exactly this marking.
    """
    crashed_ids = {int(c) for c in crashed}
    merged = sorted(
        spans, key=lambda s: (s.trace_id, s.process, s.start, s.span_id)
    )
    if crashed_ids:
        severed = {
            s.trace_id
            for s in merged
            if s.name == "wire.roundtrip"
            and s.attributes.get("shard") in crashed_ids
        }
        for s in merged:
            if s.trace_id in severed and s.parent_id is None:
                s.status = "partial"
    return tuple(merged)
