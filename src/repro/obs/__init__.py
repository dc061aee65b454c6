"""repro.obs — distributed span tracing across both planes and the fleet.

The third observability plane.  :mod:`repro.sim.obs` answers *what
happened* to a query (typed lifecycle events), :mod:`repro.metrics`
answers *how much* (counters/histograms); this package answers *where
the time went*, end to end, across process boundaries:

* :mod:`repro.obs.span` — :class:`Span`, :class:`SpanTracer`
  (deterministic seeded head-sampling, thread-safe bounded buffer,
  W3C-traceparent-style context propagation), :func:`stitch`.
* :mod:`repro.obs.hooks` — the span view of the query stage stream
  (:class:`QuerySpans`, a subscriber of ``repro.core.stages``) plus the
  rollup and translator component adapters.
* :mod:`repro.obs.export` — Perfetto/Chrome trace-event JSON export
  (one track per partition/pool/shard) plus the CI schema check.
* :mod:`repro.obs.fileio` — crash-safe (tempfile + ``os.replace``)
  trace-artifact writes, shared with the lifecycle-trace plane.

Stdlib-only and dependency-free: the engines import this package,
never the reverse, and ``repro.sim.validate``'s ``spans`` family
re-derives the determinism contract independently rather than
importing it.
"""

from .export import (
    check_trace_document,
    check_trace_file,
    to_chrome_trace,
    write_trace,
)
from .fileio import atomic_write_lines, atomic_write_text
from .hooks import QuerySpans
from .span import (
    Span,
    SpanTracer,
    format_traceparent,
    head_sampled,
    parse_traceparent,
    stitch,
    trace_id_for,
)

__all__ = [
    "QuerySpans",
    "Span",
    "SpanTracer",
    "atomic_write_lines",
    "atomic_write_text",
    "check_trace_document",
    "check_trace_file",
    "format_traceparent",
    "head_sampled",
    "parse_traceparent",
    "stitch",
    "to_chrome_trace",
    "trace_id_for",
    "write_trace",
]
