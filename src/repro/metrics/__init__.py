"""Live metrics plane: registry, histograms, exposition, SLO monitoring.

Where :mod:`repro.sim.obs` answers "what happened" after a run (the
trace plane), this package answers "what is happening" while one is in
flight (the metrics plane): thread-safe counters/gauges/histograms in a
:class:`MetricsRegistry`, Prometheus text exposition over HTTP, clock-
driven JSONL snapshots, and windowed deadline-SLO burn monitoring.  See
:mod:`repro.metrics.instrument` for the family reference and
the ``metrics`` family of ``repro.sim.validate.audit(snapshot=)`` for
the invariants that reconcile snapshots against the run's
:class:`~repro.sim.metrics.SystemReport` books.
"""

from repro.metrics.exporter import CONTENT_TYPE, MetricsExporter, render_prometheus
from repro.metrics.histogram import (
    CORRECTION_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    HistogramSnapshot,
    LatencyHistogram,
    log_buckets,
)
from repro.metrics.instrument import (
    ObsMetrics,
    RollupMetrics,
    RuntimeMetrics,
)
from repro.metrics.registry import (
    Counter,
    FamilySnapshot,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
)
from repro.metrics.slo import SloEvent, SloMonitor
from repro.metrics.snapshots import SnapshotWriter

__all__ = [
    "CONTENT_TYPE",
    "CORRECTION_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "FamilySnapshot",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "LatencyHistogram",
    "MetricsExporter",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ObsMetrics",
    "RollupMetrics",
    "RuntimeMetrics",
    "SloEvent",
    "SloMonitor",
    "SnapshotWriter",
    "log_buckets",
    "merge_snapshots",
    "render_prometheus",
]
