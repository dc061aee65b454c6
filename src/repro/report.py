"""ASCII chart rendering for benchmark reports and run dashboards.

The reproduction benchmarks regenerate the *data* behind the paper's
figures; this module renders that data as terminal-friendly charts so
``benchmarks/results/*.txt`` shows the curves themselves (bandwidth vs
size, time vs columns, time vs dictionary length), not just coefficient
tables.  :func:`render_dashboard` extends the same idea to simulated
runs: the partition Gantt next to per-partition sparklines of the
booked :math:`T_Q` backlog and the realised queue depth, from a
:class:`~repro.sim.obs.TraceCollector`'s telemetry.  No plotting
dependency required.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.metrics.registry import MetricsSnapshot
    from repro.sim.metrics import SystemReport
    from repro.sim.obs import TraceCollector

__all__ = [
    "ascii_plot",
    "sparkline",
    "render_dashboard",
    "render_metrics_dashboard",
    "render_spans",
]

_MARKERS = "o+x*#@%&"


def _transform(value: float, log: bool) -> float:
    if log:
        if value <= 0:
            raise ReproError(f"log-scale axis cannot show non-positive value {value}")
        return math.log10(value)
    return value


def ascii_plot(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 64,
    height: int = 16,
    logx: bool = False,
    logy: bool = False,
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """Render one or more (x, y) series as an ASCII scatter chart.

    Each series gets a marker from ``o + x * ...``; overlapping points
    show the later series' marker.  Axis ranges cover all series; log
    axes are supported (the figures' natural scales).

    >>> print(ascii_plot({"f": [(1, 1), (2, 4), (3, 9)]}, width=20, height=5))
    ... # doctest: +SKIP
    """
    if not series:
        raise ReproError("ascii_plot needs at least one series")
    if width < 8 or height < 4:
        raise ReproError("chart must be at least 8x4 characters")
    points_by_label = {
        label: [( _transform(x, logx), _transform(y, logy)) for x, y in pts]
        for label, pts in series.items()
        if pts
    }
    if not points_by_label:
        raise ReproError("every series is empty")

    xs = [x for pts in points_by_label.values() for x, _ in pts]
    ys = [y for pts in points_by_label.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for i, (label, pts) in enumerate(points_by_label.items()):
        marker = _MARKERS[i % len(_MARKERS)]
        legend.append(f"{marker} {label}")
        for x, y in pts:
            col = round((x - x_lo) / x_span * (width - 1))
            row = height - 1 - round((y - y_lo) / y_span * (height - 1))
            grid[row][col] = marker

    def fmt(v: float, log: bool) -> str:
        raw = 10**v if log else v
        if raw != 0 and (abs(raw) >= 1e4 or abs(raw) < 1e-2):
            return f"{raw:.1e}"
        return f"{raw:.3g}"

    lines = []
    y_top = fmt(y_hi, logy)
    y_bot = fmt(y_lo, logy)
    margin = max(len(y_top), len(y_bot))
    for r, row in enumerate(grid):
        if r == 0:
            label = y_top.rjust(margin)
        elif r == height - 1:
            label = y_bot.rjust(margin)
        else:
            label = " " * margin
        lines.append(f"{label} |{''.join(row)}")
    lines.append(" " * margin + " +" + "-" * width)
    x_left = fmt(x_lo, logx)
    x_right = fmt(x_hi, logx)
    pad = width - len(x_left) - len(x_right)
    lines.append(
        " " * (margin + 2) + x_left + " " * max(1, pad) + x_right
    )
    scale = []
    if logx:
        scale.append("log x")
    if logy:
        scale.append("log y")
    scale_s = f"  [{', '.join(scale)}]" if scale else ""
    lines.append(" " * (margin + 2) + f"{xlabel} vs {ylabel}{scale_s}   " + "  ".join(legend))
    return "\n".join(lines)


# -- run dashboards (repro.sim.obs telemetry) ----------------------------

_SPARK_LEVELS = " .:-=+*#"


def sparkline(values: Sequence[float], peak: float | None = None) -> str:
    """Render a sequence of non-negative values as one character row.

    Each value maps to one of 8 density levels, scaled by ``peak``
    (default: the sequence's own maximum).  An all-zero sequence renders
    blank — an idle partition is visibly idle.
    """
    if peak is None:
        peak = max(values, default=0.0)
    if peak <= 0:
        return " " * len(values)
    top = len(_SPARK_LEVELS) - 1
    out = []
    for v in values:
        level = int(round(max(0.0, min(v, peak)) / peak * top))
        # any non-zero signal stays visible, however small
        if v > 0 and level == 0:
            level = 1
        out.append(_SPARK_LEVELS[level])
    return "".join(out)


def _resample_step(
    points: Sequence[tuple[float, float]], horizon: float, width: int
) -> list[float]:
    """Bucket an event-time step signal onto ``width`` cells.

    Each cell takes the maximum of the samples falling in it; empty
    cells carry the previous cell's value forward (the signal persists
    between events).
    """
    cell = horizon / width
    values: list[float | None] = [None] * width
    for t, v in points:
        i = min(int(t / cell), width - 1) if cell > 0 else 0
        current = values[i]
        values[i] = v if current is None else max(current, v)
    out: list[float] = []
    last = 0.0
    for v in values:
        if v is not None:
            last = v
        out.append(last)
    return out


def render_dashboard(
    report: "SystemReport",
    collector: "TraceCollector",
    width: int = 64,
    metrics: "Sequence[MetricsSnapshot] | None" = None,
) -> str:
    """Partition Gantt + booked/realised sparklines for one traced run.

    The Gantt block (see :func:`repro.sim.trace.render_gantt`) shows
    *realised service*; below it, each partition gets two sparkline
    rows from the collector's :class:`~repro.sim.obs.PartitionSample`
    series — the scheduler's booked :math:`T_Q` backlog in seconds and
    the realised queue depth (waiting + in service) in jobs.  Reading
    the two against each other shows exactly where the books and the
    physical system diverge.

    ``metrics`` (a sequence of :class:`~repro.metrics.registry.
    MetricsSnapshot`, e.g. ``SnapshotWriter.snapshots``) appends the
    live-metrics view of :func:`render_metrics_dashboard`, so simulated
    and served runs share one dashboard path.
    """
    from repro.sim.trace import render_gantt

    if not collector.series:
        raise ReproError(
            "render_dashboard needs partition telemetry; run the system "
            "with a TraceCollector(sample_series=True) attached"
        )
    horizon = report.horizon
    if horizon <= 0:
        raise ReproError("nothing to render: zero horizon")
    lines = [
        render_gantt(
            report.timelines,
            horizon=horizon,
            width=width,
            capacities=report.capacities,
        ),
        "",
    ]
    names = [n for n in report.timelines if n in collector.series] or sorted(
        collector.series
    )
    label_width = max(len(n) for n in names)
    for name in names:
        samples = collector.series[name]
        backlog = _resample_step(
            [(s.time, s.backlog) for s in samples], horizon, width
        )
        depth = _resample_step(
            [(s.time, float(s.queue_depth + s.in_service)) for s in samples],
            horizon,
            width,
        )
        lines.append(
            f"{name:>{label_width}} booked T_Q backlog "
            f"|{sparkline(backlog)}| peak {max(backlog):.3g} s"
        )
        lines.append(
            f"{'':>{label_width}} realised jobs      "
            f"|{sparkline(depth)}| peak {max(depth):.0f}"
        )
    lines.append(
        f"{'':>{label_width}} (booked backlog from the scheduler's T_Q books; "
        "realised jobs = waiting + in service)"
    )
    if metrics:
        lines += ["", render_metrics_dashboard(metrics, width=width)]
    return "\n".join(lines)


# -- live metrics view (repro.metrics snapshots) -------------------------


def _rate_points(
    snapshots: "Sequence[MetricsSnapshot]", family: str, key: tuple[str, ...]
) -> list[tuple[float, float]]:
    """Per-interval rate of one cumulative counter sample."""
    points: list[tuple[float, float]] = []
    prev_t: float | None = None
    prev_v = 0.0
    for snap in snapshots:
        fam = snap.family(family)
        value = float(fam.samples.get(key, 0.0)) if fam is not None else 0.0
        if prev_t is not None and snap.time > prev_t:
            points.append((snap.time, (value - prev_v) / (snap.time - prev_t)))
        prev_t, prev_v = snap.time, value
    return points


def _p95_points(
    snapshots: "Sequence[MetricsSnapshot]", family: str, key: tuple[str, ...]
) -> list[tuple[float, float]]:
    """Windowed p95 between consecutive cumulative histogram snapshots."""
    points: list[tuple[float, float]] = []
    prev = None
    for snap in snapshots:
        fam = snap.family(family)
        hist = fam.samples.get(key) if fam is not None else None
        if hist is None:
            continue
        window = hist if prev is None else hist.minus(prev)
        if window.count > 0:
            p95 = window.quantile_bound(0.95)
            if math.isfinite(p95):
                points.append((snap.time, p95))
        prev = hist
    return points


def render_metrics_dashboard(
    snapshots: "Sequence[MetricsSnapshot]", width: int = 64
) -> str:
    """Live view of a run's metrics snapshots (sim and serve alike).

    For each placement target: the per-interval completion rate (q/s)
    and the windowed p95 end-to-end latency, as sparklines over the
    run, with the latest cumulative totals alongside.  When the
    registry carries :class:`~repro.metrics.slo.SloMonitor` gauges, an
    SLO row shows the burn-rate history and the latest windowed hit
    rate against the target.  Input is any non-empty sequence of
    :class:`~repro.metrics.registry.MetricsSnapshot` in time order —
    typically ``SnapshotWriter.snapshots`` or JSONL re-reads.
    """
    if not snapshots:
        raise ReproError(
            "render_metrics_dashboard needs at least one metrics snapshot; "
            "attach a SnapshotWriter to the run"
        )
    latest = snapshots[-1]
    horizon = latest.time
    if horizon <= 0:
        raise ReproError("nothing to render: zero metrics horizon")

    completed = latest.family("repro_queries_completed_total")
    targets = [key[0] for key, _ in completed.items()] if completed is not None else []
    lines = [
        f"live metrics @ t={horizon:.3g}s "
        f"({len(snapshots)} snapshot{'s' if len(snapshots) != 1 else ''})"
    ]
    label_width = max((len(t) for t in targets), default=8)
    for target in targets:
        key = (target,)
        total = completed.samples.get(key, 0.0)
        rate = _resample_step(
            _rate_points(snapshots, "repro_queries_completed_total", key),
            horizon,
            width,
        )
        lines.append(
            f"{target:>{label_width}} completions q/s   "
            f"|{sparkline(rate)}| peak {max(rate):.3g}  total {total:g}"
        )
        latency = latest.family("repro_query_latency_seconds")
        hist = latency.samples.get(key) if latency is not None else None
        if hist is not None and hist.count > 0:
            p95 = _resample_step(
                _p95_points(snapshots, "repro_query_latency_seconds", key),
                horizon,
                width,
            )
            lines.append(
                f"{'':>{label_width}} p95 latency (s)   "
                f"|{sparkline(p95)}| run p95 {hist.quantile_bound(0.95):.3g}"
            )
    burn_fam = latest.family("repro_slo_burn_rate")
    if burn_fam is not None:
        burn = _resample_step(
            [
                # clamp: target=1.0 burns infinitely on any miss
                (s.time, min(float(f.samples.get((), 0.0)), 1e9))
                for s in snapshots
                if (f := s.family("repro_slo_burn_rate")) is not None
            ],
            horizon,
            width,
        )
        hit = latest.value("repro_slo_hit_rate")
        target_v = latest.value("repro_slo_target")
        lines.append(
            f"{'SLO':>{label_width}} budget burn       "
            f"|{sparkline(burn)}| hit rate {hit:.3f} vs target {target_v:g}"
        )
    lines.append(
        f"{'':>{label_width}} (rates per snapshot interval; p95 from "
        "windowed histogram deltas)"
    )
    return "\n".join(lines)


# -- span view (repro.obs traces) ----------------------------------------


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def render_spans(spans, width: int = 48) -> str:
    """Per-stage self-time table + slowest-trace waterfall for a span set.

    Input is any iterable of :class:`repro.obs.span.Span`-shaped
    objects (a tracer's :meth:`~repro.obs.span.SpanTracer.spans`, or
    the stitched set on :attr:`repro.fleet.fleet.FleetReport.spans`).
    Two blocks:

    * **stage table** — for every ``(process, stage)`` pair, the count
      and the p50/p95 of *self-time*: a span's duration minus its
      same-process children's durations, so a root's row shows
      orchestration overhead rather than double-counting the work its
      children already account for (cross-process children run on
      unaligned clocks and are never subtracted);
    * **waterfall** — the slowest trace (by root duration), one bar per
      span positioned against the root's window, children indented
      under their parents.  Spans from another process are anchored at
      the ``wire.roundtrip`` span that carried them, so a fleet trace
      reads as one timeline despite the clock-domain break.
    """
    spans = tuple(spans)
    if not spans:
        raise ReproError(
            "render_spans needs at least one span; run with a SpanTracer "
            "attached and a non-zero sample rate"
        )

    # -- self-time table -------------------------------------------------
    # same-process children only: a shard subtree's durations live in
    # another clock domain and belong to the shard's own rows
    child_time: dict[tuple[str, str, str], float] = {}
    for span in spans:
        if span.parent_id is None:
            continue
        key = (span.trace_id, span.parent_id, span.process)
        child_time[key] = child_time.get(key, 0.0) + span.duration
    stage_self: dict[tuple[str, str], list[float]] = {}
    for span in spans:
        owned = child_time.get((span.trace_id, span.span_id, span.process), 0.0)
        self_time = max(0.0, span.duration - owned)
        stage_self.setdefault((span.process, span.name), []).append(self_time)

    traces = {s.trace_id for s in spans}
    lines = [
        f"span self-time by stage ({len(spans)} spans, "
        f"{len(traces)} trace{'s' if len(traces) != 1 else ''})"
    ]
    proc_w = max(max(len(p) for p, _ in stage_self), len("process"))
    stage_w = max(max(len(n) for _, n in stage_self), len("stage"))
    lines.append(
        f"{'process':<{proc_w}}  {'stage':<{stage_w}}  "
        f"{'count':>5}  {'p50 (s)':>10}  {'p95 (s)':>10}"
    )
    for (process, name), values in sorted(stage_self.items()):
        lines.append(
            f"{process:<{proc_w}}  {name:<{stage_w}}  {len(values):>5}  "
            f"{_percentile(values, 0.50):>10.6f}  "
            f"{_percentile(values, 0.95):>10.6f}"
        )

    # -- slowest-trace waterfall -----------------------------------------
    roots = [s for s in spans if s.parent_id is None]
    if not roots:
        return "\n".join(lines)
    root = max(roots, key=lambda s: s.duration)
    members = [s for s in spans if s.trace_id == root.trace_id]
    index = {s.span_id: s for s in members}

    def depth(span) -> int:
        d, cur = 0, span
        while cur.parent_id is not None and cur.parent_id in index:
            cur = index[cur.parent_id]
            d += 1
            if d > len(members):  # defensive: a cycle would hang us
                break
        return d

    # rebase each foreign process onto the root's clock at the wire
    # span that carried it there (falling back to the root's start)
    offsets = {root.process: 0.0}
    for process in {s.process for s in members} - {root.process}:
        first = min(
            (s.start for s in members if s.process == process), default=0.0
        )
        anchor = root.start
        for s in members:
            if s.name == "wire.roundtrip" and s.process == root.process:
                anchor = s.start
                break
        offsets[process] = anchor - first
    span_total = root.duration or 1.0

    qid = "" if root.query_id is None else f"query {root.query_id}, "
    lines += [
        "",
        f"slowest trace {root.trace_id} ({qid}{root.duration:.6f} s, "
        f"status {root.status})",
    ]
    name_w = max(len(s.name) + depth(s) for s in members)
    ordered = sorted(members, key=lambda s: (s.start + offsets[s.process], depth(s)))
    for span in ordered:
        rebased = span.start + offsets[span.process] - root.start
        left = int(max(0.0, min(1.0, rebased / span_total)) * width)
        right = int(
            max(0.0, min(1.0, (rebased + span.duration) / span_total)) * width
        )
        bar = " " * left + "=" * max(1, right - left)
        label = " " * depth(span) + span.name
        lines.append(
            f"{span.process:<{proc_w}}  {label:<{name_w}} "
            f"|{bar:<{width}}| {span.duration:.6f} s"
        )
    return "\n".join(lines)
