"""Tests for the ASCII chart renderer."""

import pytest

from repro.errors import ReproError
from repro.report import ascii_plot


class TestAsciiPlot:
    @staticmethod
    def _grid(chart, height):
        return [r.split("|", 1)[1] for r in chart.splitlines()[:height]]

    def test_renders_markers(self):
        chart = ascii_plot({"f": [(0, 0), (1, 1), (2, 2)]}, width=20, height=6)
        grid = "".join(self._grid(chart, 6))
        assert grid.count("o") == 3

    def test_multiple_series_get_distinct_markers(self):
        chart = ascii_plot(
            {"a": [(0, 0)], "b": [(1, 1)]}, width=20, height=6
        )
        assert "o a" in chart and "+ b" in chart
        assert "o" in chart and "+" in chart

    def test_extremes_map_to_corners(self):
        chart = ascii_plot({"f": [(0, 0), (10, 10)]}, width=20, height=6)
        rows = chart.splitlines()
        # max y on the first grid row, min y on the last
        assert "o" in rows[0]
        assert "o" in rows[5]
        # leftmost and rightmost columns used
        grid_rows = [r.split("|", 1)[1] for r in rows[:6]]
        assert grid_rows[5][0] == "o"
        assert grid_rows[0].rstrip().endswith("o")

    def test_monotone_series_is_monotone_in_grid(self):
        pts = [(x, x * x) for x in range(1, 9)]
        chart = ascii_plot({"f": pts}, width=32, height=10)
        rows = [r.split("|", 1)[1] for r in chart.splitlines()[:10]]
        cols = sorted(
            (line.index("o"), 10 - r) for r, line in enumerate(rows) if "o" in line
        )
        heights = [h for _, h in cols]
        assert heights == sorted(heights)

    def test_log_axes(self):
        pts = [(10**i, 10 ** (2 * i)) for i in range(4)]
        chart = ascii_plot({"f": pts}, logx=True, logy=True, width=30, height=8)
        assert "log x" in chart and "log y" in chart

    def test_log_axis_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            ascii_plot({"f": [(0.0, 1.0)]}, logx=True)

    def test_constant_series(self):
        chart = ascii_plot({"f": [(0, 5), (1, 5), (2, 5)]}, width=12, height=4)
        grid = "".join(self._grid(chart, 4))
        assert grid.count("o") == 3

    def test_axis_labels_present(self):
        chart = ascii_plot(
            {"f": [(1, 2)]}, xlabel="size [MB]", ylabel="time [s]", width=12, height=4
        )
        assert "size [MB] vs time [s]" in chart

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            ascii_plot({})
        with pytest.raises(ReproError):
            ascii_plot({"f": []})

    def test_too_small_rejected(self):
        with pytest.raises(ReproError):
            ascii_plot({"f": [(0, 0)]}, width=2, height=2)

    def test_duplicate_points_overlap(self):
        chart = ascii_plot({"a": [(1, 1)], "b": [(1, 1)]}, width=12, height=4)
        # later series wins the cell
        assert "+" in chart.splitlines()[3] or "+" in chart


def _two_process_trace():
    from repro.obs.span import Span

    return [
        Span("t1", "a", None, "fleet.request", 0.0, 10.0, process="frontdoor", query_id=7),
        Span("t1", "b", "a", "fleet.route", 0.5, 1.5, process="frontdoor", query_id=7),
        Span("t1", "c", "a", "wire.roundtrip", 2.0, 9.0, process="frontdoor", query_id=7),
        # recorded by the shard, on the shard's own clock
        Span("t1", "d", "c", "serve.query", 100.0, 106.0, process="shard-0", query_id=7),
        Span("t1", "e", "d", "pool.service", 101.0, 105.0, process="shard-0", query_id=7),
    ]


TWO_PROCESS_RENDERING = """\
span self-time by stage (5 spans, 1 trace)
process    stage           count     p50 (s)     p95 (s)
frontdoor  fleet.request       1    2.000000    2.000000
frontdoor  fleet.route         1    1.000000    1.000000
frontdoor  wire.roundtrip      1    7.000000    7.000000
shard-0    pool.service        1    4.000000    4.000000
shard-0    serve.query         1    2.000000    2.000000

slowest trace t1 (query 7, 10.000000 s, status ok)
frontdoor  fleet.request   |================================================| 10.000000 s
frontdoor   fleet.route    |  =====                                         | 1.000000 s
frontdoor   wire.roundtrip |         ==================================     | 7.000000 s
shard-0      serve.query   |         =============================          | 6.000000 s
shard-0       pool.service |              ===================               | 4.000000 s"""


class TestRenderSpans:
    def test_two_process_trace_renders_table_and_waterfall(self):
        from repro.report import render_spans

        assert render_spans(_two_process_trace()) == TWO_PROCESS_RENDERING

    def test_self_time_subtracts_same_process_children_only(self):
        from repro.report import render_spans

        rows = {
            tuple(line.split()[:2]): float(line.split()[3])
            for line in render_spans(_two_process_trace()).splitlines()[2:7]
        }
        # the root: 10 s minus fleet.route (1 s) and wire.roundtrip (7 s)
        assert rows[("frontdoor", "fleet.request")] == 2.0
        # the wire span keeps all 7 s: its child serve.query (6 s) was
        # timed by the shard's clock and belongs to the shard's rows
        assert rows[("frontdoor", "wire.roundtrip")] == 7.0
        assert rows[("shard-0", "serve.query")] == 2.0

    def test_twenty_thousand_spans_render_quickly(self):
        import time

        from repro.obs.span import Span
        from repro.report import render_spans

        spans = []
        for t in range(5_000):
            trace, start = f"t{t}", float(t)
            spans.append(Span(trace, "r", None, "serve.query", start, start + 0.9))
            for i in range(3):
                lo = start + 0.1 + 0.2 * i
                spans.append(Span(trace, f"c{i}", "r", "pool.service", lo, lo + 0.2))
        start = time.perf_counter()
        text = render_spans(spans)
        elapsed = time.perf_counter() - start
        assert "(20000 spans, 5000 traces)" in text
        # one pass to sum children; scanning all spans per span took
        # 14.9 s here
        assert elapsed < 2.0, f"render_spans took {elapsed:.2f}s for 20 000 spans"
