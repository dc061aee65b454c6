"""Tests for the command-line interface (driven in-process)."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def db_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("db")
    rc = main(["generate", str(directory), "--rows", "5000", "--scale", "0.4",
               "--seed", "3"])
    assert rc == 0
    rc = main(["build", str(directory), "--measure", "sales_price",
               "--resolutions", "0,1,2"])
    assert rc == 0
    return directory


class TestGenerate:
    def test_writes_database_files(self, db_dir):
        assert (db_dir / "schema.json").exists()
        assert (db_dir / "table.npz").exists()
        assert (db_dir / "vocabularies.json").exists()

    def test_output_mentions_rows(self, tmp_path, capsys):
        main(["generate", str(tmp_path / "db2"), "--rows", "100", "--seed", "3"])
        out = capsys.readouterr().out
        assert "100 rows" in out


class TestBuild:
    def test_pyramid_files(self, db_dir):
        assert (db_dir / "pyramid_sales_price.npz").exists()
        assert (db_dir / "pyramid_sales_price.json").exists()

    def test_unknown_measure_fails(self, db_dir, capsys):
        rc = main(["build", str(db_dir), "--measure", "nope"])
        assert rc == 2
        assert "unknown measure" in capsys.readouterr().err


class TestQuery:
    def test_both_paths_agree(self, db_dir, capsys):
        rc = main([
            "query",
            str(db_dir),
            "SELECT sum(sales_price) WHERE date.year = 1",
            "--path",
            "both",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cpu-cube" in out and "gpu" in out and "reference-scan" in out

    def test_text_query_translates(self, db_dir, capsys):
        import json

        vocab = json.loads((db_dir / "vocabularies.json").read_text())
        city = vocab["store__city"][0].replace("'", r"\'")
        rc = main([
            "query",
            str(db_dir),
            f"SELECT sum(sales_price) WHERE store.city = '{city}'",
            "--path",
            "gpu",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "translated 1 text parameter" in out

    def test_parse_error_is_reported(self, db_dir, capsys):
        rc = main(["query", str(db_dir), "SELECT sum(sales_price) WHERE ???"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    #: with no telemetry flag the books are still audited, and say so
    BOOKS_AUDITED = "audit: ok (dependency, discipline, conservation, drift checked)"

    def test_table1(self, capsys):
        rc = main(["simulate", "table1", "--threads", "8", "--queries", "400"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "throughput" in out
        assert self.BOOKS_AUDITED in out

    def test_gpu_only(self, capsys):
        rc = main(["simulate", "gpu-only", "--queries", "400"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Q_G" in out
        assert self.BOOKS_AUDITED in out

    def test_table3_reports_sustainable_rate(self, capsys):
        rc = main(["simulate", "table3", "--threads", "8", "--queries", "400"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max sustainable rate" in out
        assert self.BOOKS_AUDITED in out

    def test_a_violated_invariant_fails_the_command(self, monkeypatch, capsys):
        from repro.sim import HybridSystem, seed_violation

        healthy = HybridSystem.run
        monkeypatch.setattr(
            HybridSystem,
            "run",
            lambda self, *args, **kwargs: seed_violation(
                healthy(self, *args, **kwargs), "conservation"
            ),
        )
        rc = main(["simulate", "table1", "--queries", "120"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "[conservation]" in captured.err
        assert "audit:" not in captured.out


class TestParser:
    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestGroupedQueryCLI:
    def test_grouped_query_prints_groups(self, db_dir, capsys):
        rc = main([
            "query",
            str(db_dir),
            "SELECT sum(sales_price) BY date.year",
            "--limit",
            "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "groups by (date@0)" in out

    def test_grouped_query_cpu_path(self, db_dir, capsys):
        rc = main([
            "query",
            str(db_dir),
            "SELECT count(*) BY store.region",
            "--path",
            "cpu",
        ])
        assert rc == 0
        assert "groups by" in capsys.readouterr().out


class TestSimulateTrace:
    def test_trace_flag_writes_jsonl_and_dashboard(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run.jsonl"
        rc = main(
            ["simulate", "table2", "--queries", "120", "--trace", str(trace)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace:" in out
        assert "booked T_Q backlog" in out  # the dashboard rendered
        assert "audit: ok (dependency, discipline, conservation, drift, trace checked)" in out
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        kinds = {r["kind"] for r in records if r["record"] == "event"}
        assert {"arrival", "estimated", "decision", "service_finish",
                "feedback"} <= kinds
        assert any(r["record"] == "sample" for r in records)

    def test_table3_trace_prints_probe_history(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        rc = main(
            ["simulate", "table3", "--queries", "120", "--trace", str(trace)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "max sustainable rate" in out
        assert "probes; best sustained offered rate" in out
        assert "probe  1:" in out
        assert trace.exists()

class TestSimulateMetrics:
    def test_metrics_snapshots_flag_writes_jsonl_and_dashboard(
        self, tmp_path, capsys
    ):
        import json

        path = tmp_path / "metrics.jsonl"
        rc = main(
            ["simulate", "table2", "--queries", "120",
             "--metrics-snapshots", str(path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "live metrics @" in out  # the metrics dashboard rendered
        assert "completions q/s" in out
        snapshots = [json.loads(line) for line in path.read_text().splitlines()]
        assert snapshots, "no snapshots written"
        names = {f["name"] for f in snapshots[-1]["families"]}
        assert "repro_queries_submitted_total" in names
        assert "repro_query_latency_seconds" in names
        # the pool families come from the stage stream on this plane too
        assert "repro_pool_tasks_total" in names

    def test_metrics_compose_with_trace(self, tmp_path, capsys):
        rc = main(
            ["simulate", "table1", "--queries", "80",
             "--trace", str(tmp_path / "run.jsonl"),
             "--metrics-snapshots", str(tmp_path / "metrics.jsonl")]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "booked T_Q backlog" in out  # trace dashboard
        assert "live metrics @" in out  # metrics dashboard


@pytest.mark.wallclock
class TestServeMetricsCLI:
    def test_serve_with_full_metrics_plane(self, tmp_path, capsys):
        import json
        import urllib.error
        import urllib.request

        path = tmp_path / "metrics.jsonl"
        # port 0: the OS picks a free port; the URL is printed early
        rc = main(
            ["serve", "--duration", "0.5", "--rate", "30", "--rows", "2000",
             "--metrics-port", "0", "--metrics-snapshots", str(path),
             "--slo", "0.9"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "metrics: Prometheus text at http://127.0.0.1:" in out
        assert "SLO: hit rate" in out
        assert "live metrics @" in out
        # the one audit line, same shape as simulate's: serve always
        # traces, and this run is metered
        (line,) = [row for row in out.splitlines() if row.startswith("audit: ")]
        assert line.startswith("audit: ok (dependency, discipline, conservation")
        assert line.endswith("trace, metrics checked)")
        snapshots = [json.loads(line) for line in path.read_text().splitlines()]
        assert snapshots
        # the endpoint is down once the run is over
        url = out.split("Prometheus text at ", 1)[1].splitlines()[0]
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url, timeout=2.0)


@pytest.mark.wallclock
class TestFleetCommand:
    def test_fleet_serves_drains_and_audits(self, capsys):
        rc = main(
            ["fleet", "--shards", "2", "--rows", "600", "--duration", "1",
             "--cpu-threads", "1", "--port", "0"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fleet front door: http://127.0.0.1:" in out
        assert "shards live: [0, 1]" in out
        assert "fleet audit: ok" in out
