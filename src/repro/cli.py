"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the life-cycle of a hybrid OLAP deployment:

- ``generate``  — synthesise a TPC-DS-flavoured database directory
  (fact table + vocabularies);
- ``build``     — pre-calculate a cube pyramid for a measure and store
  it next to the table (the database-build step of Section III-F);
- ``query``     — answer one textual query from a database directory,
  on the CPU cube path, the simulated GPU path, or both (cross-checked);
- ``simulate``  — run a Section-IV experiment (table1/table2/table3/
  gpu-only) at paper scale and print the report.

Each command is a plain function over parsed arguments, so the test
suite drives them in-process (no subprocess fixtures needed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


# -- commands ------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.io import save_dataset
    from repro.relational import generate_dataset, tpcds_like_schema

    schema = tpcds_like_schema(scale=args.scale)
    dataset = generate_dataset(schema, num_rows=args.rows, seed=args.seed)
    directory = save_dataset(dataset, args.directory)
    print(f"wrote {dataset.table.num_rows} rows, "
          f"{schema.total_columns} columns to {directory}")
    for spec in schema.text_columns:
        print(f"  text column {spec.name}: "
              f"{len(dataset.vocabularies[spec.name])} dictionary entries")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    from repro.io import load_table, save_pyramid
    from repro.olap import CubePyramid
    from repro.units import fmt_bytes

    table = load_table(args.directory)
    if args.measure not in table.schema.measures:
        raise ReproError(
            f"unknown measure {args.measure!r}; table has {table.schema.measures}"
        )
    resolutions = [int(r) for r in args.resolutions.split(",")]
    pyramid = CubePyramid.from_fact_table(table, args.measure, resolutions)
    save_pyramid(pyramid, args.directory)
    print(f"built pyramid for {args.measure!r}: {len(pyramid.levels)} levels, "
          f"{fmt_bytes(pyramid.total_nbytes)}")
    for level in pyramid.levels:
        print(f"  resolutions {level.resolutions}: "
              f"{fmt_bytes(pyramid.level_nbytes(level))}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.gpu import SimulatedGPU
    from repro.io import load_dataset, load_pyramid
    from repro.query.parser import parse_query
    from repro.text import TranslationService, build_dictionaries
    from repro.units import GB

    dataset = load_dataset(args.directory)
    table = dataset.table
    hierarchies = table.schema.hierarchies
    query = parse_query(args.query, hierarchies)

    if query.needs_translation:
        translator = TranslationService(
            build_dictionaries(dataset.vocabularies), hierarchies
        )
        result = translator.translate(query)
        query = result.query
        print(f"translated {result.parameters_translated} text parameter(s)")

    if query.group_by:
        return _grouped_query(args, dataset, query)

    answers = {}
    if args.path in ("cpu", "both"):
        pyramid = load_pyramid(args.directory, args.measure)
        answers["cpu-cube"] = pyramid.answer(query)
    if args.path in ("gpu", "both"):
        device = SimulatedGPU(global_memory_bytes=8 * GB)
        device.load_table(table)
        execution = device.execute_query(query, n_sm=args.sms)
        answers["gpu"] = execution.value
        print(f"gpu: scanned {execution.column_fraction:.0%} of columns in "
              f"{execution.simulated_time * 1e3:.2f} ms (simulated, {args.sms} SMs)")
    reference = table.execute(query).value()
    answers["reference-scan"] = reference

    for path, value in answers.items():
        print(f"  {path:<15s}: {value:,.4f}")
    for value in answers.values():
        if not np.isclose(value, reference, equal_nan=True):
            print("ANSWER MISMATCH across paths", file=sys.stderr)
            return 1
    return 0


def _grouped_query(args: argparse.Namespace, dataset, query) -> int:
    """Grouped-query branch of ``repro query``: print one row per group."""
    import numpy as np

    from repro.gpu import SimulatedGPU
    from repro.groupby import groupby_from_table
    from repro.units import GB

    table = dataset.table
    reference = groupby_from_table(table, query)
    results = {"reference-scan": reference}
    if args.path in ("gpu", "both"):
        device = SimulatedGPU(global_memory_bytes=8 * GB)
        device.load_table(table)
        gpu_result, elapsed = device.execute_groupby(query, n_sm=args.sms)
        results["gpu"] = gpu_result
        print(f"gpu: {elapsed * 1e3:.2f} ms (simulated, {args.sms} SMs)")
    if args.path in ("cpu", "both"):
        from repro.io import load_pyramid

        pyramid = load_pyramid(args.directory, args.measure)
        results["cpu-cube"] = pyramid.answer_grouped(query)

    labels = ", ".join(f"{dim}@{res}" for dim, res in query.group_by)
    print(f"groups by ({labels}):")
    for coords, value in sorted(reference.cells.items())[: args.limit]:
        print(f"  {coords}: {value:,.4f}")
    if reference.num_groups > args.limit:
        print(f"  ... {reference.num_groups - args.limit} more groups")
    for name, result in results.items():
        if result.cells.keys() != reference.cells.keys() or any(
            not np.isclose(result.cells[k], v, equal_nan=True)
            for k, v in reference.cells.items()
        ):
            print(f"ANSWER MISMATCH on path {name}", file=sys.stderr)
            return 1
    return 0


# -- the telemetry epilogue, one helper per artifact ---------------------------


def _write_lifecycle_trace(collector, path: Path) -> None:
    """Write the lifecycle trace as JSONL and say what it holds."""
    n_lines = collector.write_jsonl(path)
    counts = ", ".join(
        f"{kind}={n}" for kind, n in sorted(collector.event_counts().items())
    )
    print(f"\ntrace: {n_lines} JSONL records -> {path}")
    print(f"trace events: {counts}")


def _show_metrics(snapshots, path: Path | None) -> None:
    """Draw the metrics dashboard and name the snapshot file, if any."""
    from repro.report import render_metrics_dashboard

    print()
    print(render_metrics_dashboard(snapshots.snapshots, width=64))
    if path is not None:
        print(f"metrics: {len(snapshots.snapshots)} snapshots -> {path}")


def _write_spans(spans, path: Path, described: str) -> None:
    """Write the span set as Perfetto JSON, say so, and draw the trees."""
    from repro.obs import write_trace
    from repro.report import render_spans

    n_events = write_trace(path, spans)
    print(f"spans: {len(spans)} {described} ({n_events} Perfetto events) -> {path}")
    if spans:
        print(render_spans(spans))


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.paper import (
        TABLE3_TEXT_PROB,
        cpu_only_config,
        gpu_only_config,
        paper_system_config,
        paper_workload,
    )
    from repro.query.workload import ArrivalProcess
    from repro.sim import HybridSystem, TraceCollector
    from repro.sim.capacity import max_sustainable_rate
    from repro.sim.validate import audit

    collector = TraceCollector() if args.trace is not None else None
    registry = snapshots = None
    if args.metrics_snapshots is not None:
        from repro.metrics import MetricsRegistry, SnapshotWriter

        registry = MetricsRegistry()
        # simulated seconds: paper runs span minutes of virtual time
        snapshots = SnapshotWriter(
            registry, path=args.metrics_snapshots, interval=1.0
        )
    tracer = None
    if args.spans is not None:
        from repro.obs import SpanTracer

        tracer = SpanTracer(args.span_sample, seed=args.seed, process="sim")

    if args.experiment == "table1":
        config = cpu_only_config(threads=args.threads, include_32gb=False)
        workload = paper_workload(include_32gb=False, seed=args.seed)
    elif args.experiment == "table2":
        config = cpu_only_config(threads=args.threads, include_32gb=True)
        workload = paper_workload(include_32gb=True, seed=args.seed)
    elif args.experiment == "gpu-only":
        config = gpu_only_config()
        workload = paper_workload(include_32gb=True, text_prob=1.0, seed=args.seed)
    else:  # table3
        config = paper_system_config(threads=args.threads, include_32gb=True)
        workload = paper_workload(
            include_32gb=True, text_prob=TABLE3_TEXT_PROB, seed=args.seed
        )

    submitted: list[int] = []
    if args.experiment == "table3":
        result = max_sustainable_rate(
            config, workload, n_queries=args.queries, hit_target=0.9
        )
        report = result.report
        print(f"max sustainable rate: {result.rate:.1f} q/s offered")
        stream = None
        if collector is not None or registry is not None or tracer is not None:
            if collector is not None:
                # probe-history telemetry: how the bisection reached its answer
                print(result.explain())
            # replay the best sustained probe with observability attached —
            # the workload stream for (spec, n, rate) is deterministic, so
            # this reproduces the reported run exactly
            stream = workload.generate(
                args.queries, ArrivalProcess("uniform", rate=result.rate)
            )
    else:
        stream = workload.generate(args.queries)
    if stream is not None:
        submitted = [tq.query.query_id for tq in stream]
        report = HybridSystem(config).run(
            stream,
            collector=collector,
            metrics=registry,
            snapshots=snapshots,
            spans=tracer,
        )
    print(report.summary())
    spans = tracer.spans() if tracer is not None else None
    verdict = audit(
        report,
        require_drained=True,
        collector=collector,
        snapshot=snapshots.snapshots[-1] if snapshots is not None else None,
        spans=spans,
        seed=args.seed,
        sample_rate=args.span_sample,
        submitted=submitted,
    )
    verdict.raise_if_bad()
    print(f"audit: {verdict.summary()}")
    if collector is not None:
        from repro.report import render_dashboard

        _write_lifecycle_trace(collector, args.trace)
        print(render_dashboard(report, collector, width=64))
    if snapshots is not None:
        _show_metrics(snapshots, args.metrics_snapshots)
    if tracer is not None:
        print()
        _write_spans(spans, args.spans, f"spans over {tracer.sampled_count} sampled trace(s)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a live workload in wall-clock time (the ``repro.serve`` plane).

    Unlike ``simulate`` this executes *real* work — cube aggregations,
    kernel-substitute scans, dictionary lookups — against a laptop-sized
    materialised world built in-process, then reports realised q/s per
    partition in the layout of the paper's Table 3 and audits the run
    with the same invariant families as simulated runs.
    """
    import math

    from repro.fleet.worker import ShardSpec, build_serve_world
    from repro.query.workload import ArrivalProcess, QueryClass, WorkloadSpec
    from repro.serve import OpenLoopGenerator, ServeEngine
    from repro.sim import TraceCollector
    from repro.sim.validate import audit

    # metrics plane first: the scrape endpoint comes up before the world
    # build, so an operator (or the CI curl loop) can poll it immediately
    # even while the dataset is still being materialised
    metrics_enabled = (
        args.metrics_port is not None
        or args.metrics_snapshots is not None
        or args.slo is not None
        or args.adapt
    )
    registry = exporter = slo = snapshots = None
    if metrics_enabled:
        from repro.metrics import (
            MetricsExporter,
            MetricsRegistry,
            SloMonitor,
            SnapshotWriter,
        )

        registry = MetricsRegistry()
        snapshots = SnapshotWriter(
            registry,
            path=args.metrics_snapshots,
            interval=max(args.duration / 64.0, 0.05),
        )
        if args.slo is not None:
            slo = SloMonitor(target=args.slo, registry=registry)
        if args.metrics_port is not None:
            exporter = MetricsExporter(registry, port=args.metrics_port)
            exporter.start()
            print(f"metrics: Prometheus text at {exporter.url}")

    # the one serve world (the fleet's shards build the same one)
    config, dataset = build_serve_world(
        ShardSpec(
            shard_id=0,
            rows=args.rows,
            seed=args.seed,
            scheduler=args.scheduler,
            time_constraint=args.time_constraint,
            translation_workers=args.translation_workers,
        )
    )
    schema = dataset.schema
    workload = WorkloadSpec(
        schema.dimensions,
        [
            QueryClass("small", 0.6, resolution=1, coverage=(0.1, 0.5)),
            QueryClass(
                "mid",
                0.25,
                resolution=2,
                dims_constrained=(1, 2),
                coverage=(0.5, 1.0),
                text_prob=0.5,
            ),
            QueryClass("fine", 0.15, resolution=3, coverage=(0.2, 0.8)),
        ],
        measures=("sales_price",),
        text_levels=list(schema.text_levels),
        vocabularies=dataset.vocabularies,
        seed=args.seed,
    )
    n_queries = max(1, math.ceil(args.duration * args.rate))
    stream = workload.generate(
        n_queries, ArrivalProcess("poisson", rate=args.rate)
    )

    adapt_plane = None
    if args.adapt:
        from repro.adapt import AdaptivePlane

        adapt_plane = AdaptivePlane(
            target=args.slo if args.slo is not None else 0.9,
            window=max(args.duration / 4.0, 1.0),
        )

    tracer = None
    if args.spans is not None:
        from repro.obs import SpanTracer

        tracer = SpanTracer(args.span_sample, seed=args.seed, process="serve")

    collector = TraceCollector(sample_series=args.trace is not None)
    engine = ServeEngine(
        config,
        collector=collector,
        metrics=registry,
        slo=slo,
        snapshots=snapshots,
        exporter=exporter,  # engine-owned: the port is released at stop()
        max_in_flight=args.max_in_flight,
        cpu_threads=args.cpu_threads,
        adapt=adapt_plane,
        spans=tracer,
    )
    print(
        f"serving {n_queries} queries over ~{args.duration:.0f}s at "
        f"{args.rate:.0f} q/s offered ({args.scheduler} scheduler, "
        f"{args.rows} rows)..."
    )
    try:
        with engine:  # start; drain on exit
            load = OpenLoopGenerator(
                engine, shed=True, batch_size=args.batch_size
            ).run(stream)
        report = engine.report()
        spans = tracer.spans() if tracer is not None else None
        adapt_report = adapt_plane.report() if adapt_plane is not None else None
        # no sampling-exactness context for the spans: an open-loop
        # generator may shed arrivals before the engine ever sees them,
        # so the traced set is a subset of the stream's head-sampled ids
        # by design
        verdict = audit(
            report,
            require_drained=True,
            collector=collector,
            snapshot=registry.collect(engine.elapsed) if registry is not None else None,
            spans=spans,
            adapt=adapt_report,
        )
        verdict.raise_if_bad()
    finally:
        if exporter is not None:
            exporter.close()

    print(
        f"offered {load.offered} | accepted {load.accepted} | "
        f"rejected {load.rejected} | shed {load.shed} "
        f"(wall time {load.duration:.2f}s)"
    )
    print()
    print(report.summary())
    print(f"audit: {verdict.summary()}")
    print()
    print("Table 3 (wall-clock):")
    print(f"  {'partition':<12s}{'queries':>8s}{'q/s':>8s}{'util':>7s}")
    for target in sorted(report.timelines):
        # realised jobs per station (counts translation work on Q_TRANS,
        # which never appears as a record's final target)
        count = len(report.timelines[target])
        rate = count / report.makespan if report.makespan > 0 else 0.0
        util = report.utilisations.get(target, 0.0)
        print(f"  {target:<12s}{count:>8d}{rate:>8.1f}{100 * util:>6.0f}%")
    print(f"  {'CPU total':<12s}{'':>8s}{report.target_rate('Q_CPU'):>8.1f}")
    print(f"  {'GPU total':<12s}{'':>8s}{report.target_rate('Q_G'):>8.1f}")
    print(f"  {'overall':<12s}{'':>8s}{report.queries_per_second:>8.1f}")

    if args.trace is not None:
        _write_lifecycle_trace(collector, args.trace)
    if tracer is not None:
        print()
        _write_spans(spans, args.spans, f"spans over {tracer.sampled_count} sampled trace(s)")
    if registry is not None:
        _show_metrics(snapshots, args.metrics_snapshots)
    if slo is not None:
        crossings = ", ".join(
            f"{e.kind}@{e.time:.2f}s" for e in slo.events
        ) or "none"
        print(
            f"SLO: hit rate {slo.hit_rate:.3f} vs target {slo.target:.2f} "
            f"(burn {slo.burn_rate:.2f}, crossings: {crossings})"
        )
    if adapt_report is not None:
        refits = sum(1 for e in adapt_report.epochs if e.trigger == "refit")
        print(
            f"adapt: repro_adapt_model_epoch "
            f"{adapt_report.epochs[-1].version} ({refits} refits, "
            f"{adapt_report.samples_ingested} samples, "
            f"{adapt_report.poisoned} poisoned), "
            f"{len(adapt_report.reconfigs)} reconfigurations"
        )
        for epoch in adapt_report.epochs:
            if epoch.trigger == "refit":
                print(
                    f"  epoch@{epoch.time:.2f}s v{epoch.version} refit "
                    f"{'+'.join(epoch.families)} "
                    f"(clamped: {len(epoch.clamped)})"
                )
        for rec in adapt_report.reconfigs:
            print(
                f"  reconfiguration@{rec.time:.2f}s {rec.action} "
                f"{rec.value_before} -> {rec.value_after} ({rec.trigger})"
            )
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Shard the serving plane across worker processes (``repro.fleet``).

    Spawns ``--shards`` worker processes (each a full serving engine over
    its own replica of the materialised world), puts the HTTP front door
    in front of them, and serves until ``--duration`` elapses or a
    SIGINT/SIGTERM arrives — either way the fleet drains gracefully,
    merges the per-shard books, and audits them (and the stitched spans,
    under ``--spans``) with :func:`repro.sim.validate.validate_fleet`
    before exiting 0.
    """
    import signal
    import threading
    import time

    from repro.fleet import Fleet, FleetServer, ShardSpec
    from repro.sim.validate import validate_fleet

    tracer = None
    if args.spans is not None:
        from repro.obs import SpanTracer

        tracer = SpanTracer(
            args.span_sample, seed=args.seed, process="frontdoor"
        )
    spec = ShardSpec(
        shard_id=0,
        rows=args.rows,
        seed=args.seed,
        scheduler=args.scheduler,
        time_constraint=args.time_constraint,
        cpu_threads=args.cpu_threads,
        translation_workers=args.translation_workers,
        max_in_flight=args.max_in_flight,
        span_sample=args.span_sample if args.spans is not None else 0.0,
    )
    stop = threading.Event()
    previous_handlers = {
        signum: signal.signal(signum, lambda *_: stop.set())
        for signum in (signal.SIGINT, signal.SIGTERM)
    }

    print(
        f"spawning {args.shards} shard(s) "
        f"({args.rows} rows each, {args.scheduler} scheduler)..."
    )
    fleet = Fleet(args.shards, spec=spec, spans=tracer)
    fleet.start()
    server = FleetServer(fleet, port=args.port)
    server.start()
    print(
        f"fleet front door: {server.url} "
        "(POST /query, GET /metrics /report /health)"
    )
    print(f"shards live: {list(fleet.alive)}")
    try:
        deadline = (
            None if args.duration is None else time.monotonic() + args.duration
        )
        while not stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                break
            stop.wait(timeout=0.25)
            crashed = fleet.check()
            if crashed and not fleet.alive:
                print("error: every shard has crashed", file=sys.stderr)
                break
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        server.close()
        report = fleet.fleet_report(drain=True)

    print()
    print(report.summary())
    for shard in report.shards:
        print(
            f"  shard {shard.shard_id}: {shard.completed} completed, "
            f"{shard.hit_count} cache hits, {shard.rejected} rejected "
            f"| local audit: {shard.validation}"
        )
    if report.crashed:
        print(
            f"warning: shard(s) {list(report.crashed)} crashed; "
            "fleet report is partial",
            file=sys.stderr,
        )
    verdict = validate_fleet(report)
    verdict.raise_if_bad()
    print(f"fleet audit: {verdict.summary()}")
    if tracer is not None:
        processes = len({s.process for s in report.spans})
        _write_spans(
            report.spans, args.spans, f"stitched spans across {processes} process(es)"
        )
    return 1 if report.crashed else 0


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from repro.core import SCHEDULERS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid GPU-accelerated OLAP system (Malik et al. 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesise a database directory")
    p.add_argument("directory", type=Path)
    p.add_argument("--rows", type=int, default=100_000)
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=2012)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="pre-calculate a cube pyramid")
    p.add_argument("directory", type=Path)
    p.add_argument("--measure", default="sales_price")
    p.add_argument("--resolutions", default="0,1,2",
                   help="comma-separated uniform resolutions")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="answer one textual query")
    p.add_argument("directory", type=Path)
    p.add_argument("query", help="e.g. \"SELECT sum(sales_price) WHERE date.year = 1\"")
    p.add_argument("--path", choices=("cpu", "gpu", "both"), default="both")
    p.add_argument("--measure", default="sales_price")
    p.add_argument("--sms", type=int, default=4)
    p.add_argument("--limit", type=int, default=20,
                   help="max groups printed for grouped queries")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("simulate", help="run a Section-IV experiment")
    p.add_argument(
        "experiment", choices=("table1", "table2", "table3", "gpu-only")
    )
    p.add_argument("--threads", type=int, default=8, choices=(1, 4, 8))
    p.add_argument("--queries", type=int, default=1500)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trace", type=Path, default=None, metavar="PATH",
                   help="write a JSONL lifecycle trace + partition telemetry "
                        "to PATH and print the observability dashboard "
                        "(for table3: also the capacity probe history)")
    p.add_argument("--metrics-snapshots", type=Path, default=None, metavar="PATH",
                   help="attach the live metrics plane, write periodic JSONL "
                        "registry snapshots to PATH, reconcile them against "
                        "the report, and print the metrics dashboard")
    p.add_argument("--spans", type=Path, default=None, metavar="PATH",
                   help="attach the span tracer (repro.obs), validate the "
                        "span tree against the run books, and write a "
                        "Perfetto/Chrome trace-event JSON file to PATH")
    p.add_argument("--span-sample", type=float, default=1.0, metavar="R",
                   help="deterministic head-sampling rate for --spans "
                        "(0.0-1.0, default 1.0)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "serve",
        help="serve a live workload in wall-clock time (repro.serve)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "flag summary:\n"
            "  --duration SECONDS        target serving window (default 5.0)\n"
            "  --rate Q_PER_S            offered Poisson arrival rate (default 50)\n"
            "  --scheduler NAME          hybrid | gpu-only | fastest-first | admission\n"
            "  --rows N                  fact-table rows for the in-process database\n"
            "  --seed N                  workload / dataset seed (default 2012)\n"
            "  --time-constraint T_C     per-query deadline in seconds (default 0.5)\n"
            "  --cpu-threads N           ParallelAggregator threads (default 4)\n"
            "  --translation-workers N   text-translation pool size (default 1)\n"
            "  --max-in-flight N         admission bound; excess is shed (default 256)\n"
            "  --batch-size N            admit arrivals in batches of N\n"
            "  --trace PATH              JSONL lifecycle trace (repro.sim.obs)\n"
            "  --metrics-port N          live Prometheus text endpoint (0 = any port)\n"
            "  --metrics-snapshots PATH  periodic JSONL registry snapshots\n"
            "  --slo TARGET              windowed deadline-SLO burn monitor\n"
            "  --spans PATH              Perfetto span trace (repro.obs); every\n"
            "                            stage of each sampled query as one tree\n"
            "  --span-sample R           deterministic head-sampling rate for\n"
            "                            --spans (default 1.0)\n"
            "  --adapt                   attach the adapt plane: online model\n"
            "                            recalibration + SLO-driven capacity control\n"
            "\n"
            "The metrics flags attach the live metrics plane (tutorial section 8).\n"
            "--spans records one span tree per head-sampled query (tutorial\n"
            "section 15).  --adapt defends the --slo target (default 0.9) and\n"
            "prints every installed model epoch and capacity reconfiguration.\n"
            "One call, repro.sim.validate.audit, reconciles the drained report\n"
            "with the final snapshot (family metrics), the span trees (spans)\n"
            "and the adaptive history (adapt), and prints one audit line."
        ),
    )
    p.add_argument("--duration", type=float, default=5.0,
                   help="target serving window in seconds")
    p.add_argument("--rate", type=float, default=50.0,
                   help="offered Poisson arrival rate (queries/second)")
    p.add_argument(
        "--scheduler",
        choices=tuple(SCHEDULERS),
        default="hybrid",
    )
    p.add_argument("--rows", type=int, default=10_000,
                   help="fact-table rows for the in-process database")
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--time-constraint", type=float, default=0.5,
                   help="per-query deadline T_C in seconds")
    p.add_argument("--cpu-threads", type=int, default=4,
                   help="ParallelAggregator threads on the CPU partition")
    p.add_argument("--translation-workers", type=int, default=1)
    p.add_argument("--max-in-flight", type=int, default=256,
                   help="admission bound; excess arrivals are shed")
    p.add_argument("--batch-size", type=int, default=None, metavar="N",
                   help="buffer arrivals and admit them N at a time, "
                        "one engine lock hold per chunk")
    p.add_argument("--trace", type=Path, default=None, metavar="PATH",
                   help="write the JSONL lifecycle trace to PATH")
    p.add_argument("--metrics-port", type=int, default=None, metavar="N",
                   help="serve Prometheus text at http://127.0.0.1:N/metrics "
                        "for the duration of the run (0 = any free port)")
    p.add_argument("--metrics-snapshots", type=Path, default=None, metavar="PATH",
                   help="write periodic JSONL metrics snapshots to PATH")
    p.add_argument("--slo", type=float, default=None, metavar="TARGET",
                   help="monitor the windowed deadline hit rate against "
                        "TARGET (e.g. 0.9) and report burn + crossings")
    p.add_argument("--spans", type=Path, default=None, metavar="PATH",
                   help="attach the span tracer (repro.obs) and write a "
                        "Perfetto/Chrome trace-event JSON file to PATH")
    p.add_argument("--span-sample", type=float, default=1.0, metavar="R",
                   help="deterministic head-sampling rate for --spans "
                        "(0.0-1.0, default 1.0)")
    p.add_argument("--adapt", action="store_true",
                   help="attach the adapt plane (repro.adapt): online model "
                        "recalibration plus an SLO-driven capacity controller "
                        "defending the --slo target (default 0.9)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="shard the serving plane across worker processes (repro.fleet)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "flag summary:\n"
            "  --shards N                worker processes to spawn (default 2)\n"
            "  --port N                  front-door HTTP port (0 = any free port)\n"
            "  --duration SECONDS        serve window; omit to run until SIGTERM\n"
            "  --rate/--rows/--seed/--scheduler/--time-constraint/\n"
            "  --cpu-threads/--translation-workers/--max-in-flight\n"
            "                            per-shard world knobs, as in `repro serve`\n"
            "  --spans PATH              fleet-wide Perfetto span trace: the\n"
            "                            front door stamps a traceparent on\n"
            "                            every sampled query frame and the\n"
            "                            drained shards' spans are stitched\n"
            "                            into one tree per query\n"
            "  --span-sample R           deterministic head-sampling rate for\n"
            "                            --spans (default 1.0)\n"
            "\n"
            "SIGINT/SIGTERM drain the fleet gracefully: every shard finishes\n"
            "its in-flight queries, ships its records + metrics snapshot, and\n"
            "the merged books (and, under --spans, the stitched span trees) are\n"
            "audited by repro.sim.validate.validate_fleet before the process\n"
            "exits 0."
        ),
    )
    p.add_argument("--shards", type=int, default=2,
                   help="worker processes to spawn")
    p.add_argument("--port", type=int, default=0,
                   help="front-door HTTP port (0 = any free port)")
    p.add_argument("--duration", type=float, default=None,
                   help="serve window in seconds; omit to run until SIGTERM")
    p.add_argument(
        "--scheduler",
        choices=tuple(SCHEDULERS),
        default="hybrid",
    )
    p.add_argument("--rows", type=int, default=10_000,
                   help="fact-table rows in each shard's replica")
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--time-constraint", type=float, default=0.5,
                   help="per-query deadline T_C in seconds")
    p.add_argument("--cpu-threads", type=int, default=2,
                   help="ParallelAggregator threads per shard")
    p.add_argument("--translation-workers", type=int, default=1)
    p.add_argument("--max-in-flight", type=int, default=256,
                   help="per-shard admission bound; excess is shed")
    p.add_argument("--spans", type=Path, default=None, metavar="PATH",
                   help="stitch a fleet-wide span trace and write it as "
                        "Perfetto/Chrome trace-event JSON to PATH")
    p.add_argument("--span-sample", type=float, default=1.0, metavar="R",
                   help="deterministic head-sampling rate for --spans "
                        "(0.0-1.0, default 1.0)")
    p.set_defaults(func=cmd_fleet)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
