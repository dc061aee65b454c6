"""BENCH-METRICS — cost of the live metrics plane on the serving path.

Two identical wall-clock serve runs on the Table-3-shaped workload: one
bare, one carrying the full metrics plane (registry instrumentation on
every hook, snapshot writer, SLO monitor).  The instrumentation is a
handful of dict updates behind one uncontended lock per event, so the
paced end-to-end run must cost within 5% of the bare one — observability
that slows the system down distorts the very numbers it reports.

The instrumented run's registry is also reconciled against the report
(the ``metrics`` family of ``audit``), so the overhead number is only accepted when the
metrics it paid for are actually correct.
"""

import math
import time

import pytest

from repro.core.perfmodel import XEON_X5667_8T
from repro.gpu import SimulatedGPU
from repro.gpu.partitioning import paper_partition_scheme
from repro.gpu.timing import TESLA_C2070_TIMING
from repro.metrics import MetricsRegistry, SloMonitor, SnapshotWriter
from repro.olap import CubePyramid
from repro.query.workload import ArrivalProcess, QueryClass, WorkloadSpec
from repro.relational import generate_dataset, tpcds_like_schema
from repro.serve import MaterialisedExecutor, OpenLoopGenerator, ServeEngine
from repro.sim.system import SystemConfig
from repro.sim.validate import assert_valid
from repro.text import TranslationService, build_dictionaries
from repro.units import GB

DURATION = 2.0
RATE = 60.0
ROWS = 10_000
SEED = 2012
MAX_OVERHEAD = 0.05


def build_world():
    schema = tpcds_like_schema(scale=0.5)
    dataset = generate_dataset(schema, num_rows=ROWS, seed=SEED)
    pyramid = CubePyramid.from_fact_table(dataset.table, "sales_price", [0, 1, 2])
    translator = TranslationService(
        build_dictionaries(dataset.vocabularies), schema.hierarchies
    )
    device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    device.load_table(dataset.table)
    config = SystemConfig(
        cpu_model=XEON_X5667_8T.with_overhead(0.002),
        pyramid=pyramid,
        device=device,
        scheme=paper_partition_scheme(),
        translation_service=translator,
        time_constraint=0.5,
    )
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
        seed=SEED,
    )
    return config, workload


def serve_once(instrumented: bool):
    """One paced serve run; returns (serve seconds, report, final snapshot)."""
    config, workload = build_world()
    n_queries = math.ceil(DURATION * RATE)
    stream = workload.generate(n_queries, ArrivalProcess("poisson", rate=RATE))
    registry = slo = snapshots = None
    if instrumented:
        registry = MetricsRegistry()
        slo = SloMonitor(target=0.9, window=60.0, registry=registry)
        snapshots = SnapshotWriter(registry, interval=DURATION / 20.0)
    engine = ServeEngine(
        config,
        executor=MaterialisedExecutor(config),
        metrics=registry,
        slo=slo,
        snapshots=snapshots,
    )
    start = time.perf_counter()
    with engine:
        OpenLoopGenerator(engine, shed=True).run(stream)
    elapsed = time.perf_counter() - start
    report = engine.report()
    snapshot = registry.collect(engine.elapsed) if instrumented else None
    return elapsed, report, snapshot


@pytest.mark.experiment("BENCH-METRICS", "Metrics-plane overhead on the serving path")
def test_metrics_overhead(benchmark, report):
    plain_time, plain_report, _ = serve_once(instrumented=False)
    metered_time, metered_report, snapshot = benchmark.pedantic(
        serve_once, args=(True,), rounds=1, iterations=1
    )

    # the paid-for metrics must be correct before the cost is credited
    assert_valid(plain_report, require_drained=True)
    assert_valid(metered_report, require_drained=True, snapshot=snapshot)

    overhead = metered_time / plain_time - 1.0
    report.row("bare serve", "-", f"{plain_time:.3f} s")
    report.row("instrumented serve", "-", f"{metered_time:.3f} s")
    report.row(
        "overhead", f"< {MAX_OVERHEAD:.0%}", f"{overhead:+.2%}"
    )
    report.row(
        "metric families exported", "-", str(len(snapshot.families))
    )
    benchmark.extra_info["overhead"] = overhead

    # both runs completed their load; the plane itself stays cheap
    assert metered_report.completed == plain_report.completed
    assert overhead < MAX_OVERHEAD
