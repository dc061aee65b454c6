"""BENCH-OBS — cost of the span-tracing plane on the serving path.

Three identical wall-clock serve runs on the Table-3-shaped workload:
bare, fully sampled (rate 1.0), and head-sampled at 10%.  A span is a
couple of clock reads and one append under a leaf-level lock, and an
unsampled query pays exactly one hash + one dict miss per hook, so the
paced end-to-end run must cost within 5% of bare at full sampling and
within 1% at 10% — tracing that distorts the latencies it measures is
worse than no tracing.

The traced runs' span trees are reconciled against their own reports
(the ``spans`` family of ``audit``), so the overhead number is only credited when the
spans it paid for are structurally sound and agree with the books.
"""

import math
import time

import pytest

from repro.core.perfmodel import XEON_X5667_8T
from repro.gpu import SimulatedGPU
from repro.gpu.partitioning import paper_partition_scheme
from repro.gpu.timing import TESLA_C2070_TIMING
from repro.obs import SpanTracer
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
MAX_OVERHEAD_FULL = 0.05
MAX_OVERHEAD_SAMPLED = 0.01


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


def serve_once(sample_rate: float | None):
    """One paced serve run; returns (serve seconds, report, tracer)."""
    config, workload = build_world()
    n_queries = math.ceil(DURATION * RATE)
    stream = workload.generate(n_queries, ArrivalProcess("poisson", rate=RATE))
    tracer = (
        None
        if sample_rate is None
        else SpanTracer(sample_rate, seed=SEED, process="serve")
    )
    engine = ServeEngine(
        config,
        executor=MaterialisedExecutor(config),
        spans=tracer,
    )
    start = time.perf_counter()
    with engine:
        OpenLoopGenerator(engine, shed=True).run(stream)
    elapsed = time.perf_counter() - start
    return elapsed, engine.report(), tracer


@pytest.mark.experiment("BENCH-OBS", "Span-tracing overhead on the serving path")
def test_obs_overhead(benchmark, report):
    bare_time, bare_report, _ = serve_once(None)
    full_time, full_report, full_tracer = benchmark.pedantic(
        serve_once, args=(1.0,), rounds=1, iterations=1
    )
    sampled_time, sampled_report, sampled_tracer = serve_once(0.1)

    # the paid-for spans must be correct before the cost is credited
    # (no sampling context: an open-loop generator sheds arrivals the
    # engine never sees, so the traced set is a subset by design)
    assert_valid(bare_report, require_drained=True)
    full_spans, sampled_spans = full_tracer.spans(), sampled_tracer.spans()
    assert_valid(full_report, require_drained=True, spans=full_spans)
    assert_valid(sampled_report, require_drained=True, spans=sampled_spans)
    assert full_spans and full_tracer.dropped == 0
    assert 0 < sampled_tracer.sampled_count < full_tracer.sampled_count

    full_overhead = full_time / bare_time - 1.0
    sampled_overhead = sampled_time / bare_time - 1.0
    report.row("bare serve", "-", f"{bare_time:.3f} s")
    report.row("traced serve (sample 1.0)", "-", f"{full_time:.3f} s")
    report.row("traced serve (sample 0.1)", "-", f"{sampled_time:.3f} s")
    report.row(
        "overhead @ 1.0", f"< {MAX_OVERHEAD_FULL:.0%}", f"{full_overhead:+.2%}"
    )
    report.row(
        "overhead @ 0.1",
        f"< {MAX_OVERHEAD_SAMPLED:.0%}",
        f"{sampled_overhead:+.2%}",
    )
    report.row("spans @ 1.0", "-", str(len(full_spans)))
    report.row("spans @ 0.1", "-", str(len(sampled_spans)))
    benchmark.extra_info["overhead_full"] = full_overhead
    benchmark.extra_info["overhead_sampled"] = sampled_overhead

    # paced runs: all three served comparable load; tracing stays cheap
    assert full_overhead < MAX_OVERHEAD_FULL
    assert sampled_overhead < MAX_OVERHEAD_SAMPLED
