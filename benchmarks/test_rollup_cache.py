"""BENCH-ROLLUP — rollup cache payoff on a skewed serving workload.

A Table-3-style dashboard workload is heavily shape-skewed: 95% of
queries reuse three hot group-by shapes with fresh parameter ranges,
5% are cold probes on a dimension the catalog never covers.  Both runs execute the *same*
query list closed-loop through the live serving engine with real
materialised execution; the cached run additionally carries a
:class:`~repro.olap.rollup.RollupRouter` whose catalog was warmed with
the three hot cuboids.

Pinned claims (ISSUE 6 acceptance):

- >= 5x effective q/s with the cache versus without;
- every cache-hit answer is byte-identical to the uncached engine's
  answer for the same query (the ``quantity`` measure is
  integer-valued, so float64 aggregation is exact in any order);
- both runs pass the full audit, the cached one including the seventh
  ("rollup") family.
"""

import time

import pytest

from repro.core.perfmodel import XEON_X5667_8T
from repro.gpu import SimulatedGPU
from repro.gpu.partitioning import paper_partition_scheme
from repro.gpu.timing import TESLA_C2070_TIMING
from repro.metrics import MetricsRegistry
from repro.olap import (
    AdmissionPolicy,
    CubePyramid,
    CuboidSpec,
    RollupCatalog,
    RollupRouter,
)
from repro.query.model import Condition, Query
from repro.relational import generate_dataset, tpcds_like_schema
from repro.serve import MaterialisedExecutor, ServeEngine
from repro.sim.system import SystemConfig
from repro.sim.validate import audit
from repro.text import TranslationService, build_dictionaries
from repro.units import GB

import numpy as np

ROWS = 20_000
SEED = 2012
N_QUERIES = 300
HOT_FRACTION = 0.95
HOT_SHAPES = [
    (("date",), (2,)),
    (("store",), (2,)),
    (("date", "store"), (2, 2)),
]
#: the cold 10%: probes on the dimension the catalog never covers
COLD_SHAPE = (("item",), (1,))


def build_world():
    schema = tpcds_like_schema(scale=0.5)
    dataset = generate_dataset(schema, num_rows=ROWS, seed=SEED)
    pyramid = CubePyramid.from_fact_table(dataset.table, "quantity", [0, 1, 2])
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
    return schema, dataset, config


def skewed_queries(schema, rng):
    dims = {d.name: d for d in schema.dimensions}
    queries = []
    for _ in range(N_QUERIES):
        if rng.random() < HOT_FRACTION:
            names, resolutions = HOT_SHAPES[rng.integers(len(HOT_SHAPES))]
        else:
            names, resolutions = COLD_SHAPE
        conditions = []
        for name, res in zip(names, resolutions):
            card = dims[name].cardinality(res)
            lo = int(rng.integers(0, card))
            hi = int(rng.integers(lo + 1, card + 1))
            conditions.append(Condition(name, res, lo=lo, hi=hi))
        queries.append(
            Query(conditions=tuple(conditions), measures=("quantity",))
        )
    return queries


def closed_loop(config, queries, router=None, registry=None):
    engine = ServeEngine(
        config,
        executor=MaterialisedExecutor(config),
        rollup=router,
        metrics=registry,
    )
    t0 = time.perf_counter()
    with engine:
        for query in queries:
            outcome = engine.submit(query)
            if outcome.accepted and not outcome.cache_hit:
                outcome.ticket.wait(timeout=60.0)
    elapsed = time.perf_counter() - t0
    return engine.report(), elapsed


def run_comparison():
    schema, dataset, config = build_world()
    queries = skewed_queries(schema, np.random.default_rng(SEED))

    catalog = RollupCatalog(dataset.table, "quantity")
    for names, resolutions in HOT_SHAPES:
        catalog.materialise_and_install(
            CuboidSpec(dims=names, resolutions=resolutions)
        )
    router = RollupRouter(
        catalog, policy=AdmissionPolicy(byte_budget=32_000_000)
    )
    registry = MetricsRegistry()

    uncached_report, uncached_s = closed_loop(config, queries)
    cached_report, cached_s = closed_loop(
        config, queries, router=router, registry=registry
    )
    return {
        "uncached": (uncached_report, uncached_s),
        "cached": (cached_report, cached_s),
        "router": router,
        "registry": registry,
    }


@pytest.mark.experiment(
    "BENCH-ROLLUP", "Rollup cache payoff on a skewed serving workload"
)
def test_rollup_cache_speedup(benchmark, report):
    out = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    uncached_report, uncached_s = out["uncached"]
    cached_report, cached_s = out["cached"]
    router = out["router"]

    uncached_qps = len(uncached_report.records) / uncached_s
    effective_qps = (
        cached_report.cache_hit_count + len(cached_report.records)
    ) / cached_s
    speedup = effective_qps / uncached_qps

    report.row("queries", "-", f"{N_QUERIES}")
    report.row("hot-shape fraction", "-", f"{HOT_FRACTION:.0%}")
    report.row("uncached", "-", f"{uncached_qps:.0f} q/s")
    report.row("cached (effective)", "-", f"{effective_qps:.0f} q/s")
    report.row("hit rate", "-", f"{router.hit_rate:.1%}")
    report.row("speedup", ">= 5x", f"{speedup:.1f}x")
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["hit_rate"] = router.hit_rate

    # both runs fully audited; the cached one adds the seventh family
    assert audit(uncached_report, require_drained=True).ok
    cached_result = audit(
        cached_report,
        require_drained=True,
        snapshot=out["registry"].collect(cached_s),
    )
    assert cached_result.ok and "rollup" in cached_result.checked

    # byte-identical answers: every hit equals the uncached engine's
    # answer for the same query id (integer-valued measure => exact)
    uncached_by_id = {r.query_id: r.answer for r in uncached_report.records}
    assert cached_report.cache_hit_count > 0
    for hit in cached_report.cache_hits:
        assert hit.answer == uncached_by_id[hit.query_id]

    assert router.hit_rate >= 0.8  # the skew delivers
    assert speedup >= 5.0, f"rollup cache speedup only {speedup:.1f}x"
