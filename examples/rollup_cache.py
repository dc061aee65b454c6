#!/usr/bin/env python
"""Rollup cache tier: watch the hit rate climb as cuboids materialise.

A skewed BI dashboard workload asks the same few query *shapes* over
and over with different parameter ranges.  This example:

1. builds the laptop-scale world (fact table, pyramid, simulated GPU);
2. serves three rounds of a skewed workload through a live
   :class:`~repro.serve.ServeEngine` with a :class:`RollupRouter` in
   front — the catalog starts empty, so round one is all misses;
3. calls :meth:`RollupRouter.maintain` between rounds, letting the
   :class:`AdmissionPolicy` materialise the hottest shapes greedily
   under a byte budget;
4. prints the per-round hit rate plus the live metrics counters, and
   finishes with :func:`~repro.sim.validate.audit` of the drained run
   and its final snapshot (books, ``metrics`` and every layer of the
   ``rollup`` family those two artifacts allow).

Run:  PYTHONPATH=src python examples/rollup_cache.py
"""

import numpy as np

from repro import (
    CubePyramid,
    SimulatedGPU,
    SystemConfig,
    TranslationService,
    XEON_X5667_8T,
    build_dictionaries,
    generate_dataset,
    paper_partition_scheme,
    tpcds_like_schema,
    TESLA_C2070_TIMING,
)
from repro.metrics import MetricsRegistry
from repro.olap import AdmissionPolicy, RollupCatalog, RollupRouter
from repro.query.model import Condition, Query
from repro.serve import MaterialisedExecutor, ServeEngine
from repro.sim.validate import audit
from repro.units import GB, fmt_bytes

ROUNDS = 3
QUERIES_PER_ROUND = 120
#: the "dashboard tiles": 90% of traffic reuses these three shapes
HOT_SHAPES = [
    (("date",), (1,)),
    (("store",), (1,)),
    (("date", "store"), (1, 1)),
]


def make_queries(schema, rng):
    """One round of skewed traffic: 90% hot shapes, 10% cold res-3."""
    dims = {d.name: d for d in schema.dimensions}
    queries = []
    for _ in range(QUERIES_PER_ROUND):
        if rng.random() < 0.9:
            names, resolutions = HOT_SHAPES[rng.integers(len(HOT_SHAPES))]
        else:
            names, resolutions = (rng.choice(list(dims)),), (3,)
        conditions = []
        for name, res in zip(names, resolutions):
            card = dims[name].cardinality(res)
            lo = int(rng.integers(0, card))
            hi = int(rng.integers(lo + 1, card + 1))
            conditions.append(Condition(name, res, lo=lo, hi=hi))
        queries.append(
            Query(conditions=tuple(conditions), measures=("sales_price",))
        )
    return queries


def main() -> None:
    # 1. the world --------------------------------------------------------
    schema = tpcds_like_schema(scale=0.5)
    dataset = generate_dataset(schema, num_rows=20_000, seed=7)
    pyramid = CubePyramid.from_fact_table(
        dataset.table, "sales_price", [0, 1, 2]
    )
    device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    device.load_table(dataset.table)
    translator = TranslationService(
        build_dictionaries(dataset.vocabularies), schema.hierarchies
    )
    config = SystemConfig(
        cpu_model=XEON_X5667_8T.with_overhead(0.002),
        pyramid=pyramid,
        device=device,
        scheme=paper_partition_scheme(),
        translation_service=translator,
    )

    # 2. the cache tier, empty at first -----------------------------------
    catalog = RollupCatalog(dataset.table, "sales_price")
    router = RollupRouter(
        catalog, policy=AdmissionPolicy(byte_budget=32_000_000)
    )
    registry = MetricsRegistry()
    engine = ServeEngine(
        config,
        executor=MaterialisedExecutor(config),
        metrics=registry,
        rollup=router,
    )

    rng = np.random.default_rng(2012)
    print(f"world: {dataset.table}, catalog budget "
          f"{fmt_bytes(router.policy.byte_budget)}\n")
    with engine:
        for round_no in range(1, ROUNDS + 1):
            before = router.hits
            for query in make_queries(schema, rng):
                outcome = engine.submit(query)
                if outcome.accepted and not outcome.cache_hit:
                    outcome.ticket.wait(timeout=30.0)
            round_hits = router.hits - before
            print(
                f"round {round_no}: {round_hits:3d}/{QUERIES_PER_ROUND} "
                f"answered from rollups "
                f"(cumulative hit rate {router.hit_rate:5.1%}, "
                f"{len(catalog)} cuboids, {fmt_bytes(catalog.total_nbytes)})"
            )
            # 3. between rounds: materialise what the policy recommends
            built = router.maintain()
            if built:
                print(f"         materialised {built} cuboid(s): "
                      + ", ".join(
                          "×".join(c.spec.dims) for c in catalog.cuboids()
                      ))

    # 4. the audit trail ---------------------------------------------------
    report = engine.report()
    snapshot = registry.collect(engine.elapsed)
    print(f"\ncache-served {report.cache_hit_count} of "
          f"{report.cache_hit_count + len(report.records)} answers "
          f"({report.effective_queries_per_second:.0f} effective q/s)")
    print("metrics:",
          f"hits={snapshot.family('repro_rollup_hits_total').total():.0f}",
          f"misses={snapshot.family('repro_rollup_misses_total').total():.0f}",
          f"materialized={router.materialized}")
    result = audit(report, require_drained=True, snapshot=snapshot)
    print(f"audit: {result.summary()}")
    if not result.ok:
        raise SystemExit(1)
    if router.hit_rate == 0.0:
        raise SystemExit("expected a nonzero hit rate after maintenance")


if __name__ == "__main__":
    main()
