#!/usr/bin/env python
"""Quickstart: build a hybrid OLAP system end to end and run queries.

Walks through every subsystem on laptop-scale data:

1. generate a TPC-DS-flavoured fact table with string columns;
2. pre-calculate a multi-resolution cube pyramid (the CPU side);
3. load the table onto the simulated GPU and build the dictionaries;
4. answer the same query on every path and check they agree;
5. run a mixed workload through the Figure-10 scheduler and print the
   system report.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    CubePyramid,
    HybridSystem,
    QueryClass,
    SimulatedGPU,
    SystemConfig,
    TranslationService,
    WorkloadSpec,
    XEON_X5667_8T,
    build_dictionaries,
    generate_dataset,
    paper_partition_scheme,
    parse_query,
    tpcds_like_schema,
    TESLA_C2070_TIMING,
)
from repro.units import GB, fmt_bytes


def main() -> None:
    # 1. data -------------------------------------------------------------
    schema = tpcds_like_schema(scale=0.5)
    dataset = generate_dataset(schema, num_rows=50_000, seed=7)
    table = dataset.table
    print(f"fact table: {table}")

    # 2. the CPU side: pre-calculated cube pyramid ------------------------
    pyramid = CubePyramid.from_fact_table(table, "sales_price", [0, 1, 2])
    print(f"pyramid:    {pyramid}")
    print(f"            total footprint {fmt_bytes(pyramid.total_nbytes)}")

    # 3. the GPU side: resident table + per-column dictionaries -----------
    device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    device.load_table(table)
    dictionaries = build_dictionaries(dataset.vocabularies, backend="hash")
    translator = TranslationService(dictionaries, schema.hierarchies)
    print(f"device:     {device}")
    for name, d in list(dictionaries.items())[:2]:
        print(f"dictionary: {d}")

    # 4. one query, three answers ----------------------------------------
    city = dataset.vocabularies["store__city"][10].replace("'", r"\'")
    text = (
        "SELECT sum(sales_price) "
        f"WHERE date.quarter IN [2, 10) AND store.city = '{city}'"
    )
    query = parse_query(text, schema.hierarchies)
    print(f"\nquery: {text}")

    translated = translator.translate(query)
    print(f"  translated {translated.parameters_translated} text parameter(s)")

    reference = table.execute(translated.query).value()
    gpu = device.execute_query(translated.query, n_sm=4)
    cube = CubePyramid.from_fact_table(table, "sales_price", [2]).answer(
        translated.query
    )
    print(f"  reference scan : {reference:,.2f}")
    print(f"  GPU (4 SMs)    : {gpu.value:,.2f}  "
          f"(simulated {gpu.simulated_time * 1e3:.2f} ms)")
    print(f"  CPU cube       : {cube:,.2f}")
    assert np.isclose(reference, gpu.value) and np.isclose(reference, cube)

    # 5. a workload through the Figure-10 scheduler -----------------------
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
            QueryClass("mid", 0.25, resolution=2, dims_constrained=(1, 2),
                       coverage=(0.5, 1.0), text_prob=0.5),
            QueryClass("fine", 0.15, resolution=3, coverage=(0.2, 0.8)),
        ],
        measures=("sales_price",),
        text_levels=list(schema.text_levels),
        vocabularies=dataset.vocabularies,
        seed=21,
    )
    system = HybridSystem(config)
    # eq. 18, as the scheduler books it: P_DICT over the dictionary lengths
    t_trans = system.estimator.estimate(query).t_trans
    print(f"\neq.-18 translation bound for the query above: {t_trans * 1e6:.1f} us")
    report = system.run(workload.generate(500))
    print("\nsystem report (500 queries, closed loop):")
    print(report.summary())


if __name__ == "__main__":
    main()
