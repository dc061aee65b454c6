#!/usr/bin/env python
"""Retail analytics scenario: the workload the paper's intro motivates.

A business-intelligence session over a retail sales table: dashboard
roll-ups, drill-downs along the time hierarchy, string-filtered
questions ("how did brand X do in city Y?"), and grouped queries
answered alike by the cube, the GPU and a reference scan.

Run:  python examples/retail_analytics.py
"""

import numpy as np

from repro import (
    CubePyramid,
    SimulatedGPU,
    TranslationService,
    build_dictionaries,
    generate_dataset,
    parse_query,
    tpcds_like_schema,
)
from repro.units import GB


def main() -> None:
    schema = tpcds_like_schema(scale=0.5)
    dataset = generate_dataset(schema, num_rows=100_000, seed=2026)
    table = dataset.table
    hierarchies = schema.hierarchies

    pyramid = CubePyramid.from_fact_table(table, "sales_price", [0, 1, 2])
    device = SimulatedGPU(global_memory_bytes=GB)
    device.load_table(table)
    translator = TranslationService(
        build_dictionaries(dataset.vocabularies), hierarchies
    )

    # -- 1. dashboard roll-ups (coarse, cube-answered) --------------------
    print("== dashboard: revenue by year-level slices ==")
    for year in range(min(4, schema.dimension("date").cardinality(0))):
        q = parse_query(
            f"SELECT sum(sales_price) WHERE date.year = {year}", hierarchies
        )
        level = pyramid.select_level(q)
        print(
            f"  year {year}: {pyramid.answer(q):>14,.2f}   "
            f"(cube at resolutions {level.resolutions}, "
            f"sub-cube {pyramid.subcube_size_mb(q) * 1024:.1f} KB)"
        )

    # -- 2. drill-down along the time hierarchy ---------------------------
    print("\n== drill-down: year 1 -> quarters -> months ==")
    for res, level_name, lo, hi in [(1, "quarter", 4, 8), (2, "month", 12, 24)]:
        q = parse_query(
            f"SELECT sum(sales_price) WHERE date.{level_name} IN [{lo}, {hi})",
            hierarchies,
        )
        print(f"  {level_name}s [{lo}, {hi}): {pyramid.answer(q):>14,.2f}")

    # -- 3. string-filtered questions (translation + GPU) -----------------
    print("\n== string-filtered: brand performance in a city ==")
    # pick a brand/city pair that co-occurs in the data (row 0's values)
    brand_code = int(table.column("item__brand")[0])
    city_code = int(table.column("store__city")[0])
    brand = dataset.raw_value("item__brand", brand_code).replace("'", r"\'")
    city = dataset.raw_value("store__city", city_code).replace("'", r"\'")
    q = parse_query(
        "SELECT sum(net_profit) "
        f"WHERE item.brand = '{brand}' AND store.city = '{city}'",
        hierarchies,
    )
    result = translator.translate(q)
    execution = device.execute_query(result.query, n_sm=4)
    print(f"  {brand!r} in {city!r}: net profit {execution.value:,.2f}")
    print(
        f"  translated {result.parameters_translated} literals; "
        f"GPU scan of {execution.column_fraction:.0%} of columns in "
        f"{execution.simulated_time * 1e3:.2f} ms (simulated)"
    )
    for column, token, code in result.lookups:
        print(f"    {column}: {token!r} -> code {code}")

    # -- 4. grouped queries: the same answer on every path ------------------
    from repro.groupby import groupby_from_table

    gq = parse_query(
        "SELECT sum(sales_price) BY date.quarter WHERE store.region IN [0, 4)",
        hierarchies,
    )
    ref = groupby_from_table(table, gq)
    via_cube = pyramid.answer_grouped(gq)
    via_gpu, gpu_time = device.execute_groupby(gq, n_sm=4)
    print("\n== grouped: revenue BY quarter (regions 0-3) ==")
    for (quarter,), revenue in sorted(ref.cells.items())[:6]:
        assert np.isclose(revenue, via_cube.cells[(quarter,)])
        assert np.isclose(revenue, via_gpu.cells[(quarter,)])
        print(f"  quarter {quarter:>2d}: {revenue:>14,.2f}")
    print(f"  ({ref.num_groups} groups; cube, GPU and reference scan agree; "
          f"GPU {gpu_time * 1e3:.2f} ms simulated)")


if __name__ == "__main__":
    main()
