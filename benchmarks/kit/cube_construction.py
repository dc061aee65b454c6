#!/usr/bin/env python
"""Building the full cube three ways — and checking they agree.

Mirrors tutorial §2b ("Building cubes three ways"): construct a small
TPC-DS-like fact table, build the full cube with the array-based, BUC
and PipeSort algorithms, cross-check every cell against the brute-force
reference, then show the iceberg variant and the PipeSort planner.

Run:  PYTHONPATH=src:. python benchmarks/kit/cube_construction.py
"""

import time

import numpy as np

from benchmarks.kit.buildalgs import (
    array_based_cube,
    buc_cube,
    full_cube_reference,
    pipesort_cube,
    plan_pipelines,
)
from repro import generate_dataset, tpcds_like_schema


def main() -> None:
    table = generate_dataset(tpcds_like_schema(scale=0.3), num_rows=2_000, seed=17).table
    resolutions = {"date": 1, "store": 1, "item": 1}  # quarter / state / class
    print(f"fact table: {table}")
    print(f"grouping at: {resolutions}\n")

    # -- 1. three algorithms, one answer ---------------------------------
    reference = full_cube_reference(table, "quantity", resolutions)
    print("== full cube: 3 algorithms vs the brute-force reference ==")
    for build in (array_based_cube, buc_cube, pipesort_cube):
        start = time.perf_counter()
        cube = build(table, "quantity", resolutions)
        elapsed = time.perf_counter() - start

        assert set(cube) == set(reference)              # same 2^3 cuboids
        for cuboid, cells in reference.items():         # same cells, same sums
            assert cells.keys() == cube[cuboid].keys()
            assert all(np.isclose(cube[cuboid][k], v) for k, v in cells.items())
        cells_total = sum(len(c) for c in cube.values())
        print(f"  {build.__name__:<18s} {cells_total:>5d} cells in {elapsed * 1e3:6.1f} ms"
              "   (matches reference cell-for-cell)")

    grand_total = cube[frozenset()][()]
    assert np.isclose(grand_total, table.column("quantity").sum())
    print(f"  grand total (apex cuboid): {grand_total:,.0f}\n")

    # -- 2. iceberg cubes: only the well-supported cells ------------------
    print("== iceberg: cells with >= k supporting rows ==")
    for k in (1, 5, 20):
        iceberg = buc_cube(table, "quantity", resolutions, min_support=k)
        cells_total = sum(len(c) for c in iceberg.values())
        print(f"  min_support={k:<3d} -> {cells_total:>5d} cells")
    print()

    # -- 3. the PipeSort planner: a minimal lattice cover ------------------
    print("== plan_pipelines: minimum prefix-chain cover of the lattice ==")
    for order in plan_pipelines(sorted(resolutions)):
        prefixes = " -> ".join(
            "{" + ",".join(order[:n]) + "}" for n in range(len(order) + 1)
        )
        print(f"  sort by {order}: computes {prefixes}")
    print("  (3 pipelines = C(3,1), covering all 8 cuboids)")


if __name__ == "__main__":
    main()
