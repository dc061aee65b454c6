"""ABL-BUILD — ablation: where and how to build cubes.

Section III-A gives the GPU the job of *"building the cube from
relational tables stored in GPU memory"*; Kaczmarski's SOFSEM'11 study
(related work II-C) compares CPU and GPU cube creation.  This ablation
measures:

1. the three host construction algorithms (array-based / BUC /
   PipeSort) on real data — wall-clock, identical outputs;
2. the simulated device build (sharded bincount + tree reduction) —
   answer verified against the host build, device time from the
   bandwidth model across SM counts.
"""

import time

import numpy as np
import pytest

from benchmarks.kit.buildalgs import array_based_cube, buc_cube, pipesort_cube
from benchmarks.kit.cubebuild import build_cube_on_device
from repro.gpu.device import SimulatedGPU
from repro.olap.cube import OLAPCube
from repro.relational import generate_dataset, tpcds_like_schema
from repro.units import GB


@pytest.fixture(scope="module")
def data():
    schema = tpcds_like_schema(scale=0.5)
    return generate_dataset(schema, num_rows=200_000, seed=5)


@pytest.mark.experiment("ABL-BUILD-host", "host cube-construction algorithms")
def test_host_algorithms(benchmark, report, data):
    resolutions = {"date": 1, "store": 1, "item": 1}

    def run_all():
        timings = {}
        outputs = {}
        for fn in (array_based_cube, buc_cube, pipesort_cube):
            start = time.perf_counter()
            outputs[fn.__name__] = fn(data.table, "quantity", resolutions)
            timings[fn.__name__] = time.perf_counter() - start
        return timings, outputs

    timings, outputs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report.line(f"full cube over {len(data.table)} rows, 8 cuboids:")
    for name, elapsed in sorted(timings.items(), key=lambda kv: kv[1]):
        cells = sum(len(c) for c in outputs[name].values())
        report.line(f"  {name:<18s} {elapsed * 1e3:8.1f} ms   ({cells} cells)")
    # identical outputs
    ref = outputs["array_based_cube"]
    for name, cube in outputs.items():
        for cuboid in ref:
            assert cube[cuboid].keys() == ref[cuboid].keys(), (name, cuboid)
    # the array-based algorithm (the paper's MOLAP substrate) should win
    # on dense low-resolution cubes — it does vectorised axis sums
    assert timings["array_based_cube"] == min(timings.values())


@pytest.mark.experiment("ABL-BUILD-device", "device-side cube construction")
def test_device_build(benchmark, report, data):
    device = SimulatedGPU(global_memory_bytes=GB)
    device.load_table(data.table)

    def build_sweep():
        out = {}
        for n_sm in (1, 4, 14):
            result = build_cube_on_device(device, "quantity", [1, 1, 1], n_sm=n_sm)
            out[n_sm] = result
        return out

    results = benchmark.pedantic(build_sweep, rounds=1, iterations=1)
    direct = OLAPCube.from_fact_table(data.table, "quantity", resolutions=[1, 1, 1])
    report.line("simulated device build of the resolution-1 cube:")
    for n_sm, result in results.items():
        report.line(
            f"  {n_sm:>2d} SMs: {result.simulated_time * 1e3:7.2f} ms "
            f"(reduction depth {result.reduction_depth})"
        )
        assert np.allclose(result.cube.component("sum"), direct.component("sum"))
    # build time shrinks with SM count
    assert results[14].simulated_time < results[1].simulated_time
