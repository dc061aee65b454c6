"""End-to-end integration tests across all subsystems.

The central correctness claim of a hybrid OLAP system: *any* query gets
the same answer whichever resource the scheduler picks.  These tests
drive queries through every path — cube pyramid (CPU), simulated GPU
kernels, translation — and cross-check all answers against the
brute-force reference scan.
"""

import numpy as np
import pytest

from repro.gpu.device import SimulatedGPU
from repro.gpu.timing import TESLA_C2070_TIMING
from repro.olap.parallel import ParallelAggregator
from repro.query.model import Condition, Query
from repro.query.parser import parse_query
from repro.units import GB


@pytest.fixture(scope="module")
def device(fact_table):
    dev = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    dev.load_table(fact_table)
    return dev


def queries_for(small_schema, dataset):
    """A battery of queries exercising ranges, codes, text, aggregates."""
    d = [dim.name for dim in small_schema.dimensions]
    city_vocab = dataset.vocabularies["store__city"]
    return [
        Query(conditions=(), measures=("sales_price",), agg="sum"),
        Query(conditions=(Condition(d[0], 1, lo=2, hi=9),), measures=("quantity",)),
        Query(
            conditions=(
                Condition(d[0], 0, lo=0, hi=2),
                Condition(d[1], 2, lo=5, hi=60),
            ),
            measures=("sales_price",),
            agg="avg",
        ),
        Query(
            conditions=(Condition(d[2], 1, codes=(0, 3, 7)),),
            measures=("net_profit",),
            agg="sum",
        ),
        Query(
            conditions=(Condition(d[1], 2, text_values=(city_vocab[4], city_vocab[9])),),
            measures=("quantity",),
            agg="sum",
        ),
        Query(conditions=(Condition(d[0], 2, lo=10, hi=50),), measures=(), agg="count"),
        Query(
            conditions=(Condition(d[1], 1, lo=0, hi=12),),
            measures=("sales_price",),
            agg="max",
        ),
    ]


class TestAnswerEquivalence:
    def test_cube_equals_table_equals_gpu(
        self, fact_table, pyramid, device, translator, small_schema, dataset
    ):
        for q in queries_for(small_schema, dataset):
            resolved = translator.translate(q).query if q.needs_translation else q
            reference = fact_table.execute(resolved).value()

            # GPU path (every partition size)
            for n_sm in (1, 2, 4, 14):
                gpu = device.execute_query(resolved, n_sm).value
                assert np.isclose(gpu, reference, equal_nan=True), (q, n_sm)

            # CPU cube path, when the pyramid reaches the resolution and
            # aggregates the right measure
            if (
                resolved.required_resolution <= 2
                and resolved.agg in ("sum", "count", "avg")
                and (resolved.agg == "count" or resolved.measures == ("sales_price",))
            ):
                cpu = pyramid.answer(resolved)
                assert np.isclose(cpu, reference, equal_nan=True), q

    def test_parallel_aggregator_agrees(self, pyramid, fact_table, small_schema):
        d0 = small_schema.dimensions[0].name
        q = Query(conditions=(Condition(d0, 1, lo=0, hi=10),), measures=("sales_price",))
        reference = fact_table.execute(q).value()
        for threads in (1, 2, 8):
            level = pyramid.select_level(q)
            result = ParallelAggregator(threads).aggregate(level.cube, q)
            assert np.isclose(result.value, reference)


class TestParserToExecution:
    def test_parsed_query_through_both_paths(
        self, fact_table, pyramid, device, small_schema
    ):
        q = parse_query(
            "SELECT sum(sales_price) WHERE date.quarter IN [2, 8) AND store.state = 3",
            small_schema.hierarchies,
        )
        reference = fact_table.execute(q).value()
        assert np.isclose(pyramid.answer(q), reference)
        assert np.isclose(device.execute_query(q, 4).value, reference)

    def test_parsed_text_query_via_translation(
        self, fact_table, device, translator, small_schema, dataset
    ):
        city = dataset.vocabularies["store__city"][2].replace("'", r"\'")
        q = parse_query(
            f"SELECT sum(quantity) WHERE store.city = '{city}'",
            small_schema.hierarchies,
        )
        translated = translator.translate(q).query
        reference = fact_table.execute(translated).value()
        assert np.isclose(device.execute_query(translated, 2).value, reference)


class TestCubeBuildConsistency:
    def test_pyramid_base_matches_buildalg_base_cuboid(self, fact_table, small_schema):
        """The pyramid's cube and the array-based algorithm must agree."""
        from benchmarks.kit.buildalgs import array_based_cube
        from repro.olap.cube import OLAPCube

        res = {d.name: 1 for d in small_schema.dimensions}
        full = array_based_cube(fact_table, "quantity", res)
        cube = OLAPCube.from_fact_table(fact_table, "quantity", resolutions=[1, 1, 1])
        base = full[frozenset(res)]
        sums = cube.component("sum")
        names = sorted(res)
        axis_of = {d.name: i for i, d in enumerate(small_schema.dimensions)}
        for coords, value in base.items():
            idx = [0, 0, 0]
            for name, coord in zip(names, coords):
                idx[axis_of[name]] = coord
            assert np.isclose(sums[tuple(idx)], value)
