"""Unit tests for the thread-parallel aggregation engine."""

import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.errors import CubeError, QueryError
from repro.olap import parallel
from repro.olap.cube import OLAPCube, reduce_sequential
from repro.olap.parallel import ParallelAggregator
from repro.units import block_bounds
from repro.query.model import Condition, Query


@pytest.fixture(scope="module")
def cube(fact_table):
    return OLAPCube.from_fact_table(
        fact_table, "sales_price", resolutions=[1, 1, 1], with_minmax=True
    )


@pytest.fixture(scope="module")
def holed(cube):
    """``cube`` with coordinate 3 of its first axis emptied: a selection
    no fact row fell into."""
    blank = {"sum": 0.0, "count": 0.0, "min": np.inf, "max": -np.inf}
    components = {name: np.array(cube.component(name)) for name in cube.components}
    for name, arr in components.items():
        arr[3] = blank[name]
    return OLAPCube(cube.dimensions, cube.resolutions, components, cube.measure)


class TestReduceArray:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_sum_matches_numpy(self, threads, rng):
        a = rng.random((1000, 7))
        agg = ParallelAggregator(num_threads=threads)
        assert np.isclose(agg.reduce_array(a, "add"), a.sum())

    @pytest.mark.parametrize("threads", [1, 3])
    def test_min_max(self, threads, rng):
        a = rng.normal(size=5000)
        agg = ParallelAggregator(num_threads=threads)
        assert agg.reduce_array(a, "min") == a.min()
        assert agg.reduce_array(a, "max") == a.max()

    def test_empty_sum_is_zero(self):
        agg = ParallelAggregator(num_threads=2)
        assert agg.reduce_array(np.empty(0), "add") == 0.0

    def test_empty_min_rejected(self):
        agg = ParallelAggregator(num_threads=2)
        with pytest.raises(QueryError):
            agg.reduce_array(np.empty(0), "min")

    def test_unknown_reduction(self):
        with pytest.raises(QueryError):
            ParallelAggregator().reduce_array(np.ones(4), "mean")

    def test_more_threads_than_rows(self, rng):
        a = rng.random(3)
        agg = ParallelAggregator(num_threads=16)
        assert np.isclose(agg.reduce_array(a, "add"), a.sum())

    def test_invalid_thread_count(self):
        with pytest.raises(CubeError):
            ParallelAggregator(num_threads=0)


def todays_combine(a, how, num_threads):
    """The answer the parallel path gives: ``min(num_threads, nbytes //
    MIN_BLOCK_BYTES)`` blocks (one when that is under two) reduced one
    by one, the partials combined in block order."""
    blocks = max(1, min(num_threads, a.nbytes // parallel.MIN_BLOCK_BYTES))
    combine = {"add": sum, "min": min, "max": max}[how]
    return float(
        combine(reduce_sequential(a[lo:hi], how) for lo, hi in block_bounds(a.shape[0], blocks))
    )


class CountedBlocks:
    """``parallel._BLOCKS`` with its puts counted: the blocks a call
    handed to the team."""

    def __init__(self, real):
        self.real, self.puts = real, 0

    def put(self, item):
        self.puts += 1
        self.real.put(item)

    def get(self):  # a team thread looks ``_BLOCKS`` up on every get
        return self.real.get()


@pytest.fixture()
def handoffs(monkeypatch):
    counted = CountedBlocks(parallel._BLOCKS)
    monkeypatch.setattr(parallel, "_BLOCKS", counted)
    return counted


class TeamFault(Exception):
    """Raised by a block only a team thread reduces."""


class Poison:
    """An object-array element whose addition raises, recording where."""

    def __init__(self):
        self.raised_on = []

    def __radd__(self, other):
        self.raised_on.append(threading.current_thread())
        raise TeamFault("block poisoned")


@pytest.mark.usefixtures("every_block_to_the_team")
class TestTeam:
    """One process-wide team of persistent threads serves every
    aggregator; the caller reduces block 0 itself.  The hand-off floor
    is one byte here, so small arrays split as multi-MB ones do."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_answers_equal_todays_combine(self, threads, rng, handoffs):
        shapes = ((8,), (9, 5), (64, 3, 2), (1001,))
        for shape in shapes:
            a = rng.normal(size=shape) * 1e6
            for how in ("add", "min", "max"):
                got = ParallelAggregator(num_threads=threads).reduce_array(a, how)
                assert got == todays_combine(a, how, threads), (shape, how)
        # every call split into ``threads`` blocks: all but block 0 went out
        assert handoffs.puts == len(shapes) * 3 * (threads - 1)

    def test_five_hundred_aggregators_share_one_team(self, monkeypatch, rng):
        widths = (2, 3, 8)
        arrays = [rng.normal(size=(16 + i % 7, 3)) for i in range(500)]
        aggregators = [ParallelAggregator(num_threads=widths[i % 3]) for i in range(500)]
        reducers, alive, mismatches = set(), [], []
        real = parallel.reduce_sequential

        def recording(array, how):
            reducers.add(threading.current_thread())
            alive.append(threading.active_count())
            return real(array, how)

        def drive(k):
            for i in range(k, 500, 8):
                agg, a = aggregators[i], arrays[i]
                if agg.reduce_array(a, "add") != todays_combine(a, "add", agg.num_threads):
                    mismatches.append(i)

        drivers = [threading.Thread(target=drive, args=(k,)) for k in range(8)]
        monkeypatch.setattr(parallel, "reduce_sequential", recording)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in drivers:
                t.start()
            for t in drivers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in drivers)
        assert mismatches == []
        # the team is as wide as the widest call's hand-out, and nothing
        # but the callers and the team ever reduced a block
        assert len(parallel._TEAM) <= max(widths) - 1
        assert reducers <= set(drivers) | set(parallel._TEAM)
        assert reducers & set(parallel._TEAM)
        assert max(alive) - before <= len(drivers) + len(parallel._TEAM)

    def test_the_team_keeps_no_block_alive_after_the_call(self, handoffs):
        """A team thread drops its view of a block once it posts the
        partial, so a selection dies with the query that made it."""
        a = np.ones((16, 4))  # owns its data: the blocks' base
        alive = weakref.ref(a)
        ParallelAggregator(num_threads=3).reduce_array(a[:, 1:], "add")
        assert handoffs.puts == 2  # the team did hold two of its blocks
        del a
        deadline = time.monotonic() + 5
        while alive() is not None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert alive() is None

    def test_a_team_block_error_reaches_the_caller(self):
        poison = Poison()
        a = np.array([1.0] * 8 + [poison], dtype=object)
        aggregator = ParallelAggregator(num_threads=3)
        with pytest.raises(TeamFault, match="poisoned"):
            aggregator.reduce_array(a, "add")
        # the last block was the team's, and the team serves on
        assert poison.raised_on and poison.raised_on[0] in parallel._TEAM
        clean = np.arange(9.0)
        assert aggregator.reduce_array(clean, "add") == todays_combine(clean, "add", 3)


class TestFloor:
    """A call hands the team a block only when every block carries at
    least ``MIN_BLOCK_BYTES`` (OpenMP's ``if`` clause): below two blocks'
    worth the caller reduces the whole array alone."""

    @pytest.fixture()
    def reducers(self, monkeypatch):
        """``(thread, rows)`` of every ``reduce_sequential`` call."""
        calls = []
        real = parallel.reduce_sequential

        def recording(array, how):
            calls.append((threading.current_thread(), array.shape[0]))
            return real(array, how)

        monkeypatch.setattr(parallel, "reduce_sequential", recording)
        return calls

    def test_a_kilobyte_selection_posts_nothing_to_the_team(self, handoffs, reducers, rng):
        a = rng.normal(size=(64 << 10) // 8)
        got = ParallelAggregator(num_threads=2).reduce_array(a, "add")
        assert handoffs.puts == 0
        assert reducers == [(threading.current_thread(), a.shape[0])]
        assert got == reduce_sequential(a, "add")

    def test_five_mib_reduce_in_five_blocks(self, handoffs, reducers, rng):
        a = rng.normal(size=5 * parallel.MIN_BLOCK_BYTES // 8)
        got = ParallelAggregator(num_threads=8).reduce_array(a, "add")
        five = block_bounds(a.shape[0], 5)
        assert len(five) == 5 and handoffs.puts == 4
        assert sorted(rows for _, rows in reducers) == sorted(hi - lo for lo, hi in five)
        assert [t for t, _ in reducers].count(threading.current_thread()) == 1
        assert got == float(sum(reduce_sequential(a[lo:hi], "add") for lo, hi in five))
        assert got == todays_combine(a, "add", 8)

    @pytest.mark.parametrize(
        "nbytes, blocks",
        [(2 * parallel.MIN_BLOCK_BYTES - 8, 1), (2 * parallel.MIN_BLOCK_BYTES, 2)],
        ids=["one-short", "two-blocks"],
    )
    def test_two_blocks_worth_is_the_boundary(self, handoffs, reducers, rng, nbytes, blocks):
        a = rng.normal(size=nbytes // 8)
        got = ParallelAggregator(num_threads=2).reduce_array(a, "add")
        assert handoffs.puts == blocks - 1
        assert len(reducers) == blocks
        assert (threading.current_thread(), a.shape[0] // blocks) in reducers
        assert got == todays_combine(a, "add", 2)


class TestAggregate:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("agg_name", ["sum", "count", "avg", "min", "max"])
    def test_matches_sequential_cube(self, cube, holed, threads, agg_name, small_schema):
        """Range, code-set, mixed and empty selections: the parallel
        answer *is* ``answer_with_cube``'s (one op dispatch, one
        selection), so it is compared exactly."""
        from repro.olap.subcube import answer_with_cube

        d0, d1 = (d.name for d in small_schema.dimensions[:2])
        measures = () if agg_name == "count" else ("sales_price",)
        aggregator = ParallelAggregator(num_threads=threads)
        for source, conditions in (
            (cube, (Condition(d0, 1, lo=1, hi=9),)),
            (cube, (Condition(d1, 1, codes=(0, 5, 9)),)),
            (cube, (Condition(d0, 1, lo=1, hi=9), Condition(d1, 1, codes=(0, 5, 9)))),
            (holed, (Condition(d0, 1, lo=3, hi=4),)),
        ):
            q = Query(conditions=conditions, measures=measures, agg=agg_name)
            sequential = answer_with_cube(source, q)
            parallel = aggregator.aggregate(source, q).value
            assert parallel == sequential or (
                math.isnan(parallel) and math.isnan(sequential)
            )
        # the emptied selection really is empty: nothing to average or rank
        assert math.isnan(sequential) == (agg_name in ("avg", "min", "max"))

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_off_measure_refused_like_answer_with_cube(self, cube, threads):
        """A ``sales_price`` cube cannot answer ``sum(quantity)`` — on any
        answer path; ``count`` is the same whatever the measure."""
        aggregator = ParallelAggregator(num_threads=threads)
        with pytest.raises(QueryError, match="measure"):
            aggregator.aggregate(cube, Query(conditions=(), measures=("quantity",)))
        counted = Query(conditions=(), measures=("quantity",), agg="count")
        assert aggregator.aggregate(cube, counted).value == float(
            cube.component("count").sum()
        )

    def test_bytes_streamed_matches_spec(self, cube, small_schema):
        from repro.olap.subcube import spec_for_query

        d0 = small_schema.dimensions[0].name
        q = Query(conditions=(Condition(d0, 1, lo=0, hi=4),), measures=("sales_price",))
        result = ParallelAggregator(num_threads=2).aggregate(cube, q)
        assert result.bytes_streamed == spec_for_query(cube, q).nbytes

    def test_codes_selection(self, cube, small_schema, fact_table):
        d1 = small_schema.dimensions[1]
        q = Query(
            conditions=(Condition(d1.name, 1, codes=(0, 5, 9)),),
            measures=("sales_price",),
        )
        result = ParallelAggregator(num_threads=4).aggregate(cube, q)
        assert np.isclose(result.value, fact_table.execute(q).value("sales_price"))
