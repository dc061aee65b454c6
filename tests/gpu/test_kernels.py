"""Unit tests for the simulated GPU kernels (Lauer et al. pipeline)."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.errors import DeviceError, TranslationError
from repro.gpu import kernels
from repro.gpu.device import SimulatedGPU
from repro.gpu.kernels import run_query_kernel, shard_mask, _shard_bounds
from repro.groupby import groupby_from_table, run_groupby_kernel
from repro.olap.hierarchy import DimensionHierarchy
from repro.query.model import Condition, Query, decompose
from repro.relational.schema import TableSchema
from repro.relational.table import FactTable
from repro.units import GB

#: x1 has 12 coordinates, y1 has 10; quantity is integer-valued, price is not
HAND_DIMS = [
    DimensionHierarchy.from_fanouts("x", ["x0", "x1"], [3, 4]),
    DimensionHierarchy.from_fanouts("y", ["y0", "y1"], [2, 5]),
]
HAND_SCHEMA = TableSchema(HAND_DIMS, measures=("quantity", "price"))


def _decompose(q, schema):
    return decompose(q, schema.hierarchies)


def hand_table(rows, schema=HAND_SCHEMA, **overrides):
    """A hand-built table of ``rows`` rows; ``overrides`` replace whole columns."""
    rng = np.random.default_rng(rows)
    x, y = rng.integers(0, 12, rows), rng.integers(0, 10, rows)
    columns = {
        "x__x0": x // 4,
        "x__x1": x,
        "y__y0": y // 5,
        "y__y1": y,
        "quantity": rng.integers(1, 100, rows).astype(float),
        "price": rng.random(rows) * 100.0,
    }
    return FactTable(schema, {**columns, **overrides})


class TestShardBounds:
    def test_cover_all_rows_without_overlap(self):
        bounds = _shard_bounds(100, 7)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 100
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c

    def test_more_shards_than_rows(self):
        bounds = _shard_bounds(3, 8)
        total = sum(hi - lo for lo, hi in bounds)
        assert total == 3

    def test_zero_shards_rejected(self):
        with pytest.raises(DeviceError):
            _shard_bounds(10, 0)


class TestShardMask:
    """Step 2, the one predicate conjunction under both kernels."""

    CONDITIONS = {
        "range": (Condition("date", 1, lo=3, hi=15),),
        "codes": (Condition("store", 1, codes=(0, 5, 9)),),
        "mixed": (
            Condition("date", 1, lo=3, hi=15),
            Condition("store", 1, codes=(0, 5, 9)),
        ),
    }

    @pytest.mark.parametrize("n_sm", [1, 7, 14])
    @pytest.mark.parametrize("shape", sorted(CONDITIONS))
    def test_shards_concatenate_to_the_reference_mask(
        self, fact_table, small_schema, shape, n_sm
    ):
        q = Query(conditions=self.CONDITIONS[shape], measures=("quantity",))
        d = _decompose(q, small_schema)
        bounds = _shard_bounds(fact_table.num_rows, n_sm)
        masks = [shard_mask(fact_table, d, lo, hi) for lo, hi in bounds]
        assert [len(m) for m in masks] == [hi - lo for lo, hi in bounds]
        reference = fact_table.filter_mask(d)
        assert reference.any() and not reference.all()
        assert np.array_equal(np.concatenate(masks), reference)

    def test_untranslated_predicate_rejected(self, fact_table, small_schema):
        q = Query(
            conditions=(Condition("store", 2, text_values=("x",)),),
            measures=("quantity",),
        )
        with pytest.raises(TranslationError, match="untranslated"):
            shard_mask(fact_table, _decompose(q, small_schema), 0, 10)


class TestKernelCorrectness:
    @pytest.mark.parametrize("n_sm", [1, 2, 4, 14])
    def test_matches_reference_scan(self, fact_table, small_schema, n_sm):
        q = Query(
            conditions=(Condition("date", 1, lo=3, hi=15),),
            measures=("sales_price",),
        )
        d = _decompose(q, small_schema)
        kernel = run_query_kernel(fact_table, d, n_sm)
        reference = fact_table.scan(d)
        assert kernel.result.rows_matched == reference.rows_matched
        assert np.isclose(
            kernel.result.value("sales_price"), reference.value("sales_price")
        )

    @pytest.mark.parametrize("agg", ["sum", "count", "avg", "min", "max"])
    def test_all_aggregates(self, fact_table, small_schema, agg):
        measures = () if agg == "count" else ("quantity",)
        q = Query(
            conditions=(Condition("store", 1, lo=0, hi=20),),
            measures=measures,
            agg=agg,
        )
        d = _decompose(q, small_schema)
        kernel = run_query_kernel(fact_table, d, 4)
        reference = fact_table.scan(d)
        for key in reference.values:
            assert np.isclose(
                kernel.result.values[key], reference.values[key], equal_nan=True
            )

    def test_codes_predicate(self, fact_table, small_schema):
        q = Query(
            conditions=(Condition("item", 2, codes=(1, 5, 8)),),
            measures=("net_profit",),
        )
        d = _decompose(q, small_schema)
        kernel = run_query_kernel(fact_table, d, 3)
        assert np.isclose(
            kernel.result.value("net_profit"), fact_table.scan(d).value("net_profit")
        )

    def test_empty_selection(self, fact_table, small_schema):
        card = small_schema.dimension("date").cardinality(3)
        q = Query(
            conditions=(Condition("date", 3, lo=card - 1, hi=card),),
            measures=("quantity",),
            agg="min",
        )
        d = _decompose(q, small_schema)
        kernel = run_query_kernel(fact_table, d, 4)
        reference = fact_table.scan(d)
        assert kernel.result.rows_matched == reference.rows_matched
        if reference.rows_matched == 0:
            assert np.isnan(kernel.result.value("quantity"))

    def test_untranslated_text_rejected(self, fact_table, small_schema):
        q = Query(
            conditions=(Condition("store", 2, text_values=("x",)),),
            measures=("quantity",),
        )
        d = _decompose(q, small_schema)
        with pytest.raises(TranslationError):
            run_query_kernel(fact_table, d, 2)


class TestPartials:
    def test_shard_count(self, fact_table, small_schema):
        q = Query(conditions=(), measures=("quantity",))
        d = _decompose(q, small_schema)
        kernel = run_query_kernel(fact_table, d, 6)
        assert kernel.num_shards == 6

    def test_partials_cover_all_rows(self, fact_table, small_schema):
        q = Query(conditions=(), measures=("quantity",))
        d = _decompose(q, small_schema)
        kernel = run_query_kernel(fact_table, d, 5)
        assert sum(p.rows_scanned for p in kernel.partials) == len(fact_table)

    def test_partial_sums_reduce_to_total(self, fact_table, small_schema):
        q = Query(conditions=(), measures=("quantity",))
        d = _decompose(q, small_schema)
        kernel = run_query_kernel(fact_table, d, 4)
        total = sum(p.sums["quantity"] for p in kernel.partials)
        assert np.isclose(total, kernel.result.value("quantity"))

    def test_bytes_read_full_columns(self, fact_table, small_schema):
        q = Query(
            conditions=(Condition("date", 0, lo=0, hi=1),), measures=("quantity",)
        )
        d = _decompose(q, small_schema)
        kernel = run_query_kernel(fact_table, d, 2)
        expected = fact_table.column_nbytes("date__year") + fact_table.column_nbytes(
            "quantity"
        )
        assert kernel.result.bytes_read == expected


class TestCodeSetMembership:
    """The prepared membership table equals ``np.isin`` (the reference
    ``FactTable.filter_mask``) on every value a column can hold — also
    the ones ``FactTable`` refuses at construction, written here through
    the column view."""

    @staticmethod
    def _masks(table, codes, schema=HAND_SCHEMA):
        q = Query(conditions=(Condition("y", 1, codes=codes),), measures=("quantity",))
        d = _decompose(q, schema)
        return shard_mask(table, d, 0, table.num_rows), table.filter_mask(d)

    @pytest.mark.parametrize("dim_dtype", [np.int8, np.int32, np.int64])
    def test_values_outside_the_domain_are_not_members(self, dim_dtype):
        schema = TableSchema(HAND_DIMS, measures=("quantity", "price"), dim_dtype=dim_dtype)
        table = hand_table(40, schema)
        column = table.column("y__y1")
        info = np.iinfo(dim_dtype)
        # below 0 (a wrapped index would read the table from its end), at
        # and above the cardinality (an unchecked one would run off it)
        column[:6] = [-1, -10, info.min, 10, 11, info.max]
        got, reference = self._masks(table, (0, 3, 9), schema)
        assert np.array_equal(got, reference)
        assert not got[:6].any() and got.any()

    def test_a_code_no_row_holds_selects_nothing(self):
        table = hand_table(40, y__y1=np.arange(40) % 5)
        for codes in [(7,), (7, 9), (10,), (12345,), (7, 12345)]:
            got, reference = self._masks(table, codes)
            assert np.array_equal(got, reference)
            assert not got.any()
        got, reference = self._masks(table, (7, 2, 12345))
        assert np.array_equal(got, reference) and got.sum() == 8

    def test_duplicate_and_unsorted_codes_are_harmless(self):
        table = hand_table(50)
        tidy, reference = self._masks(table, (0, 3, 9))
        messy, _ = self._masks(table, (9, 3, 3, 0, 9, 0))
        assert np.array_equal(tidy, reference)
        assert np.array_equal(messy, reference)

    def test_one_code_and_a_run_of_codes(self):
        """Codes that fill their span need no table: the range is the set."""
        table = hand_table(50)
        for codes in [(4,), (0,), (9,), (3, 4, 5), (5, 3, 4, 4)]:
            got, reference = self._masks(table, codes)
            assert reference.any()
            assert np.array_equal(got, reference)

    def test_a_range_bound_beyond_the_dtype(self):
        table = hand_table(50)
        q = Query(conditions=(Condition("x", 1, lo=4, hi=2**40),), measures=("quantity",))
        d = _decompose(q, HAND_SCHEMA)
        assert np.array_equal(shard_mask(table, d, 0, 50), table.filter_mask(d))


PREDICATES = {
    "none": (),
    "range": (Condition("x", 1, lo=2, hi=9),),
    "codes": (Condition("y", 1, codes=(7, 0, 3, 3)),),
    "mixed": (Condition("x", 0, lo=1, hi=3), Condition("y", 1, codes=(7, 0, 3, 3))),
}
AGGREGATES = ("sum", "count", "avg", "min", "max")


@pytest.fixture
def tile_of_seven(monkeypatch):
    """Tile edges inside the small fixtures, interleaved with shard edges."""
    monkeypatch.setattr(kernels, "TILE_ROWS", 7)


@pytest.mark.usefixtures("tile_of_seven")
class TestTileLoop:
    @pytest.mark.parametrize("n_sm", [1, 3, 14])
    @pytest.mark.parametrize("rows", [0, 1, 6, 7, 8, 50])
    def test_equals_the_reference_scan(self, rows, n_sm):
        table = hand_table(rows)
        for shape, conditions in PREDICATES.items():
            for agg in AGGREGATES:
                measures = () if agg == "count" else ("quantity", "price")
                q = Query(conditions=conditions, measures=measures, agg=agg)
                d = _decompose(q, HAND_SCHEMA)
                kernel = run_query_kernel(table, d, n_sm)
                reference = table.scan(d)
                got = kernel.result
                where = (shape, agg)
                assert got.rows_matched == reference.rows_matched, where
                assert got.bytes_read == reference.bytes_read, where
                assert set(got.values) == set(reference.values), where
                for key, expected in reference.values.items():
                    if key == "price" and agg in ("sum", "avg"):
                        assert np.isclose(
                            got.values[key], expected, rtol=1e-12, equal_nan=True
                        ), where
                    else:  # counts, extremes and integer-valued sums are exact
                        assert got.values[key] == expected or (
                            np.isnan(got.values[key]) and np.isnan(expected)
                        ), where
                if not reference.rows_matched and agg != "count":
                    empty = 0.0 if agg == "sum" else float("nan")
                    assert np.array_equal(
                        [got.values["quantity"]], [empty], equal_nan=True
                    ), where
                # partials still cover every row once
                assert kernel.num_shards == n_sm
                assert sum(p.rows_scanned for p in kernel.partials) == rows
                assert sum(p.rows_matched for p in kernel.partials) == got.rows_matched

    def test_shards_and_tiles_interleave(self):
        """50 rows on 3 SMs at 7 rows a tile: shard edges 16 and 33 fall
        inside tiles counted from 0, so every shard ends on a short tile."""
        table = hand_table(50)
        d = _decompose(Query(conditions=PREDICATES["mixed"], measures=("price",)), HAND_SCHEMA)
        masks = [shard_mask(table, d, lo, hi) for lo, hi in _shard_bounds(50, 3)]
        assert [len(m) for m in masks] == [16, 17, 17]
        assert np.array_equal(np.concatenate(masks), table.filter_mask(d))

    @pytest.mark.parametrize("agg", ["sum", "avg", "min", "max"])
    def test_non_finite_values_in_unselected_rows_are_never_read(self, agg):
        price = np.arange(50, dtype=float)
        price[[0, 7, 20, 33]] = [np.inf, np.nan, -np.inf, np.nan]
        x = np.full(50, 5)
        x[[0, 7, 20, 33]] = 0  # the poisoned rows fail the predicate
        table = hand_table(50, price=price, x__x1=x, x__x0=x // 4)
        q = Query(conditions=(Condition("x", 1, lo=2, hi=9),), measures=("price",), agg=agg)
        d = _decompose(q, HAND_SCHEMA)
        reference = table.scan(d).value()
        assert np.isfinite(reference)
        for n_sm in (1, 3, 14):
            assert run_query_kernel(table, d, n_sm).result.value() == reference

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("agg", ["sum", "avg", "min", "max"])
    def test_a_non_finite_value_in_a_selected_row_propagates(self, agg, poison):
        """As ``FactTable.scan`` does; the poisoned row sits in the middle
        shard so a fold that forgets a ``nan`` seen earlier would show."""
        price = np.arange(50, dtype=float)
        price[20] = poison
        table = hand_table(50, price=price)
        q = Query(conditions=(), measures=("price",), agg=agg)
        d = _decompose(q, HAND_SCHEMA)
        reference = table.scan(d).value()
        for n_sm in (1, 3, 14):
            got = run_query_kernel(table, d, n_sm).result.value()
            assert np.array_equal([got], [reference], equal_nan=True), n_sm

    @pytest.mark.parametrize("agg", AGGREGATES)
    @pytest.mark.parametrize("n_sm", [1, 3, 14])
    def test_grouped_kernel_equals_the_reference(self, n_sm, agg):
        table = hand_table(50)
        q = Query(
            conditions=PREDICATES["mixed"],
            measures=() if agg == "count" else ("price",),
            agg=agg,
            group_by=(("x", 1), ("y", 0)),
        )
        got = run_groupby_kernel(table, _decompose(q, HAND_SCHEMA), n_sm)
        reference = groupby_from_table(table, q)
        assert got.rows_matched == reference.rows_matched > 0
        # rows are folded in table order on both sides: equal bit for bit
        assert got.cells == reference.cells


class TestScratchIsTileSized:
    """The structural guard: nothing of shard or table length is
    allocated inside a kernel call, at the shipped tile size."""

    @staticmethod
    def _peak(call) -> int:
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("group_by", [(), (("x", 0),)], ids=["scalar", "grouped"])
    @pytest.mark.parametrize("agg", ["sum", "min"])
    def test_peak_allocation_does_not_grow_with_the_table(self, agg, group_by):
        q = Query(
            conditions=(
                Condition("x", 1, lo=2, hi=9),
                Condition("y", 1, codes=(7, 0, 3)),
            ),
            measures=("price",),
            agg=agg,
            group_by=group_by,
        )
        d = _decompose(q, HAND_SCHEMA)
        run = run_groupby_kernel if group_by else run_query_kernel
        peaks = []
        for rows in (100_000, 400_000):
            table = hand_table(rows)  # allocated before the peak is reset
            peaks.append(self._peak(lambda: run(table, d, 1)))
        assert kernels.TILE_ROWS < 100_000
        # a full-length mask alone would be 100 kB, then 400 kB; the gathered
        # float64 values several times that
        assert peaks[1] <= peaks[0] + 4096, peaks
        assert peaks[0] < 64 * kernels.TILE_ROWS, peaks


class TestConcurrentKernels:
    def test_two_threads_on_one_device_get_the_single_threaded_answers(self, fact_table):
        """Scratch belongs to the call: six partitions run kernels at once."""
        device = SimulatedGPU(global_memory_bytes=GB)
        device.load_table(fact_table)
        queries = [
            Query(conditions=(Condition("date", 1, lo=3, hi=15),), measures=("quantity",)),
            Query(
                conditions=(Condition("store", 1, codes=(0, 5, 9)),),
                measures=("net_profit",),
                agg="max",
            ),
        ]
        expected = [device.execute_query(q, 2).value for q in queries]
        answers = [[], []]

        def worker(i):
            for _ in range(200):
                answers[i].append(device.execute_query(queries[i], 2).value)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert answers == [[expected[0]] * 200, [expected[1]] * 200]
