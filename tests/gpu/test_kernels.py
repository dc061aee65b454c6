"""Unit tests for the simulated GPU kernels (Lauer et al. pipeline)."""

import numpy as np
import pytest

from repro.errors import DeviceError, TranslationError
from repro.gpu.kernels import run_query_kernel, shard_mask, _shard_bounds
from repro.query.model import Condition, Query, decompose


def _decompose(q, schema):
    return decompose(q, schema.hierarchies)


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
