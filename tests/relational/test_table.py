"""Unit tests for the columnar fact table and its reference scan."""

import numpy as np
import pytest

from repro.errors import QueryError, SchemaError, TranslationError
from repro.olap.hierarchy import DimensionHierarchy
from repro.query.model import Condition, Query, decompose
from repro.relational.schema import TableSchema
from repro.relational.table import FactTable


@pytest.fixture()
def tiny_schema():
    return TableSchema(
        [DimensionHierarchy.uniform("d", 2, 4)], measures=("v",)
    )


@pytest.fixture()
def tiny_table(tiny_schema):
    fine = np.array([0, 1, 5, 9, 15, 3, 3, 8])
    return FactTable(
        tiny_schema,
        {
            "d__L0": fine // 4,
            "d__L1": fine,
            "v": np.arange(8, dtype=float) + 1,
        },
    )


class TestConstruction:
    def test_row_count(self, tiny_table):
        assert len(tiny_table) == 8

    def test_missing_column_rejected(self, tiny_schema):
        with pytest.raises(SchemaError, match="missing"):
            FactTable(tiny_schema, {"v": np.zeros(3)})

    def test_extra_column_rejected(self, tiny_schema):
        with pytest.raises(SchemaError, match="not in schema"):
            FactTable(
                tiny_schema,
                {
                    "d__L0": np.zeros(2, dtype=np.int32),
                    "d__L1": np.zeros(2, dtype=np.int32),
                    "v": np.zeros(2),
                    "w": np.zeros(2),
                },
            )

    def test_ragged_columns_rejected(self, tiny_schema):
        with pytest.raises(SchemaError, match="ragged"):
            FactTable(
                tiny_schema,
                {
                    "d__L0": np.zeros(2, dtype=np.int32),
                    "d__L1": np.zeros(3, dtype=np.int32),
                    "v": np.zeros(2),
                },
            )

    def test_out_of_range_coordinates_rejected(self, tiny_schema):
        with pytest.raises(SchemaError, match="outside"):
            FactTable(
                tiny_schema,
                {
                    "d__L0": np.array([0, 7]),  # L0 cardinality is 4
                    "d__L1": np.array([0, 1]),
                    "v": np.zeros(2),
                },
            )

    def test_dtype_cast(self, tiny_table, tiny_schema):
        assert tiny_table.column("d__L1").dtype == tiny_schema.column("d__L1").dtype

    def test_2d_column_rejected(self, tiny_schema):
        with pytest.raises(SchemaError, match="1-D"):
            FactTable(
                tiny_schema,
                {
                    "d__L0": np.zeros((2, 2), dtype=np.int32),
                    "d__L1": np.zeros((2, 2), dtype=np.int32),
                    "v": np.zeros((2, 2)),
                },
            )


class TestPackedLayout:
    def test_packed_size(self, tiny_table):
        assert tiny_table.packed().nbytes == tiny_table.nbytes

    def test_offsets_monotone_and_complete(self, tiny_table):
        offsets = tiny_table.column_offsets()
        values = list(offsets.values())
        assert values == sorted(values)
        assert values[0] == 0

    def test_packed_column_recoverable(self, tiny_table):
        packed = tiny_table.packed()
        offsets = tiny_table.column_offsets()
        col = tiny_table.column("v")
        start = offsets["v"]
        recovered = packed[start : start + col.nbytes].view(np.float64)
        assert np.array_equal(recovered, col)

    def test_head(self, tiny_table):
        head = tiny_table.head(3)
        assert all(len(arr) == 3 for arr in head.values())


class TestScan:
    def test_range_filter(self, tiny_table, tiny_schema):
        q = Query(conditions=(Condition("d", 1, lo=3, hi=9),), measures=("v",))
        result = tiny_table.execute(q)
        col = tiny_table.column("d__L1")
        mask = (col >= 3) & (col < 9)
        assert result.rows_matched == mask.sum()
        assert np.isclose(result.value("v"), tiny_table.column("v")[mask].sum())

    def test_codes_filter(self, tiny_table):
        q = Query(conditions=(Condition("d", 1, codes=(3, 15)),), measures=("v",))
        result = tiny_table.execute(q)
        assert result.rows_matched == 3

    def test_one_condition_per_dimension(self, tiny_table):
        # eq. 1 allows one condition per dimension; two conditions on the
        # same dimension must be rejected at Query construction
        with pytest.raises(QueryError):
            Query(
                conditions=(
                    Condition("d", 0, lo=0, hi=2),
                    Condition("d", 1, lo=0, hi=4),
                ),
                measures=("v",),
            )

    def test_count_query(self, tiny_table):
        q = Query(conditions=(), measures=(), agg="count")
        assert tiny_table.execute(q).value("count") == 8

    @pytest.mark.parametrize("agg,expected", [
        ("min", 1.0),
        ("max", 8.0),
        ("avg", 4.5),
        ("sum", 36.0),
    ])
    def test_aggregates(self, tiny_table, agg, expected):
        q = Query(conditions=(), measures=("v",), agg=agg)
        assert np.isclose(tiny_table.execute(q).value("v"), expected)

    def test_empty_match_sum(self, tiny_table):
        q = Query(conditions=(Condition("d", 1, codes=(14,)),), measures=("v",))
        result = tiny_table.execute(q)
        assert result.rows_matched == 0
        assert result.value("v") == 0.0

    def test_empty_match_avg_nan(self, tiny_table):
        q = Query(
            conditions=(Condition("d", 1, codes=(14,)),), measures=("v",), agg="avg"
        )
        assert np.isnan(tiny_table.execute(q).value("v"))

    def test_untranslated_text_rejected(self, tiny_table, tiny_schema):
        q = Query(conditions=(Condition("d", 1, text_values=("x",)),), measures=("v",))
        decomposition = decompose(q, tiny_schema.hierarchies)
        with pytest.raises(TranslationError):
            tiny_table.scan(decomposition)

    def test_bytes_read_full_columns(self, tiny_table, tiny_schema):
        q = Query(conditions=(Condition("d", 1, lo=0, hi=2),), measures=("v",))
        result = tiny_table.execute(q)
        expected = tiny_table.column_nbytes("d__L1") + tiny_table.column_nbytes("v")
        assert result.bytes_read == expected

    def test_columns_read_is_eq12(self, tiny_table):
        q = Query(conditions=(Condition("d", 1, lo=0, hi=2),), measures=("v",))
        assert tiny_table.execute(q).columns_read == 2

    def test_multi_measure(self, fact_table):
        q = Query(conditions=(), measures=("quantity", "net_profit"), agg="sum")
        result = fact_table.execute(q)
        assert set(result.values) == {"quantity", "net_profit"}
        with pytest.raises(QueryError):
            result.value()  # ambiguous without naming the measure
