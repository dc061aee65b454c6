"""Property-based test: the tile loop agrees with the reference scan.

The tile constant is patched to 7 rows so that, on tables of at most 80
rows, tile edges fall inside shards and shard edges inside tiles.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import kernels
from repro.gpu.kernels import _shard_bounds, run_query_kernel, shard_mask
from repro.groupby import groupby_from_table, run_groupby_kernel
from repro.query.model import Condition, Query, decompose

from .test_prop_groupby import DIMS, SCHEMA, tables


@st.composite
def conditions(draw):
    """At most one condition per dimension: a range or a code set, at either level."""
    out = []
    for dim in DIMS:
        if not draw(st.booleans()):
            continue
        r = draw(st.integers(0, 1))
        card = dim.cardinality(r)
        if draw(st.booleans()):
            lo = draw(st.integers(0, card - 1))
            hi = draw(st.integers(lo + 1, card + 2))
            out.append(Condition(dim.name, r, lo=lo, hi=hi))
        else:
            # unsorted, repeated, and now and then one no row can hold
            codes = draw(st.lists(st.integers(0, card + 1), min_size=1, max_size=6))
            out.append(Condition(dim.name, r, codes=tuple(codes)))
    return tuple(out)


class TestTileLoopAgreesWithTheReference:
    @given(
        tables(),
        conditions(),
        st.sampled_from(["sum", "count", "avg", "min", "max"]),
        st.integers(1, 14),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_mask_scalar_and_grouped_kernels(self, table, conds, agg, n_sm, grouped):
        measures = () if agg == "count" else ("v",)
        scalar = Query(conditions=conds, measures=measures, agg=agg)
        d = decompose(scalar, SCHEMA.hierarchies)
        with mock.patch.object(kernels, "TILE_ROWS", 7):
            masks = [
                shard_mask(table, d, lo, hi)
                for lo, hi in _shard_bounds(table.num_rows, n_sm)
            ]
            kernel = run_query_kernel(table, d, n_sm)
            if grouped:
                by = Query(
                    conditions=conds,
                    measures=measures,
                    agg=agg,
                    group_by=(("x", 1), ("y", 0)),
                )
                cells = run_groupby_kernel(
                    table, decompose(by, SCHEMA.hierarchies), n_sm
                ).cells
                assert cells == groupby_from_table(table, by).cells

        assert np.array_equal(np.concatenate(masks), table.filter_mask(d))
        reference = table.scan(d)
        assert kernel.result.rows_matched == reference.rows_matched
        assert sum(p.rows_scanned for p in kernel.partials) == table.num_rows
        assert np.isclose(
            kernel.result.value(), reference.value(), rtol=1e-12, atol=1e-9,
            equal_nan=True,
        )
