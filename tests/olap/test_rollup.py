"""Unit tests for the rollup router + materialised answer cache.

Covers the catalog (materialise / install / coverage walk / coherence),
its answer path (answer parity with the pyramid), the admission policy
(greedy frequency × cost / bytes under budget) and the router façade
(hit records, miss bookkeeping, maintenance).
"""

import threading

import numpy as np
import pytest

from repro.errors import RollupError
from repro.olap import (
    ROLLUP_TARGET,
    AdmissionPolicy,
    CuboidSpec,
    RollupCatalog,
    RollupRouter,
)
from repro.query.model import Condition, Query
from repro.query.parser import parse_query
from repro.relational import generate_dataset, tpcds_like_schema
from repro.relational.table import FactTable


def q(dim, res, lo, hi, **kw):
    kw.setdefault("measures", ("sales_price",))
    return Query(conditions=(Condition(dim, res, lo=lo, hi=hi),), **kw)


def split_table(table, at=None):
    """The table's rows as two stacked FactTables (ingest test input)."""
    at = table.num_rows // 2 if at is None else at
    names = [c.name for c in table.schema.columns]
    first = FactTable(table.schema, {n: table.column(n)[:at] for n in names})
    second = FactTable(table.schema, {n: table.column(n)[at:] for n in names})
    return first, second


@pytest.fixture
def catalog(fact_table):
    return RollupCatalog(fact_table, "sales_price")


@pytest.fixture
def full_catalog(catalog, small_schema):
    """Catalog with the all-dims resolution-2 cuboid installed."""
    names = tuple(d.name for d in small_schema.dimensions)
    catalog.materialise_and_install(
        CuboidSpec(dims=names, resolutions=(2,) * len(names))
    )
    return catalog


class TestCuboidSpec:
    def test_dims_sorted_with_resolutions(self):
        spec = CuboidSpec(dims=("store", "date"), resolutions=(2, 1))
        assert spec.dims == ("date", "store")
        assert spec.resolutions == (1, 2)
        assert spec.key == frozenset({"date", "store"})

    def test_resolution_of(self):
        spec = CuboidSpec(dims=("date",), resolutions=(1,))
        assert spec.resolution_of("date") == 1
        with pytest.raises(RollupError):
            spec.resolution_of("store")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dims=(), resolutions=()),
            dict(dims=("date", "date"), resolutions=(1, 1)),
            dict(dims=("date",), resolutions=(1, 2)),
            dict(dims=("date",), resolutions=(1,), min_support=0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(RollupError):
            CuboidSpec(**kwargs)


class TestCatalog:
    def test_unknown_measure_rejected(self, fact_table):
        with pytest.raises(Exception):
            RollupCatalog(fact_table, "no_such_measure")

    def test_materialise_and_install(self, catalog):
        spec = CuboidSpec(dims=("date",), resolutions=(1,))
        cuboid = catalog.materialise_and_install(spec)
        assert len(catalog) == 1
        assert ("date",) in catalog
        assert catalog.get(("date",)) is cuboid
        assert cuboid.built_rows == catalog.row_count
        assert cuboid.pruned_cells == 0
        assert catalog.total_nbytes == cuboid.nbytes

    def test_install_last_wins(self, catalog):
        a = catalog.materialise(CuboidSpec(dims=("date",), resolutions=(1,)))
        b = catalog.materialise(CuboidSpec(dims=("date",), resolutions=(2,)))
        catalog.install(a)
        catalog.install(b)
        assert len(catalog) == 1
        assert catalog.get(("date",)) is b

    def test_drop_and_invalidate(self, full_catalog):
        assert full_catalog.invalidate() == 1
        assert len(full_catalog) == 0
        assert not full_catalog.drop(("date",))

    def test_estimated_nbytes_matches_shape(self, catalog, small_schema):
        spec = CuboidSpec(dims=("date", "store"), resolutions=(1, 1))
        by_dim = {d.name: d for d in small_schema.dimensions}
        cells = 1
        for name, res in zip(spec.dims, spec.resolutions):
            dim = by_dim[name]
            cells *= dim.cardinality(dim.check_resolution(res))
        assert catalog.estimated_nbytes(spec) == cells * 32
        with pytest.raises(RollupError):
            catalog.estimated_nbytes(
                CuboidSpec(dims=("nope",), resolutions=(1,))
            )

    def test_cuboid_sums_match_pyramid(self, full_catalog, pyramid):
        query = q("date", 1, 0, 3)
        cuboid = full_catalog.covers(query)
        assert cuboid is not None
        got = full_catalog.answer(query, cuboid)
        assert got == pytest.approx(pyramid.answer(query), rel=1e-12)


class TestCovers:
    def test_subset_dims_covered(self, full_catalog):
        assert full_catalog.covers(q("date", 1, 0, 2)) is not None
        assert full_catalog.covers(q("store", 2, 0, 5)) is not None

    def test_coarser_cuboid_does_not_cover_finer_query(self, catalog):
        catalog.materialise_and_install(
            CuboidSpec(dims=("date",), resolutions=(1,))
        )
        assert catalog.covers(q("date", 1, 0, 2)) is not None
        assert catalog.covers(q("date", 2, 0, 2)) is None

    def test_walk_prefers_coarsest_sufficient(self, catalog):
        catalog.materialise_and_install(
            CuboidSpec(dims=("date",), resolutions=(2,))
        )
        catalog.materialise_and_install(
            CuboidSpec(dims=("date", "store"), resolutions=(2, 2))
        )
        hit = catalog.covers(q("date", 1, 0, 2))
        assert hit.spec.dims == ("date",)

    def test_walk_prefers_fewest_cells(self):
        """Of two covering cuboids with as many dimensions, the one with
        fewer cells answers, although its names sort later."""
        schema = tpcds_like_schema(scale=0.1)
        table = generate_dataset(schema, num_rows=500, seed=3).table
        catalog = RollupCatalog(table, "quantity")
        wide = catalog.materialise_and_install(CuboidSpec(("date", "item"), (2, 3)))
        tiny = catalog.materialise_and_install(CuboidSpec(("date", "store"), (0, 0)))
        assert (wide.num_cells, tiny.num_cells) == (6000, 1)
        assert catalog.cuboids() == (tiny, wide)

        def year(code):
            return parse_query(f"SELECT sum(quantity) WHERE date.year = {code}", schema.hierarchies)

        assert catalog.covers(year(1)) is tiny
        # date.year has one member at this scale: code 0 is the one to answer
        assert catalog.covers(year(0)) is tiny
        total = table.column("quantity").sum()
        assert catalog.answer(year(0), tiny) == catalog.answer(year(0), wide) == total

    def test_text_query_never_covered(self, full_catalog):
        query = Query(
            conditions=(Condition("store", 1, text_values=("x",)),),
            measures=("sales_price",),
        )
        assert query.needs_translation
        assert full_catalog.covers(query) is None

    def test_measure_mismatch_not_covered(self, full_catalog):
        assert full_catalog.covers(
            q("date", 1, 0, 2, measures=("quantity",))
        ) is None

    def test_count_ignores_measure(self, full_catalog):
        query = q("date", 1, 0, 2, measures=("quantity",), agg="count")
        assert full_catalog.covers(query) is not None

    def test_unknown_dimension_not_covered(self, full_catalog):
        query = Query(
            conditions=(Condition("martian", 1, lo=0, hi=2),),
            measures=("sales_price",),
        )
        assert full_catalog.covers(query) is None

    def test_group_by_resolution_counts(self, catalog):
        catalog.materialise_and_install(
            CuboidSpec(dims=("date", "store"), resolutions=(1, 1))
        )
        fine_group = Query(
            conditions=(Condition("date", 1, lo=0, hi=2),),
            measures=("sales_price",),
            group_by=(("store", 2),),
        )
        assert catalog.covers(fine_group) is None

    def test_would_cover(self, full_catalog):
        assert full_catalog.would_cover({"date": 2})
        assert not full_catalog.would_cover({"date": 3})


class TestCoherence:
    def test_iceberg_pruning_blocks_coverage(self, catalog, pyramid):
        spec = CuboidSpec(
            dims=("date", "store", "item"),
            resolutions=(2, 2, 2),
            min_support=10_000,
        )
        cuboid = catalog.materialise_and_install(spec)
        assert cuboid.pruned_cells > 0
        assert catalog.covers(q("date", 1, 0, 2)) is None
        # a pruned cell reads as an empty one: 0 / 0 / +inf / -inf
        unpruned = catalog.materialise(
            CuboidSpec(dims=spec.dims, resolutions=spec.resolutions)
        ).cube.component("count")
        pruned = (unpruned > 0) & (unpruned < spec.min_support)
        assert int(pruned.sum()) == cuboid.pruned_cells
        for comp, empty in (("sum", 0.0), ("count", 0.0), ("min", np.inf), ("max", -np.inf)):
            assert (cuboid.cube.component(comp)[pruned] == empty).all(), comp

    def test_mark_stale_blocks_coverage(self, full_catalog):
        query = q("date", 1, 0, 2)
        assert full_catalog.covers(query) is not None
        full_catalog.mark_stale(full_catalog.row_count + 5)
        assert full_catalog.covers(query) is None
        with pytest.raises(RollupError):
            full_catalog.mark_stale(0)

    def test_ingest_fold_equals_rebuild(self, small_schema, dataset):
        table = dataset.table
        first, second = split_table(table)
        catalog = RollupCatalog(first, "sales_price")
        spec = CuboidSpec(dims=("date", "store"), resolutions=(1, 1))
        catalog.materialise_and_install(spec)
        catalog.ingest(second)
        folded = catalog.get(("date", "store"))
        assert folded.built_rows == table.num_rows

        whole = RollupCatalog(table, "sales_price")
        rebuilt = whole.materialise(spec)
        # the batch scatters in row order, so the float sums match bit for bit
        for comp in ("sum", "count", "min", "max"):
            np.testing.assert_array_equal(
                folded.cube.component(comp), rebuilt.cube.component(comp)
            )

    def test_ingest_drops_iceberg_cuboids(self, small_schema, dataset):
        first, second = split_table(dataset.table)
        catalog = RollupCatalog(first, "sales_price")
        catalog.materialise_and_install(
            CuboidSpec(dims=("date",), resolutions=(1,))
        )
        catalog.materialise_and_install(
            CuboidSpec(dims=("store",), resolutions=(1,), min_support=100)
        )
        catalog.ingest(second)
        assert ("date",) in catalog
        assert ("store",) not in catalog

    def test_materialise_after_ingest_sees_all_rows(self, dataset):
        table = dataset.table
        first, second = split_table(table)
        catalog = RollupCatalog(first, "sales_price")
        catalog.ingest(second)
        built = catalog.materialise(CuboidSpec(dims=("date",), resolutions=(1,)))
        assert built.built_rows == table.num_rows
        whole = RollupCatalog(table, "sales_price").materialise(
            CuboidSpec(dims=("date",), resolutions=(1,))
        )
        for comp in ("sum", "count", "min", "max"):
            np.testing.assert_allclose(
                built.cube.component(comp), whole.cube.component(comp)
            )


class TestAdmissionPolicy:
    def test_spec_for_merges_conditions_and_group_by(self):
        query = Query(
            conditions=(Condition("store", 1, lo=0, hi=2),),
            measures=("sales_price",),
            group_by=(("store", 2), ("date", 1)),
        )
        spec = AdmissionPolicy.spec_for(query)
        assert spec.dims == ("date", "store")
        assert spec.resolutions == (1, 2)

    def test_spec_for_text_and_unconstrained(self):
        text = Query(
            conditions=(Condition("store", 1, text_values=("x",)),),
            measures=("sales_price",),
        )
        assert AdmissionPolicy.spec_for(text) is None
        assert AdmissionPolicy.spec_for(
            Query(conditions=(), measures=("sales_price",))
        ) is None

    def test_min_frequency_gates_plan(self, catalog):
        policy = AdmissionPolicy(byte_budget=1 << 30, min_frequency=2)
        policy.observe(q("date", 1, 0, 2))
        assert policy.plan(catalog) == []
        policy.observe(q("date", 1, 0, 3))
        plans = policy.plan(catalog)
        assert plans == [CuboidSpec(dims=("date",), resolutions=(1,))]

    def test_plan_skips_already_covered(self, full_catalog):
        policy = AdmissionPolicy(byte_budget=1 << 30)
        for _ in range(3):
            policy.observe(q("date", 1, 0, 2))
        assert policy.plan(full_catalog) == []

    def test_plan_respects_budget(self, catalog):
        policy = AdmissionPolicy(byte_budget=0)
        for _ in range(3):
            policy.observe(q("date", 1, 0, 2))
        assert policy.plan(catalog) == []

    def test_plan_greedy_order_prefers_cheap_frequent(self, catalog):
        policy = AdmissionPolicy(byte_budget=1 << 30)
        for _ in range(2):
            policy.observe(q("date", 2, 0, 2))  # bigger cuboid, fewer hits
        for _ in range(10):
            policy.observe(q("store", 1, 0, 2))  # small cuboid, many hits
        plans = policy.plan(catalog)
        assert plans[0] == CuboidSpec(dims=("store",), resolutions=(1,))
        # budget that only fits the small one drops the big one
        small = catalog.estimated_nbytes(plans[0])
        tight = AdmissionPolicy(byte_budget=small, min_frequency=2)
        for _ in range(2):
            tight.observe(q("date", 2, 0, 2))
        for _ in range(10):
            tight.observe(q("store", 1, 0, 2))
        assert tight.plan(catalog) == [plans[0]]

    def test_plan_ignores_unknown_dimensions(self, catalog):
        policy = AdmissionPolicy(byte_budget=1 << 30)
        alien = Query(
            conditions=(Condition("martian", 1, lo=0, hi=2),),
            measures=("sales_price",),
        )
        for _ in range(3):
            policy.observe(alien)
        assert policy.plan(catalog) == []

    def test_observed_cost_feeds_mean(self, catalog):
        policy = AdmissionPolicy(byte_budget=1 << 30)
        policy.observe(q("date", 1, 0, 2), cost=0.2)
        policy.observe(q("date", 1, 0, 3), cost=0.4)
        (stats,) = policy.shapes()
        assert stats.count == 2
        assert stats.mean_cost == pytest.approx(0.3)


class TestExecutor:
    def test_answer_raises_on_miss(self, catalog):
        with pytest.raises(RollupError):
            catalog.answer(q("date", 1, 0, 2))

    @pytest.mark.parametrize("agg", ["sum", "avg", "min", "max", "count"])
    def test_agg_parity_with_reference_scan(self, full_catalog, fact_table, agg):
        query = q("date", 1, 0, 3, agg=agg)
        got = full_catalog.answer(query)
        assert got == pytest.approx(
            fact_table.execute(query).value(), rel=1e-9
        )


class TestRouter:
    def test_hit_returns_zero_cost_record(self, full_catalog, pyramid):
        router = RollupRouter(full_catalog)
        query = q("date", 1, 0, 3)
        rec = router.serve(query, "small", now=4.0, deadline=4.5)
        assert rec is not None
        assert rec.target == ROLLUP_TARGET
        assert rec.submit_time == rec.finish_time == 4.0
        assert rec.estimated_time == rec.measured_time == 0.0
        assert rec.answer == pytest.approx(pyramid.answer(query), rel=1e-12)
        assert router.hits == 1 and router.misses == 0
        assert router.hit_rate == 1.0

    def test_miss_feeds_policy(self, catalog):
        policy = AdmissionPolicy(byte_budget=1 << 30)
        router = RollupRouter(catalog, policy=policy)
        assert router.serve(q("date", 1, 0, 2)) is None
        assert router.misses == 1 and router.hit_rate == 0.0
        (stats,) = policy.shapes()
        assert stats.count == 1

    def test_maintain_requires_policy(self, catalog):
        with pytest.raises(RollupError):
            RollupRouter(catalog).maintain()

    def test_maintain_then_hit(self, catalog):
        router = RollupRouter(
            catalog, policy=AdmissionPolicy(byte_budget=1 << 30)
        )
        query = q("date", 1, 0, 2)
        for _ in range(2):
            assert router.serve(query) is None
        assert router.maintain() == 1
        assert router.materialized == 1
        assert router.serve(query) is not None

    def test_metrics_counters(self, full_catalog):
        """The router returns what a hit measured; the ``RollupMetrics``
        subscriber counts what the stage stream hands it."""
        from repro.metrics import MetricsRegistry, RollupMetrics

        registry = MetricsRegistry()
        metrics = RollupMetrics(registry)
        router = RollupRouter(full_catalog)
        hit = router.lookup(q("date", 1, 0, 3), "small", now=2.0)
        (cuboid,) = full_catalog.cuboids()
        assert hit.source == ",".join(sorted(cuboid.spec.dims))
        assert hit.seconds >= 0.0 and hit.record.finish_time == 2.0
        metrics.on_cache_hit(hit.record, hit.source, hit.seconds, 2.0)
        miss = q("date", 3, 0, 3)  # finer than the catalog: miss
        assert router.lookup(miss) is None
        metrics.on_submitted(miss, "small", 2.0)
        assert (router.hits, router.misses) == (1, 1)
        snap = registry.collect(now=1.0)
        assert snap.family("repro_rollup_hits_total").total() == 1
        assert snap.family("repro_rollup_misses_total").total() == 1
        hist = snap.histogram("repro_rollup_hit_latency_seconds")
        assert hist.count == 1


def date_store_avg():
    return Query(
        conditions=(
            Condition("date", 1, lo=2, hi=9),
            Condition("store", 1, lo=1, hi=12),
        ),
        measures=("sales_price",),
        agg="avg",
    )


def batches(table, base, size):
    """The first ``base`` rows, then the rest as ``size``-row FactTables."""
    names = [c.name for c in table.schema.columns]

    def cut(lo, hi):
        return FactTable(table.schema, {n: table.column(n)[lo:hi] for n in names})

    return cut(0, base), [
        cut(lo, min(lo + size, table.num_rows))
        for lo in range(base, table.num_rows, size)
    ]


class TestPublishedCuboidsAreImmutable:
    """``ingest`` folds into a copy and publishes it; what ``covers``
    returned is never written again, so a hit reads it with no lock."""

    SPEC = CuboidSpec(dims=("date", "store"), resolutions=(1, 1))

    def test_ingest_publishes_a_new_cuboid(self, dataset):
        first, second = split_table(dataset.table)
        catalog = RollupCatalog(first, "sales_price")
        catalog.materialise_and_install(self.SPEC)
        query = date_store_avg()
        held = catalog.covers(query)
        before = {c: np.array(held.cube.component(c)) for c in held.cube.components}
        answer = catalog.answer(query, held)

        catalog.ingest(second)
        published = catalog.covers(query)
        assert published is not held and published.cube is not held.cube
        assert published.built_rows == held.built_rows + second.num_rows
        for name, values in before.items():
            assert np.array_equal(held.cube.component(name), values), name
        assert catalog.answer(query, held) == answer
        assert catalog.answer(query) != answer

    def test_readers_see_one_version_each(self, dataset):
        base, batch_list = batches(dataset.table, 5_000, 100)
        assert len(batch_list) == 50
        query = date_store_avg()
        # the avg of every version the writer will publish, in order
        replay = RollupCatalog(base, "sales_price")
        replay.materialise_and_install(self.SPEC)
        versions = [replay.answer(query)]
        for batch in batch_list:
            replay.ingest(batch)
            versions.append(replay.answer(query))
        assert len(set(versions)) == len(versions)

        catalog = RollupCatalog(base, "sales_price")
        catalog.materialise_and_install(self.SPEC)
        writing = threading.Event()
        writing.set()
        seen: list[list[float]] = [[], []]

        def reader(k):
            while writing.is_set():
                seen[k].append(catalog.answer(query))

        readers = [threading.Thread(target=reader, args=(k,)) for k in range(2)]
        for t in readers:
            t.start()
        for batch in batch_list:
            catalog.ingest(batch)
        writing.clear()
        for t in readers:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in readers)
        answers = seen[0] + seen[1]
        assert answers and set(answers) <= set(versions)
        assert catalog.answer(query) == versions[-1]
