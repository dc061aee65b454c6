"""Property tests for the rollup cache tier.

Two contracts, both against random catalogs × random queries:

1. **Answer exactness** — a cache hit equals the uncached
   :class:`~repro.sim.executors.MaterialisedExecutor` answer
   *byte-for-byte*.  The ``quantity`` measure is integer-valued by
   construction (see ``tests/conftest.py``), so float64 sums are exact
   in any aggregation order and equality is ``==``, not ``approx``.
2. **Coverage soundness** — ``covers()`` agrees with an independent
   brute-force walk over every installed cuboid: it never claims
   coverage the brute force denies, never misses one it grants, and
   picks the same cuboid — the one with the fewest cells.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitions import PartitionQueue, QueueKind
from repro.core.perfmodel import XEON_X5667_8T
from repro.gpu import SimulatedGPU
from repro.gpu.partitioning import paper_partition_scheme
from repro.gpu.timing import TESLA_C2070_TIMING
from repro.olap import CubePyramid, CuboidSpec, RollupCatalog
from repro.query.model import Condition, Query
from repro.relational import tpcds_like_schema
from repro.serve import MaterialisedExecutor
from repro.sim.system import SystemConfig
from repro.units import GB

SCHEMA = tpcds_like_schema(scale=0.5)
DIMS = list(SCHEMA.dimensions)
NAMES = [d.name for d in DIMS]
MAX_RES = 2  # keep cuboids laptop-sized (the pyramid stops at 2 too)


@st.composite
def cuboid_specs(draw):
    idxs = draw(
        st.lists(
            st.integers(0, len(DIMS) - 1), min_size=1, max_size=len(DIMS),
            unique=True,
        )
    )
    dims = tuple(NAMES[i] for i in idxs)
    resolutions = tuple(
        draw(st.integers(0, MAX_RES)) for _ in dims
    )
    return CuboidSpec(dims=dims, resolutions=resolutions)


@st.composite
def queries(draw):
    conditions = []
    for d in DIMS:
        if not draw(st.booleans()):
            continue
        r = draw(st.integers(0, MAX_RES + 1))  # res 3 exceeds any cuboid
        card = d.cardinality(r)
        lo = draw(st.integers(0, card - 1))
        hi = draw(st.integers(lo + 1, card))
        conditions.append(Condition(d.name, r, lo=lo, hi=hi))
    agg = draw(st.sampled_from(["sum", "count", "avg", "min", "max"]))
    return Query(conditions=tuple(conditions), measures=("quantity",), agg=agg)


@pytest.fixture(scope="module")
def quantity_world(fact_table, translator):
    """Uncached executor + catalog factory over the integer measure."""
    device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    device.load_table(fact_table)
    pyramid = CubePyramid.from_fact_table(
        fact_table, "quantity", [0, 1, 2], with_minmax=True
    )
    config = SystemConfig(
        cpu_model=XEON_X5667_8T,
        pyramid=pyramid,
        device=device,
        scheme=paper_partition_scheme(),
        translation_service=translator,
    )
    executor = MaterialisedExecutor(config, cpu_threads=1)
    cpu_queue = PartitionQueue("Q_CPU", QueueKind.CPU)

    built: dict[CuboidSpec, object] = {}

    def make_catalog(spec_list):
        catalog = RollupCatalog(fact_table, "quantity")
        for spec in spec_list:
            if spec not in built:
                built[spec] = catalog.materialise(spec)
            catalog.install(built[spec])
        return catalog

    return executor, cpu_queue, make_catalog


def brute_force_covers(catalog, query):
    """Independent re-derivation of the coverage rule: filter every
    installed cuboid, then take the smallest."""
    if query.needs_translation:
        return None
    if (
        query.agg != "count"
        and query.measures
        and catalog.measure not in query.measures
    ):
        return None
    needed: dict[str, int] = {}
    for cond in query.conditions:
        needed[cond.dimension] = max(
            needed.get(cond.dimension, 0), cond.resolution
        )
    for dim, res in query.group_by:
        needed[dim] = max(needed.get(dim, 0), res)
    if any(name not in NAMES for name in needed):
        return None
    covering = [
        entry
        for entry in catalog.cuboids()
        if not entry.pruned_cells
        and entry.built_rows == catalog.row_count
        and set(needed) <= entry.spec.key
        and all(entry.spec.resolution_of(d) >= r for d, r in needed.items())
    ]
    # the fewest cells; ties go to the first in lattice walk order
    # (fewest dimensions, then sorted names)
    walk = [
        frozenset(subset)
        for k in range(len(NAMES) + 1)
        for subset in itertools.combinations(sorted(NAMES), k)
    ]
    return min(
        covering,
        key=lambda entry: (entry.num_cells, walk.index(entry.spec.key)),
        default=None,
    )


class TestRollupProperties:
    @given(spec_list=st.lists(cuboid_specs(), max_size=3), query=queries())
    @settings(max_examples=60, deadline=None)
    def test_hit_answers_byte_identical_to_uncached(
        self, quantity_world, spec_list, query
    ):
        executor, cpu_queue, make_catalog = quantity_world
        catalog = make_catalog(spec_list)
        cuboid = catalog.covers(query)
        if cuboid is None:
            return
        cached = catalog.answer(query, cuboid)
        uncached = executor.execute(cpu_queue, query)
        if math.isnan(cached):  # empty selection: NaN on both paths
            assert math.isnan(uncached)
        else:
            assert cached == uncached  # byte-identical, no tolerance

    @given(spec_list=st.lists(cuboid_specs(), max_size=4), query=queries())
    @settings(max_examples=80, deadline=None)
    def test_covers_agrees_with_brute_force(
        self, quantity_world, spec_list, query
    ):
        _, _, make_catalog = quantity_world
        catalog = make_catalog(spec_list)
        claimed = catalog.covers(query)
        expected = brute_force_covers(catalog, query)
        assert claimed is expected
        denied = expected is None
        if claimed is not None:
            # soundness: never claim what the brute force denies, and
            # the returned cuboid itself must genuinely cover the query
            assert not denied
            needed = {}
            for cond in query.conditions:
                needed[cond.dimension] = max(
                    needed.get(cond.dimension, 0), cond.resolution
                )
            assert set(needed) <= claimed.spec.key
            assert all(
                claimed.spec.resolution_of(d) >= r
                for d, r in needed.items()
            )
        else:
            # completeness: a miss means no installed cuboid covers it
            assert denied
