"""The four benchmark workloads as data, and the one world builder they share.

A *world* is everything a serving engine needs: dataset, cube pyramid,
dictionaries, simulated device and (for ``hot-ingest``) a warmed rollup
catalog.  Every workload and the traced per-layer run build theirs here,
so a later PR that touches world construction moves ``setup_s`` on all
of them at once.  The query lists come from here too: the program under
test only ever sees inputs generated from ``--seed``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from repro.core.perfmodel import XEON_X5667_8T
from repro.fleet import ShardSpec
from repro.gpu import SimulatedGPU
from repro.gpu.device import TableDescriptor
from repro.gpu.partitioning import paper_partition_scheme
from repro.gpu.timing import TESLA_C2070_TIMING
from repro.olap import (
    AdmissionPolicy,
    CubePyramid,
    CuboidSpec,
    RollupCatalog,
    RollupRouter,
)
from repro.query.model import Condition, Query
from repro.query.workload import QueryClass, WorkloadSpec
from repro.relational import FactTable, generate_dataset, tpcds_like_schema
from repro.serve import MaterialisedExecutor, ServeEngine
from repro.sim.system import SystemConfig
from repro.text import TranslationService, build_dictionaries
from repro.units import GB

import render

#: the paper's T_C; also the deadline `deadline_hit_rate` is scored against
TIME_CONSTRAINT = 0.5
#: every client walks a list this long, so the engine's own caches (static
#: estimate tables, dictionaries) are exercised but no answer repeats soon
LIST_LENGTH = 4000
#: = nproc on the reference host; also the CPU partition's thread count
CLIENTS = 2
#: uniform resolutions of the pre-calculated cubes (level 3 is GPU-only)
LEVELS = (0, 1, 2)

#: the three BENCH-ROLLUP hot cuboids and its never-covered cold probe
HOT_SHAPES = (
    (("date",), (2,)),
    (("store",), (2,)),
    (("date", "store"), (2, 2)),
)
COLD_SHAPE = (("item",), (1,))
HOT_FRACTION = 0.8
#: seconds of wall time between two batches the `hot-ingest` writer folds in
INGEST_EVERY = 0.5

TABLE3_MIX = (
    QueryClass("small", 0.6, resolution=1, coverage=(0.1, 0.5)),
    QueryClass(
        "mid",
        0.25,
        resolution=2,
        dims_constrained=(1, 2),
        coverage=(0.5, 1.0),
        text_prob=0.5,
    ),
    QueryClass("fine", 0.15, resolution=3, coverage=(0.2, 0.8)),
)


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (README.md prints it)."""

    name: str
    why: str
    rows: int
    scale: float
    measure: str
    #: weighted WorkloadSpec mix; empty for the hand-built hot/cold list
    mix: tuple[QueryClass, ...] = ()
    rollup: bool = False
    #: client 0 folds one batch of this many rows in every INGEST_EVERY s
    ingest_rows: int = 0
    #: served by a 2-shard Fleet behind the HTTP door instead of in-process
    fleet: bool = False
    #: closed-loop q/s measured on the reference host; the open-loop
    #: per-layer pass offers half of it
    stated_qps: float = 0.0

    def tiny(self) -> "Workload":
        """The `--smoke` variant: same shape, seconds instead of minutes."""
        return replace(
            self,
            rows=min(self.rows, 5000),
            scale=min(self.scale, 0.5),
            ingest_rows=min(self.ingest_rows, 200),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-heavy",
            "multi-MB cube reductions and 1M-row table scans: olap.parallel and "
            "gpu.kernels do the work, so a kernel change shows and an admission "
            "change barely does",
            rows=1_000_000,
            scale=1.0,
            measure="quantity",
            mix=(
                QueryClass(
                    "wide2", 0.6, resolution=2, dims_constrained=(2, 3),
                    coverage=(0.7, 1.0),
                ),
                QueryClass("fine3", 0.4, resolution=3, coverage=(0.3, 0.9)),
            ),
            stated_qps=230.0,
        ),
        Workload(
            "small-table3",
            "the BENCH-SERVE world: KBs scanned per query, so estimate, Figure 10, "
            "the engine lock and pool hand-offs dominate; lifecycle and lock "
            "changes show, bandwidth changes do not",
            rows=10_000,
            scale=0.5,
            measure="quantity",
            mix=TABLE3_MIX,
            stated_qps=1100.0,
        ),
        Workload(
            "hot-ingest",
            "80% rollup hits served under the engine lock beside in-place cube "
            "ingest every 0.5 s: a gain for reads that costs writes (or the "
            "reverse) shows here",
            rows=200_000,
            scale=1.0,
            measure="quantity",
            rollup=True,
            ingest_rows=2000,
            stated_qps=2700.0,
        ),
        Workload(
            "fleet-http",
            "the small world behind 2 shard processes and the HTTP door: parser, "
            "front door, ring, frame codec and the process hop are most of the "
            "latency; wire and door changes show here only",
            rows=10_000,
            scale=0.5,
            # the shipped ShardSpec builds its pyramid on sales_price and the
            # cube path does not check a query's measure, so this workload has
            # to aggregate the shard's measure to be answered correctly
            measure="sales_price",
            mix=TABLE3_MIX,
            fleet=True,
            stated_qps=500.0,
        ),
    )
}


class Entry(NamedTuple):
    """One pre-generated operation: the query, its class and its wire text."""

    query: Query
    query_class: str
    text: str


@dataclass
class World:
    workload: Workload
    seed: int
    schema: object
    dataset: object
    config: SystemConfig
    catalog: RollupCatalog | None

    def engine(self, **kwargs) -> ServeEngine:
        """A fresh, unstarted engine over this world (router attached if any)."""
        router = None
        if self.catalog is not None:
            router = RollupRouter(
                self.catalog, policy=AdmissionPolicy(byte_budget=32_000_000)
            )
        kwargs.setdefault(
            "executor", MaterialisedExecutor(self.config, cpu_threads=CLIENTS)
        )
        return ServeEngine(self.config, rollup=router, **kwargs)

    def analytic_config(self) -> SystemConfig:
        """The same models over shapes only, so a simulated run does no real work."""
        pyramid = self.config.pyramid
        device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
        device.load_table(TableDescriptor(self.schema, len(self.dataset.table)))
        return replace(
            self.config,
            pyramid=CubePyramid.analytic(
                pyramid.dimensions, LEVELS, measure=pyramid.measure
            ),
            device=device,
        )


def build_world(workload: Workload, seed: int) -> World:
    """Dataset + pyramid + dictionaries + device (+ warmed rollup catalog)."""
    schema = tpcds_like_schema(scale=workload.scale)
    dataset = generate_dataset(schema, num_rows=workload.rows, seed=seed)
    pyramid = CubePyramid.from_fact_table(dataset.table, workload.measure, LEVELS)
    translator = TranslationService(
        build_dictionaries(dataset.vocabularies), schema.hierarchies
    )
    device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    device.load_table(dataset.table)
    config = SystemConfig(
        cpu_model=XEON_X5667_8T.with_overhead(0.002),
        pyramid=pyramid,
        device=device,
        scheme=paper_partition_scheme(),
        translation_service=translator,
        time_constraint=TIME_CONSTRAINT,
    )
    catalog = hot_catalog(dataset.table, workload.measure) if workload.rollup else None
    return World(workload, seed, schema, dataset, config, catalog)


def hot_catalog(table: FactTable, measure: str) -> RollupCatalog:
    """A rollup catalog holding the three BENCH-ROLLUP hot cuboids."""
    catalog = RollupCatalog(table, measure)
    for names, resolutions in HOT_SHAPES:
        catalog.materialise_and_install(CuboidSpec(dims=names, resolutions=resolutions))
    return catalog


def world_bytes(workload: Workload) -> int:
    """Bytes of the fact table and the pyramid `build_world` makes, from shapes alone."""
    schema = tpcds_like_schema(scale=workload.scale)
    pyramid = CubePyramid.analytic(tuple(schema.hierarchies.values()), LEVELS)
    return TableDescriptor(schema, workload.rows).nbytes + pyramid.total_nbytes


def shard_spec(workload: Workload, seed: int) -> ShardSpec:
    """The shipped ShardSpec defaults; only rows, seed and scale come from here."""
    return ShardSpec(
        shard_id=0, rows=workload.rows, seed=seed, scale=workload.scale
    )


def hot_cold_queries(schema, measure: str, n: int, rng) -> list[tuple[Query, str]]:
    dims = {d.name: d for d in schema.dimensions}
    out = []
    for _ in range(n):
        hot = rng.random() < HOT_FRACTION
        names, resolutions = (
            HOT_SHAPES[int(rng.integers(len(HOT_SHAPES)))] if hot else COLD_SHAPE
        )
        conditions = []
        for name, res in zip(names, resolutions):
            card = dims[name].cardinality(res)
            lo = int(rng.integers(0, card))
            hi = int(rng.integers(lo + 1, card + 1))
            conditions.append(Condition(name, res, lo=lo, hi=hi))
        out.append(
            (Query(conditions=tuple(conditions), measures=(measure,)),
             "hot" if hot else "cold")
        )
    return out


def mix_queries(world: World, classes, n: int) -> list[tuple[Query, str]]:
    """`n` (query, class) pairs of a weighted mix over this world, from its seed."""
    spec = WorkloadSpec(
        world.schema.dimensions,
        list(classes),
        measures=(world.workload.measure,),
        text_levels=list(world.schema.text_levels),
        vocabularies=world.dataset.vocabularies,
        seed=world.seed,
    )
    return [(tq.query, tq.query_class) for tq in spec.generate(n)]


def query_list(world: World, n: int = LIST_LENGTH) -> list[Entry]:
    """The `n` operations every client of this workload walks, from the seed.

    Each query is rendered to the door's query language and parsed back;
    a rendering that loses a condition stops the run before any load.
    """
    workload = world.workload
    if workload.mix:
        pairs = mix_queries(world, workload.mix, n)
    else:
        pairs = hot_cold_queries(
            world.schema, workload.measure, n, np.random.default_rng(world.seed)
        )
    return [
        Entry(query, cls, render.checked(query, world.schema.hierarchies))
        for query, cls in pairs
    ]


def ingest_batches(world: World, count: int, rows: int) -> list[FactTable]:
    """`count` batches of `rows` new fact rows for the writer, from the seed."""
    fresh = generate_dataset(world.schema, num_rows=rows * count, seed=world.seed + 1)
    names = [*fresh.table.schema.column_names]
    return [
        FactTable(
            world.schema,
            {c: fresh.table.column(c)[i * rows:(i + 1) * rows] for c in names},
        )
        for i in range(count)
    ]


#: ids handed to resubmitted queries: the books key on query_id, so a list
#: walked more than once must not reuse one (kept clear of the model's counter)
_fresh_ids = itertools.count(50_000_000)


def fresh(query: Query) -> Query:
    return replace(query, query_id=next(_fresh_ids))
