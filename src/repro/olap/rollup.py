"""Materialized-rollup answer cache: routing queries around Figure 10.

The paper routes *every* query through admission, estimation, and
dispatch (Figure 10).  At serving scale, most traffic repeats a small
set of query shapes, and for those shapes the answer is a lookup in a
pre-aggregated cuboid — microseconds, not the milliseconds of a
scheduled sub-cube scan.  This module adds that tier in front of both
planes (the simulated :class:`~repro.sim.system.HybridSystem` and the
wall-clock :class:`~repro.serve.engine.ServeEngine`):

* :class:`RollupCatalog` holds materialized cuboids of the group-by
  lattice, keyed by ``frozenset(dims)``.  Each cuboid is a dense
  :class:`~repro.olap.cube.OLAPCube` over a *subset* of the schema's
  dimensions, folded by :func:`~repro.olap.cube.fold_rows` with all
  four components (sum/count/min/max) so any query aggregate is
  answerable.
* :meth:`RollupCatalog.covers` walks the lattice's dimension subsets
  for the smallest ancestor cuboid whose dimensions
  ⊇ the query's condition/group-by dimensions, whose per-dimension
  resolution is at least as fine as the query needs, and whose iceberg
  threshold pruned nothing (a pruned cuboid under-counts, so it never
  serves answers).
* :meth:`RollupCatalog.answer` answers a covered query through
  :func:`~repro.olap.subcube.answer_with_cube` — the *same* aggregation
  code path the CPU pyramid uses, so hit answers match scheduler-path
  answers exactly (property-tested in
  ``tests/properties/test_prop_rollup.py``).
* :class:`AdmissionPolicy` observes the shapes of cache misses and
  plans which cuboids to materialize: frequency × cost-saved greedy
  under a byte budget.
* :class:`RollupRouter` is the façade the engines integrate: one
  ``lookup()`` call per submission under the engine lock (hit → a
  :class:`RollupHit` around a zero-cost :class:`~repro.sim.metrics.
  QueryRecord` on the :data:`ROLLUP_TARGET` pseudo-partition; miss →
  ``None`` and the query flows unchanged through Figure 10), plus
  ``maintain()`` for synchronous materialization of what the policy
  recommends.

Cache coherence: the catalog is exact with respect to the fact rows it
has seen.  :meth:`RollupCatalog.ingest` merges a batch into a new
version of every installed cuboid (:meth:`~repro.olap.cube.OLAPCube.
with_rows`: one copy plus a scatter of the batch's rows, as
sum/count/min/max are all mergeable) and swaps the new versions in with
the authoritative row count; iceberg cuboids (``min_support > 1``) are
dropped instead, because pruning is not incrementally maintainable.  A published cuboid is never mutated, so a
hit aggregates the entry :meth:`~RollupCatalog.covers` returned with no
copy and no lock.  A cuboid whose ``built_rows`` disagrees with the
catalog's row count is *stale* and :meth:`~RollupCatalog.covers` skips
it.  Lock ordering is engine lock → catalog lock, never the reverse
(see ``docs/architecture.md``).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import ResolutionError, RollupError
from repro.olap.cube import EMPTY_CELL, AggregateOp, OLAPCube, fold_rows
from repro.olap.subcube import answer_with_cube
from repro.query.model import Query
from repro.sim.metrics import QueryRecord

if TYPE_CHECKING:  # avoid a hard olap -> relational dependency
    from repro.relational.table import FactTable

__all__ = [
    "ROLLUP_TARGET",
    "CuboidSpec",
    "MaterialisedCuboid",
    "RollupCatalog",
    "AdmissionPolicy",
    "RollupHit",
    "RollupRouter",
]

#: Pseudo-partition name stamped on cache-hit records.  Deliberately not
#: a real :class:`~repro.core.partitions.PartitionQueue` name: hits live
#: outside the scheduler's books, and the ``rollup`` validation family
#: asserts they never leak into them.
ROLLUP_TARGET = "Q_ROLLUP"

#: bytes per cell of a materialized cuboid (sum/count/min/max float64)
_CELL_NBYTES = 32


def _finest_needed(query: Query) -> dict[str, int]:
    """dimension -> the finest resolution ``query`` needs on it.

    Eq. 2 per dimension, over conditions and group-by levels alike:
    grouping by a level needs a cuboid at least that fine, exactly like
    filtering at it.
    """
    needed: dict[str, int] = {}
    for cond in query.conditions:
        needed[cond.dimension] = max(
            needed.get(cond.dimension, 0), cond.resolution
        )
    for dim, res in query.group_by:
        needed[dim] = max(needed.get(dim, 0), res)
    return needed


@dataclass(frozen=True)
class CuboidSpec:
    """What to materialize: a cuboid of the lattice at fixed resolutions.

    Parameters
    ----------
    dims:
        Grouped dimension names.  Normalised to sorted order at
        construction (with ``resolutions`` permuted alongside), so two
        specs over the same dimensions compare equal regardless of the
        order the caller wrote them in.
    resolutions:
        Resolution index per dimension, aligned with ``dims``.
    min_support:
        Iceberg threshold (Beyer & Ramakrishnan): a cell survives iff at
        least this many fact rows fall into it.  1 keeps every cell.
    """

    dims: tuple[str, ...]
    resolutions: tuple[int, ...]
    min_support: int = 1

    def __post_init__(self) -> None:
        dims = tuple(self.dims)
        resolutions = tuple(self.resolutions)
        if not dims:
            raise RollupError("a cuboid spec needs at least one dimension")
        if len(dims) != len(set(dims)):
            raise RollupError(f"duplicate dimensions in cuboid spec: {dims}")
        if len(resolutions) != len(dims):
            raise RollupError(
                f"{len(dims)} dims but {len(resolutions)} resolutions"
            )
        if self.min_support < 1:
            raise RollupError(f"min_support must be >= 1, got {self.min_support}")
        order = sorted(range(len(dims)), key=lambda i: dims[i])
        object.__setattr__(self, "dims", tuple(dims[i] for i in order))
        object.__setattr__(
            self, "resolutions", tuple(resolutions[i] for i in order)
        )

    @property
    def key(self) -> frozenset[str]:
        """The lattice node this spec materialises."""
        return frozenset(self.dims)

    def resolution_of(self, dimension: str) -> int:
        try:
            return self.resolutions[self.dims.index(dimension)]
        except ValueError:
            raise RollupError(
                f"cuboid spec {self.dims} has no dimension {dimension!r}"
            ) from None


@dataclass(frozen=True)
class MaterialisedCuboid:
    """One installed catalog entry: the spec, its cube, and provenance.

    Immutable once installed: :meth:`RollupCatalog.ingest` publishes a
    new entry instead of folding into this one's cube.

    ``built_rows`` is the total fact-row count the cube aggregates; the
    catalog compares it with its authoritative row count to detect stale
    entries.  ``pruned_cells`` counts cells zeroed by the iceberg
    threshold — :meth:`RollupCatalog.covers` refuses any cuboid with
    ``pruned_cells > 0``, since a pruned cell would silently under-count
    a covering answer.
    """

    spec: CuboidSpec
    cube: OLAPCube
    built_rows: int
    pruned_cells: int = 0

    @property
    def nbytes(self) -> int:
        return self.cube.nbytes

    @property
    def num_cells(self) -> int:
        return self.cube.num_cells


class RollupCatalog:
    """Materialized cuboids keyed by ``frozenset(dims)``, with coverage.

    Parameters
    ----------
    table:
        The base fact table cuboids aggregate.  Batches added later via
        :meth:`ingest` are folded into installed cuboids and remembered,
        so later :meth:`materialise` calls stay consistent.
    measure:
        The measure every cuboid aggregates.  ``count`` queries are
        answerable regardless of measure; other aggregates must match.

    All catalog state is guarded by one internal re-entrant lock; the
    engines call in while holding the engine lock (ordering: engine →
    catalog, never the reverse).
    """

    def __init__(self, table: "FactTable", measure: str):
        self._table = table
        self.measure = measure
        self._schema = table.schema
        self._dims = {d.name: d for d in self._schema.dimensions}
        table.column(measure)  # fail fast on unknown measures
        #: lattice walk order: fewest dimensions first, then sorted names
        names = sorted(self._dims)
        order = (
            frozenset(subset)
            for k in range(len(names) + 1)
            for subset in itertools.combinations(names, k)
        )
        self._rank = {key: i for i, key in enumerate(order)}
        self._lock = threading.RLock()
        self._cuboids: dict[frozenset[str], MaterialisedCuboid] = {}
        #: installed keys in covers() order: fewest cells, ties by rank
        self._walk: tuple[frozenset[str], ...] = ()
        self._batches: list["FactTable"] = []
        self._row_count = len(table)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._cuboids)

    def __contains__(self, dims: Iterable[str]) -> bool:
        with self._lock:
            return frozenset(dims) in self._cuboids

    def get(self, dims: Iterable[str]) -> MaterialisedCuboid | None:
        with self._lock:
            return self._cuboids.get(frozenset(dims))

    def cuboids(self) -> tuple[MaterialisedCuboid, ...]:
        """Installed cuboids, smallest first: fewest cells, ties in lattice
        walk order (fewest dimensions, then sorted names).  :meth:`covers`
        answers from the first of these that covers a query."""
        with self._lock:
            return tuple(self._cuboids[key] for key in self._walk)

    def _rewalk(self) -> None:
        """Re-sort the installed keys after an install or a removal (the
        caller holds the lock)."""
        self._walk = tuple(
            sorted(
                self._cuboids,
                key=lambda key: (self._cuboids[key].num_cells, self._rank[key]),
            )
        )

    @property
    def total_nbytes(self) -> int:
        with self._lock:
            return sum(c.nbytes for c in self._cuboids.values())

    @property
    def row_count(self) -> int:
        """Authoritative fact-row count a fresh cuboid must aggregate."""
        with self._lock:
            return self._row_count

    def estimated_nbytes(self, spec: CuboidSpec) -> int:
        """Bytes a spec would occupy once materialised (dense, 4 components)."""
        cells = 1
        for name, res in zip(spec.dims, spec.resolutions):
            dim = self._dims.get(name)
            if dim is None:
                raise RollupError(f"schema has no dimension {name!r}")
            cells *= dim.cardinality(dim.check_resolution(res))
        return cells * _CELL_NBYTES

    # -- materialization ---------------------------------------------------

    def materialise(self, spec: CuboidSpec) -> MaterialisedCuboid:
        """Build (but do not install) the cuboid a spec describes.

        Pure computation with no catalog lock held — safe to run on a
        background thread.  The build aggregates the base table plus
        every batch ingested so far, then applies the iceberg threshold
        to the merged counts.
        """
        for name in spec.dims:
            if name not in self._dims:
                raise RollupError(f"schema has no dimension {name!r}")
        dims = [self._dims[name] for name in spec.dims]
        with self._lock:
            table, *batches = [self._table, *self._batches]
        cube = OLAPCube(
            dims,
            spec.resolutions,
            fold_rows(table, self.measure, dims, spec.resolutions, with_minmax=True),
            measure=self.measure,
        )
        for batch in batches:
            cube.ingest(batch)
        pruned = 0
        if spec.min_support > 1:
            counts = cube.component("count")
            kill = (counts > 0) & (counts < spec.min_support)
            pruned = int(kill.sum())
            for name, empty in EMPTY_CELL.items():
                cube.component(name)[kill] = empty
        rows = len(table) + sum(len(batch) for batch in batches)
        return MaterialisedCuboid(
            spec=spec, cube=cube, built_rows=rows, pruned_cells=pruned
        )

    def install(self, cuboid: MaterialisedCuboid) -> MaterialisedCuboid:
        """Install a built cuboid (last writer wins per lattice node)."""
        with self._lock:
            self._cuboids[cuboid.spec.key] = cuboid
            self._rewalk()
        return cuboid

    def materialise_and_install(self, spec: CuboidSpec) -> MaterialisedCuboid:
        return self.install(self.materialise(spec))

    # -- coherence ---------------------------------------------------------

    def drop(self, dims: Iterable[str]) -> bool:
        """Remove one cuboid; True if it was installed."""
        with self._lock:
            dropped = self._cuboids.pop(frozenset(dims), None) is not None
            self._rewalk()
            return dropped

    def invalidate(self) -> int:
        """Drop every cuboid (full cache flush); returns the count dropped."""
        with self._lock:
            n = len(self._cuboids)
            self._cuboids.clear()
            self._rewalk()
            return n

    def ingest(self, batch: "FactTable") -> int:
        """Fold a batch of new fact rows into the catalog, exactly.

        Sum/count/min/max are mergeable, so every plain cuboid's copy
        absorbs the batch and stays exact; the copies replace the
        published entries, which readers may still hold, under the
        catalog lock.  Iceberg cuboids are dropped: a cell pruned at
        build time may cross the threshold with the new rows, and the
        pruned rows are gone.  The batch is remembered so later
        :meth:`materialise` calls aggregate it too.  Returns the rows
        ingested.
        """
        with self._lock:
            self._batches.append(batch)
            self._row_count += len(batch)
            for key, entry in list(self._cuboids.items()):
                if entry.spec.min_support > 1:
                    del self._cuboids[key]
                    continue
                self._cuboids[key] = replace(
                    entry,
                    cube=entry.cube.with_rows(batch),
                    built_rows=entry.built_rows + len(batch),
                )
            self._rewalk()
        return len(batch)

    def mark_stale(self, new_row_count: int) -> None:
        """Declare the fact data has grown outside the catalog's view.

        Every installed cuboid whose ``built_rows`` no longer matches
        becomes stale and stops covering queries until rebuilt — the
        fail-safe coherence path when rows were added without
        :meth:`ingest`.
        """
        with self._lock:
            if new_row_count < self._row_count:
                raise RollupError(
                    f"row count cannot shrink ({self._row_count} -> "
                    f"{new_row_count}); rebuild the catalog instead"
                )
            self._row_count = new_row_count

    # -- coverage ----------------------------------------------------------

    def _needed_resolutions(self, query: Query) -> dict[str, int] | None:
        """dimension -> minimum resolution the query needs, or None.

        ``None`` means "not answerable from any cuboid": untranslated
        text conditions (the CPU rollup path has no dictionary), a
        measure mismatch, or a dimension outside the schema.
        """
        if query.needs_translation:
            return None
        if not query.answerable_from(self.measure):
            return None
        needed = _finest_needed(query)
        return needed if needed.keys() <= self._dims.keys() else None

    def _entry_covers(
        self, entry: MaterialisedCuboid, needed: Mapping[str, int]
    ) -> bool:
        """Spec-level coverage of one installed cuboid, exactly:

        dims ⊇ needed, per-dimension resolution fine enough, no iceberg
        pruning, and not stale.  The brute-force check the property
        tests replay against :meth:`covers`.
        """
        if entry.pruned_cells:
            return False
        if entry.built_rows != self._row_count:
            return False
        if not set(needed) <= entry.spec.key:
            return False
        return all(
            entry.spec.resolution_of(dim) >= res for dim, res in needed.items()
        )

    def covers(self, query: Query) -> MaterialisedCuboid | None:
        """The cheapest installed cuboid that can answer ``query``.

        Walks the installed cuboids smallest first (:meth:`cuboids`'
        order: fewest cells, ties in lattice walk order) and returns the
        first whose dimensions ⊇ the query's condition/group-by
        dimensions at sufficient resolution, skipping iceberg-pruned and
        stale entries.  Returns ``None`` on a miss — the query then flows
        through Figure 10 unchanged.
        """
        needed = self._needed_resolutions(query)
        if needed is None:
            return None
        op = AggregateOp(query.agg)
        with self._lock:
            for key in self._walk:
                entry = self._cuboids[key]
                if not self._entry_covers(entry, needed):
                    continue
                if any(
                    comp not in entry.cube.components for comp in op.components
                ):
                    continue
                return entry
        return None

    def would_cover(self, needed: Mapping[str, int]) -> bool:
        """True when some installed cuboid covers a dim→resolution shape."""
        with self._lock:
            return any(
                self._entry_covers(entry, needed)
                for entry in self._cuboids.values()
            )

    def answer(self, query: Query, cuboid: MaterialisedCuboid | None = None) -> float:
        """The query's aggregate from the cache; raises on a miss.

        The answer path is :func:`~repro.olap.subcube.answer_with_cube`
        on the cuboid's dense :class:`~repro.olap.cube.OLAPCube` —
        byte-for-byte the aggregation code the CPU pyramid path runs,
        which is what makes hit answers exactly equal to scheduler-path
        answers.
        """
        if cuboid is None:
            cuboid = self.covers(query)
        if cuboid is None:
            raise RollupError(
                f"no installed cuboid covers query {query.query_id} "
                f"(conditions on {[c.dimension for c in query.conditions]})"
            )
        return answer_with_cube(cuboid.cube, query)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"RollupCatalog({self.measure!r}, {len(self._cuboids)} cuboids, "
                f"{self.total_nbytes / 2**20:.3f} MB, rows={self._row_count})"
            )


@dataclass
class _ShapeStats:
    """Miss statistics for one observed query shape."""

    spec: CuboidSpec
    count: int = 0
    total_cost: float = 0.0

    @property
    def mean_cost(self) -> float:
        return self.total_cost / self.count if self.count else 0.0


@dataclass
class AdmissionPolicy:
    """Decide which cuboids deserve materialization: greedy under budget.

    The router reports every cache miss via :meth:`observe` (optionally
    with the scheduler's estimated service cost for that query);
    :meth:`plan` then ranks the observed shapes by
    ``frequency × cost-saved / bytes`` and picks greedily until the byte
    budget (catalog bytes included) is exhausted.  ``min_frequency``
    keeps one-off shapes from ever being materialised.
    """

    byte_budget: int
    min_frequency: int = 2
    _shapes: dict[CuboidSpec, _ShapeStats] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @staticmethod
    def spec_for(query: Query) -> CuboidSpec | None:
        """The cuboid shape that would cover ``query``, or None.

        Text queries and fully unconstrained queries have no useful
        shape (the former need translation first; the latter are covered
        by *any* cuboid).
        """
        if query.needs_translation:
            return None
        needed = _finest_needed(query)
        if not needed:
            return None
        names = sorted(needed)
        return CuboidSpec(
            dims=tuple(names), resolutions=tuple(needed[n] for n in names)
        )

    def observe(self, query: Query, cost: float | None = None) -> None:
        """Record one cache miss (``cost`` = estimated seconds saved)."""
        spec = self.spec_for(query)
        if spec is None:
            return
        with self._lock:
            stats = self._shapes.get(spec)
            if stats is None:
                stats = self._shapes[spec] = _ShapeStats(spec=spec)
            stats.count += 1
            if cost is not None:
                stats.total_cost += cost

    def shapes(self) -> tuple[_ShapeStats, ...]:
        """Observed shapes, most frequent first (deterministic ties)."""
        with self._lock:
            return tuple(
                sorted(
                    self._shapes.values(),
                    key=lambda s: (-s.count, s.spec.dims),
                )
            )

    def plan(
        self, catalog: RollupCatalog, limit: int | None = None
    ) -> list[CuboidSpec]:
        """Specs worth materialising now, best first, within budget."""
        with self._lock:
            candidates = [
                s for s in self._shapes.values() if s.count >= self.min_frequency
            ]

        def score(stats: _ShapeStats) -> float:
            try:
                bytes_ = catalog.estimated_nbytes(stats.spec)
            except RollupError:
                # shape references dimensions outside this catalog's
                # schema; rank it last, the pick loop skips it anyway
                return float("-inf")
            saved = stats.mean_cost if stats.total_cost > 0 else 1.0
            return stats.count * saved / max(bytes_, 1)

        ranked = sorted(candidates, key=lambda s: (-score(s), s.spec.dims))
        remaining = self.byte_budget - catalog.total_nbytes
        picked: list[CuboidSpec] = []
        for stats in ranked:
            if limit is not None and len(picked) >= limit:
                break
            needed = dict(zip(stats.spec.dims, stats.spec.resolutions))
            if catalog.would_cover(needed):
                continue
            try:
                cost = catalog.estimated_nbytes(stats.spec)
            except RollupError:
                continue  # shape references dimensions outside this schema
            if cost > remaining:
                continue
            picked.append(stats.spec)
            remaining -= cost
        return picked


@dataclass(frozen=True)
class RollupHit:
    """What one cache hit produced: the finished record, the cuboid that
    answered (``source``, its sorted dimensions comma-joined) and the
    real ``seconds`` the projection took — a wall-clock cost, separate
    from the driver's clock that stamps ``record``."""

    record: QueryRecord
    source: str
    seconds: float


class RollupRouter:
    """The cache tier façade both planes integrate.

    One :meth:`lookup` call per submission, made while the engine lock
    is held (catalog locking nests inside — see the lock-ordering rules
    in ``docs/architecture.md``).  A hit returns a :class:`RollupHit`
    around a finished, zero-cost :class:`~repro.sim.metrics.QueryRecord`
    on :data:`ROLLUP_TARGET`; a miss returns ``None``, feeds the
    :class:`AdmissionPolicy`, and the query proceeds through Figure 10
    untouched.  The router outlives any one run, so it keeps no per-run
    telemetry: a hit's cost is returned, and the run that asked
    publishes it on its own stage stream.
    """

    def __init__(self, catalog: RollupCatalog, policy: AdmissionPolicy | None = None):
        self.catalog = catalog
        self.policy = policy
        self.hits = 0
        self.misses = 0
        self.materialized = 0

    # -- the hot path ------------------------------------------------------

    def lookup(
        self,
        query: Query,
        query_class: str = "default",
        now: float = 0.0,
        deadline: float | None = None,
    ) -> RollupHit | None:
        """Try to answer one query from the cache.

        Returns a :class:`RollupHit` whose record is complete (``submit
        == finish == now``: the zero-cost semantics both planes share)
        or ``None`` on a miss.  A covered shape whose ranges the cuboid
        cannot answer is a miss too: the query takes the scheduler path,
        as it would on an engine without a cache.
        """
        cuboid = self.catalog.covers(query)
        if cuboid is not None:
            t0 = time.perf_counter()
            try:
                answer = self.catalog.answer(query, cuboid)
            except ResolutionError:
                cuboid = None
            elapsed = time.perf_counter() - t0
        if cuboid is None:
            self.misses += 1
            if self.policy is not None:
                self.policy.observe(query)
            return None
        self.hits += 1
        record = QueryRecord(
            query_id=query.query_id,
            query_class=query_class,
            target=ROLLUP_TARGET,
            submit_time=now,
            finish_time=now,
            deadline=deadline if deadline is not None else now,
            estimated_time=0.0,
            measured_time=0.0,
            translated=False,
            answer=answer,
        )
        return RollupHit(record, ",".join(sorted(cuboid.spec.dims)), elapsed)

    def serve(
        self,
        query: Query,
        query_class: str = "default",
        now: float = 0.0,
        deadline: float | None = None,
    ) -> QueryRecord | None:
        """:meth:`lookup`'s record, or ``None`` on a miss."""
        hit = self.lookup(query, query_class, now, deadline)
        return None if hit is None else hit.record

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- maintenance -------------------------------------------------------

    def maintain(self, limit: int | None = None) -> int:
        """Materialize what the policy recommends; returns the spec count.

        The builds run synchronously on the caller's thread, never on
        one of the engine's partition pools, whose histories are
        audited against the scheduler books.
        """
        if self.policy is None:
            raise RollupError("router has no AdmissionPolicy to plan with")
        specs = self.policy.plan(self.catalog, limit=limit)
        for spec in specs:
            self.catalog.materialise_and_install(spec)
            self.materialized += 1
        return len(specs)
