"""The real work behind each lifecycle stage, written once for both planes.

Figure 10's runtime pipeline maps onto three execution paths, and both
drivers of the :class:`~repro.sim.lifecycle.QueryLifecycle` — the
simulated :meth:`~repro.sim.system.HybridSystem.run` and the wall-clock
:class:`~repro.serve.engine.ServeEngine` — realise a stage's *work*
through the same :class:`QueryExecutor`, running the *actual*
laptop-scale implementations of each — not the analytic performance
models the scheduler estimates with:

* **CPU OLAP partition** — :class:`~repro.olap.parallel.
  ParallelAggregator` reductions over the boxes of the materialised
  :class:`~repro.olap.cube.OLAPCube` levels the pyramid's one CPU
  answer reads (:meth:`~repro.olap.pyramid.CubePyramid.aggregate`, the
  paper's OpenMP cube processing);
* **GPU partitions** — :meth:`~repro.gpu.device.SimulatedGPU.
  execute_query`, the per-SM sharded scan/reduce kernel substitutes of
  :mod:`repro.gpu.kernels`;
* **translation partition** — :class:`~repro.text.translator.
  TranslationService` dictionary lookups turning text literals into
  integer codes before GPU dispatch.

:class:`QueryExecutor` is the seam: the drivers are executor-agnostic,
so analytic (paper-scale) simulations and the deterministic concurrency
tests plug in :class:`NullExecutor` (instant no-op work) and exercise
scheduling/queueing/draining without paying for real aggregation.  The
module lives beside :mod:`repro.sim.lifecycle` because both planes
drive it; :mod:`repro.serve` re-exports the three names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.partitions import PartitionQueue, QueueKind
from repro.errors import ServeError, TranslationError
from repro.olap.parallel import ParallelAggregator
from repro.query.model import Query

if TYPE_CHECKING:
    from repro.sim.system import SystemConfig

__all__ = ["QueryExecutor", "MaterialisedExecutor", "NullExecutor"]


@runtime_checkable
class QueryExecutor(Protocol):
    """Executes the per-partition work of one scheduled query."""

    def translate(self, query: Query) -> Query:  # pragma: no cover - protocol
        """Resolve text parameters to integer codes (translation stage)."""
        ...

    def execute(
        self, target: PartitionQueue, query: Query
    ) -> float | None:  # pragma: no cover - protocol
        """Run the processing stage on ``target``; returns the answer."""
        ...


class MaterialisedExecutor:
    """Real execution against a materialised :class:`SystemConfig`.

    Requires the config's device to hold a real
    :class:`~repro.relational.table.FactTable` and every pyramid level
    to be materialised (:meth:`missing`, the one statement of that
    precondition: :class:`~repro.sim.system.HybridSystem` asks it which
    executor to build).

    ``cpu_threads`` sizes the CPU partition's
    :class:`~repro.olap.parallel.ParallelAggregator` (the paper's
    OpenMP thread count); it is independent of the scheduler's
    :math:`P_{CPU}` estimate model.
    """

    @staticmethod
    def missing(config: "SystemConfig") -> str | None:
        """What ``config`` lacks to execute real queries (None: nothing)."""
        if config.device.table is None:
            return (
                "a device with a loaded fact table; analytic configs cannot "
                "execute real queries"
            )
        if not all(level.materialised for level in config.pyramid.levels):
            return "a fully materialised pyramid"
        return None

    def __init__(self, config: "SystemConfig", cpu_threads: int = 4):
        missing = self.missing(config)
        if missing is not None:
            raise ServeError(f"MaterialisedExecutor needs {missing}")
        self._config = config
        self._aggregator = ParallelAggregator(num_threads=cpu_threads)

    def translate(self, query: Query) -> Query:
        if not query.needs_translation:
            return query
        service = self._config.translation_service
        if service is None:
            raise TranslationError(
                "run received text queries but no translation_service is configured"
            )
        return service.translate(query).query

    def execute(self, target: PartitionQueue, query: Query) -> float | None:
        if target.kind is QueueKind.CPU:
            # CPU-path text resolution happens inline (Figure 10 routes
            # only GPU-bound queries through the translation partition)
            resolved = self.translate(query)
            return self._config.pyramid.aggregate(resolved, self._aggregator.reduce_array)
        if target.kind is QueueKind.GPU:
            assert target.n_sm is not None
            if query.needs_translation:
                raise ServeError(
                    f"query {query.query_id} reached GPU partition "
                    f"{target.name} untranslated"
                )
            return self._config.device.execute_query(query, target.n_sm).value
        raise ServeError(f"cannot execute on queue kind {target.kind}")


class NullExecutor:
    """Instant no-op execution for deterministic engine tests.

    Translation returns the query unchanged (tests drive scheduling
    with stub estimates, so no real codes are needed) and processing
    returns no answer.  All queueing, dispatch, bookkeeping and trace
    behaviour is exercised; only the work itself is elided.
    """

    def translate(self, query: Query) -> Query:
        return query

    def execute(self, target: PartitionQueue, query: Query) -> float | None:
        return None
