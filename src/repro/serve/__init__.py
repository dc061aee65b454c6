"""Wall-clock serving plane — the live counterpart of :mod:`repro.sim`.

The simulated-time plane replays a :class:`~repro.query.workload.
QueryStream` against *booked* service-time estimates; this package runs
the same Figure-10 pipeline against *real* clocks and *real* work:

- :mod:`repro.serve.clock` — the :class:`Clock` abstraction
  (:class:`RealClock` in production, :class:`FakeClock` in tests, so
  every timestamp the engine takes is injectable and deterministic);
- :mod:`repro.serve.pool` — per-partition worker pools: FIFO task
  queues drained by threads, with all bookkeeping transitions taken
  under one shared engine lock so the realised schedule is auditable;
- :mod:`repro.sim.executors` — the work behind each partition, shared
  with the simulated plane and re-exported here: the CPU OLAP partition
  runs :class:`~repro.olap.parallel.ParallelAggregator` reductions over
  materialised cubes, the GPU partitions run the :mod:`repro.gpu`
  kernel substitutes, and the translation partition runs
  :class:`~repro.text.translator.TranslationService` lookups;
- :mod:`repro.serve.engine` — :class:`ServeEngine`, wiring submission
  -> scheduler -> pools -> feedback with bounded admission
  (backpressure), graceful drain, and :class:`~repro.sim.obs.
  TraceCollector` integration;
- :mod:`repro.serve.loadgen` — the open-loop (rate-paced) load
  generator driving an engine from a workload spec.

The decision logic and the work are *shared*, not forked: the engine
instantiates the exact scheduler classes of :mod:`repro.core` over the
same :class:`~repro.core.partitions.PartitionQueue` books and runs the
same executor the simulation does, so a serve-mode
dispatch and a simulated-time dispatch given identical estimates pick
the same ``(queue, branch)`` (property-tested in
``tests/properties/test_prop_serve.py``), and the resulting
:class:`~repro.sim.metrics.SystemReport` passes the same
:mod:`repro.sim.validate` invariant families.
"""

from repro.serve.clock import Clock, FakeClock, RealClock
from repro.serve.engine import ServeEngine, SubmitOutcome, Ticket
from repro.serve.loadgen import LoadReport, OpenLoopGenerator
from repro.serve.pool import ServeTask, WorkerPool
from repro.sim.executors import MaterialisedExecutor, NullExecutor, QueryExecutor

__all__ = [
    "Clock",
    "FakeClock",
    "RealClock",
    "ServeEngine",
    "SubmitOutcome",
    "Ticket",
    "QueryExecutor",
    "MaterialisedExecutor",
    "NullExecutor",
    "LoadReport",
    "OpenLoopGenerator",
    "ServeTask",
    "WorkerPool",
]
