"""Discrete-event evaluation plane.

Section IV: *"To test the efficiency of the proposed hybrid OLAP
solution ... we have developed a system model.  The setup of the model
is done based on characteristics extracted from performance
measurements."*  This package is that system model: a discrete-event
simulation whose service times come from the calibrated performance
models, letting the 32 GB-cube / 4 GB-table evaluation run on a laptop
while every scheduling decision is taken by the real
:class:`~repro.core.scheduler.HybridScheduler` against real queue state.

- :mod:`repro.sim.engine` — the event loop (clock + ordered event heap);
- :mod:`repro.sim.resources` — FIFO servers realising partition service;
- :mod:`repro.sim.metrics` — per-query records and the
  :class:`SystemReport` (queries/second, deadline hits, utilisation);
- :mod:`repro.sim.system` — :class:`HybridSystem`, wiring workload ->
  scheduler -> partitions -> feedback, in analytic (paper-scale) or
  materialised (real-answer) mode;
- :mod:`repro.sim.obs` — structured observability: lifecycle trace
  events and per-partition booked-vs-realised telemetry
  (:class:`TraceCollector`), zero-impact when unattached;
- :mod:`repro.sim.validate` — invariant checker, one audit per
  subject: :func:`audit` reconciles a run's realised schedule with the
  scheduler's :math:`T_Q` books and every telemetry artifact the run
  produced (trace, metrics, spans, adapt history) with those books;
  :func:`validate_fleet` does the same for a fleet's merged books and
  stitched spans.
"""

from repro.sim.engine import SimulationEngine
from repro.sim.resources import Server, Job
from repro.sim.metrics import QueryRecord, SystemReport
from repro.sim.obs import PartitionSample, TraceCollector, TraceEvent
from repro.sim.system import HybridSystem, SystemConfig
from repro.sim.validate import (
    SEEDABLE_VIOLATIONS,
    ValidationResult,
    Violation,
    assert_fleet_valid,
    assert_valid,
    audit,
    seed_violation,
    validate_fleet,
)

__all__ = [
    "SimulationEngine",
    "Server",
    "Job",
    "QueryRecord",
    "SystemReport",
    "HybridSystem",
    "SystemConfig",
    "PartitionSample",
    "TraceCollector",
    "TraceEvent",
    "SEEDABLE_VIOLATIONS",
    "ValidationResult",
    "Violation",
    "assert_fleet_valid",
    "assert_valid",
    "audit",
    "seed_violation",
    "validate_fleet",
]
