"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate between subsystems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "QueryError",
    "DimensionError",
    "ResolutionError",
    "CubeError",
    "CubeNotAvailableError",
    "RollupError",
    "SchemaError",
    "DictionaryError",
    "UnknownTokenError",
    "TranslationError",
    "DeviceError",
    "PartitionError",
    "SchedulingError",
    "AdmissionRejected",
    "CalibrationError",
    "SimulationError",
    "InvariantViolation",
    "ServeError",
    "BackpressureError",
    "FleetError",
    "MetricsError",
    "WorkloadError",
    "ParseError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class QueryError(ReproError):
    """A query is malformed or inconsistent with the schema it targets."""


class DimensionError(QueryError):
    """A query or cube references an unknown dimension."""


class ResolutionError(QueryError):
    """A condition references a resolution level that does not exist."""


class CubeError(ReproError):
    """Errors in OLAP cube construction or aggregation."""


class CubeNotAvailableError(CubeError):
    """No pre-computed cube of sufficient resolution exists.

    The scheduling algorithm treats this as "the query must be answered by
    the GPU" (Section III-C of the paper: *"If the resolution R is too high
    and cube is not precalculated, the query must be answered by GPU"*).
    """


class RollupError(CubeError):
    """The materialized-rollup cache tier was misused.

    Raised by :mod:`repro.olap.rollup` for malformed cuboid specs,
    unknown dimensions or measures, executing a query no installed
    cuboid covers, and catalog-coherence misuse (shrinking row counts).
    """


class SchemaError(ReproError):
    """A relational schema is malformed or violated by the data."""


class DictionaryError(ReproError):
    """Errors in the text-to-integer dictionary subsystem."""


class UnknownTokenError(DictionaryError):
    """A string literal is not present in the column dictionary."""

    def __init__(self, column: str, token: str):
        super().__init__(f"token {token!r} not found in dictionary for column {column!r}")
        self.column = column
        self.token = token


class TranslationError(ReproError):
    """The query translator could not translate a query for the GPU."""


class DeviceError(ReproError):
    """Errors in the simulated GPU device."""


class PartitionError(ReproError):
    """A partition configuration is invalid (e.g. SM over-subscription)."""


class SchedulingError(ReproError):
    """The scheduler could not dispatch a query to any partition."""


class AdmissionRejected(ReproError):
    """A query was shed by admission control (extension to Figure 10).

    Raised by :class:`repro.core.admission.AdmissionControlScheduler`
    when no partition can come close enough to the deadline; the system
    reports the query as rejected instead of queueing it hopelessly.
    """

    def __init__(self, query_id: int, best_response: float, deadline: float):
        super().__init__(
            f"query {query_id} rejected: best response {best_response:.3f}s "
            f"exceeds deadline {deadline:.3f}s beyond the admission threshold"
        )
        self.query_id = query_id
        self.best_response = best_response
        self.deadline = deadline


class CalibrationError(ReproError):
    """Model calibration failed (insufficient or degenerate measurements)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class InvariantViolation(SimulationError):
    """A simulated run violated a scheduling/bookkeeping invariant.

    Raised by :meth:`repro.sim.validate.ValidationResult.raise_if_bad`
    (and so by every ``assert_*_valid``) when the realised schedule of a
    :class:`~repro.sim.metrics.SystemReport` contradicts the queues'
    :class:`~repro.core.partitions.Submission` records — dependency
    ordering, FIFO/capacity discipline, job conservation, or (for
    deterministic runs) estimate-vs-realised drift — or when a telemetry
    artifact of the run contradicts the report.
    """


class ServeError(ReproError):
    """The wall-clock serving engine reached an invalid state.

    Raised by :mod:`repro.serve` for lifecycle misuse (submitting to a
    stopped engine, draining past its timeout) and for queries whose
    live execution failed after being accepted.
    """


class BackpressureError(ServeError):
    """A bounded submission queue refused new work (backpressure).

    Raised by non-blocking submission when the serving engine's
    in-flight bound is reached, and by blocking submission when the
    bound is still reached after the caller's timeout.  Load generators
    either treat this as shed load or retry.
    """


class FleetError(ServeError):
    """The multi-process serving fleet reached an invalid state.

    Raised by :mod:`repro.fleet` for wire-protocol violations, worker
    processes that fail to come up (or die mid-run), and requests routed
    when no live shard remains.
    """


class MetricsError(ReproError):
    """The live metrics plane was misused or reached an invalid state.

    Raised by :mod:`repro.metrics` for malformed metric/label names,
    conflicting family re-registration, histogram bound mismatches, and
    exporter lifecycle misuse.
    """


class WorkloadError(ReproError):
    """A workload specification is invalid."""


class ParseError(QueryError):
    """The textual query language parser rejected its input."""
