"""The simulated GPU device.

:class:`SimulatedGPU` models the accelerator the paper evaluates on — a
Tesla C2070-class device with 14 SMs and 6 GB of global memory — at the
level the scheduling algorithm observes it:

* a fact table resident in global memory (loading checks capacity);
* query execution on a subset of SMs (a partition), returning both the
  real answer (via :mod:`repro.gpu.kernels`) and the simulated service
  time (via the timing model);
* an *analytic* residency mode (:class:`TableDescriptor`) for
  paper-scale runs where a ~4 GB table cannot be materialised: execution
  returns timing only, exactly what the discrete-event evaluation needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeviceError, TranslationError
from repro.gpu.kernels import KernelResult, run_query_kernel
from repro.gpu.timing import BandwidthTiming, GPUTimingModel
from repro.query.model import Query, QueryDecomposition, decompose
from repro.relational.schema import TableSchema
from repro.relational.table import FactTable
from repro.units import GB, fmt_bytes

__all__ = ["TableDescriptor", "KernelExecution", "SimulatedGPU"]


@dataclass(frozen=True)
class TableDescriptor:
    """Shape-only stand-in for a fact table too large to materialise."""

    schema: TableSchema
    num_rows: int

    def __post_init__(self) -> None:
        if self.num_rows < 0:
            raise DeviceError("num_rows must be >= 0")

    @property
    def nbytes(self) -> int:
        return self.schema.table_nbytes(self.num_rows)

    @property
    def total_columns(self) -> int:
        return self.schema.total_columns


@dataclass(frozen=True)
class KernelExecution:
    """Outcome of one device execution: timing always, answer when real."""

    simulated_time: float
    n_sm: int
    column_fraction: float
    kernel: KernelResult | None = None

    @property
    def value(self) -> float:
        if self.kernel is None:
            raise DeviceError("analytic execution carries no answer")
        return self.kernel.result.value()


class SimulatedGPU:
    """A Fermi-class device as seen by the scheduler.

    Parameters
    ----------
    num_sms:
        Streaming multiprocessors available for partitioning (the C2070
        exposes 14 active SMs).
    global_memory_bytes:
        Device memory capacity; table loading enforces it.
    timing:
        The :class:`GPUTimingModel`; defaults to a bandwidth-derived
        model sized to the resident table at load time.
    name:
        Device label for reports.
    """

    def __init__(
        self,
        num_sms: int = 14,
        global_memory_bytes: float = 6 * GB,
        timing: GPUTimingModel | None = None,
        name: str = "SimulatedTeslaC2070",
    ):
        if num_sms < 1:
            raise DeviceError(f"num_sms must be >= 1, got {num_sms}")
        if global_memory_bytes <= 0:
            raise DeviceError("global_memory_bytes must be positive")
        self.num_sms = num_sms
        self.global_memory_bytes = float(global_memory_bytes)
        self.name = name
        self._timing = timing
        self._table: FactTable | None = None
        self._descriptor: TableDescriptor | None = None

    # -- residency ------------------------------------------------------------

    def load_table(self, table: FactTable | TableDescriptor) -> None:
        """Make a fact table resident in (simulated) global memory.

        Sizes the default bandwidth timing model to the table if no
        timing model was injected.
        """
        nbytes = table.nbytes
        if nbytes > self.global_memory_bytes:
            raise DeviceError(
                f"table of {fmt_bytes(nbytes)} exceeds device memory "
                f"{fmt_bytes(self.global_memory_bytes)}"
            )
        if isinstance(table, FactTable):
            self._table = table
            self._descriptor = TableDescriptor(table.schema, table.num_rows)
        else:
            self._table = None
            self._descriptor = table
        if self._timing is None:
            self._timing = BandwidthTiming(table_nbytes=max(1, nbytes))

    @property
    def table(self) -> FactTable | None:
        return self._table

    @property
    def descriptor(self) -> TableDescriptor:
        if self._descriptor is None:
            raise DeviceError("no table resident; call load_table first")
        return self._descriptor

    @property
    def timing(self) -> GPUTimingModel:
        if self._timing is None:
            raise DeviceError("no timing model; load a table or inject one")
        return self._timing

    @property
    def is_analytic(self) -> bool:
        """True when only a descriptor (no real data) is resident."""
        return self._table is None and self._descriptor is not None

    # -- estimation -------------------------------------------------------

    def estimate_time(self, decomposition: QueryDecomposition, n_sm: int) -> float:
        """:math:`T_{GPU}` (eq. 13) for a decomposed query on ``n_sm`` SMs."""
        self._check_sm(n_sm)
        frac = decomposition.column_fraction(self.descriptor.total_columns)
        return self.timing.query_time(frac, n_sm)

    def _check_sm(self, n_sm: int) -> None:
        if not 1 <= n_sm <= self.num_sms:
            raise DeviceError(
                f"partition of {n_sm} SMs impossible on a {self.num_sms}-SM device"
            )

    # -- execution ------------------------------------------------------------

    def _prepare(
        self, decomposition: QueryDecomposition, n_sm: int
    ) -> tuple[float, float]:
        """Checks every execution (scalar or grouped) starts with, then
        ``(column fraction, eq.-13 simulated seconds)``."""
        self._check_sm(n_sm)
        if decomposition.needs_translation:
            raise TranslationError(
                f"query {decomposition.query.query_id} reached the GPU with "
                f"{decomposition.num_text_conditions} untranslated text conditions"
            )
        frac = decomposition.column_fraction(self.descriptor.total_columns)
        return frac, self.timing.query_time(frac, n_sm)

    def execute(self, decomposition: QueryDecomposition, n_sm: int) -> KernelExecution:
        """Run a decomposed query on a partition of ``n_sm`` SMs.

        With a materialised table the real kernels run and the answer is
        returned alongside the simulated service time; in analytic mode
        only the time is produced.  Untranslated text predicates are
        rejected in both modes (the GPU cannot compare strings).
        """
        frac, simulated = self._prepare(decomposition, n_sm)
        kernel = None
        if self._table is not None:
            kernel = run_query_kernel(self._table, decomposition, n_sm)
        return KernelExecution(
            simulated_time=simulated, n_sm=n_sm, column_fraction=frac, kernel=kernel
        )

    def execute_query(self, query: Query, n_sm: int) -> KernelExecution:
        """Decompose and execute in one step (convenience for examples)."""
        decomposition = decompose(query, self.descriptor.schema.hierarchies)
        return self.execute(decomposition, n_sm)

    def execute_groupby(self, query: Query, n_sm: int):
        """Grouped execution: (GroupedResult | None, simulated seconds).

        Timing follows the same eq.-13 law — group columns count into
        :math:`C_{Q_D}` through the decomposition.  Analytic devices
        return timing only.
        """
        from repro.groupby import run_groupby_kernel

        if not query.group_by:
            raise DeviceError("query has no group_by; use execute_query")
        decomposition = decompose(query, self.descriptor.schema.hierarchies)
        _, simulated = self._prepare(decomposition, n_sm)
        result = None
        if self._table is not None:
            result = run_groupby_kernel(self._table, decomposition, n_sm)
        return result, simulated

    def __repr__(self) -> str:
        resident = (
            "empty"
            if self._descriptor is None
            else f"table {fmt_bytes(self.descriptor.nbytes)}"
            + (" (analytic)" if self.is_analytic else "")
        )
        return f"SimulatedGPU({self.name!r}, {self.num_sms} SMs, {resident})"
