"""Simulated GPU substrate.

The paper runs on an NVIDIA Tesla C2070 (Fermi, 14 streaming
multiprocessors, concurrent kernel execution).  No GPU is available in
this environment, so this package provides a *simulated device* (see
DESIGN.md §2): the query kernels compute real answers with vectorised
NumPy over per-SM row shards (:mod:`repro.gpu.kernels`), while service
times come from a timing model driven by the same quantities as the
paper's measured performance functions — the scanned-column fraction
:math:`C/C_{TOTAL}` and the partition's SM count (eq. 13-15,
:mod:`repro.gpu.timing`).

- :mod:`repro.gpu.device` — the device: memory residency, SM inventory,
  query execution.
- :mod:`repro.gpu.partitioning` — SM partition schemes (the paper's
  2x1 + 2x2 + 2x4 split of the C2070, plus ablation alternatives).
"""

from repro.gpu.timing import (
    GPUTimingModel,
    LinearColumnTiming,
    BandwidthTiming,
    TESLA_C2070_TIMING,
)
from repro.gpu.device import SimulatedGPU, TableDescriptor, KernelExecution
from repro.gpu.partitioning import (
    GPUPartition,
    PartitionScheme,
    paper_partition_scheme,
    monolithic_scheme,
)

__all__ = [
    "GPUTimingModel",
    "LinearColumnTiming",
    "BandwidthTiming",
    "TESLA_C2070_TIMING",
    "SimulatedGPU",
    "TableDescriptor",
    "KernelExecution",
    "GPUPartition",
    "PartitionScheme",
    "paper_partition_scheme",
    "monolithic_scheme",
]
