"""The paper's primary contribution: performance models + scheduling.

- :mod:`repro.core.perfmodel` — the estimation-function families of
  Section III-B/D/E/F (piecewise power/linear CPU model, linear GPU
  model, linear dictionary model) with the paper's published
  coefficients as presets.
- :mod:`repro.core.calibration` — least-squares fitting of those
  families from measurements (how the paper derived Figures 4, 5, 8, 9).
- :mod:`repro.core.partitions` — partition queues with the
  :math:`T_Q` bookkeeping of Section III-G.
- :mod:`repro.core.scheduler` — the Figure-10 scheduling algorithm.
- :mod:`repro.core.feedback` — measured-vs-estimated runtime feedback.
- :mod:`repro.core.baselines` — MET/MCT/round-robin/CPU-only/GPU-only
  baseline schedulers for the ablation benchmarks.
"""

from repro.core.perfmodel import (
    PowerLawModel,
    LinearModel,
    PiecewiseModel,
    CPUPerfModel,
    DictPerfModel,
    XEON_X5667_4T,
    XEON_X5667_8T,
    XEON_X5667_1T_LEGACY,
    PAPER_DICT_MODEL,
)
from repro.core.partitions import PartitionQueue, QueueKind
from repro.core.scheduler import (
    HybridScheduler,
    ScheduleDecision,
    QueryEstimates,
    PerformanceEstimator,
)
from repro.core.feedback import FeedbackController
from repro.core.admission import AdmissionControlScheduler
from repro.core.baselines import (
    METScheduler,
    MCTScheduler,
    RoundRobinScheduler,
    CPUOnlyScheduler,
    GPUOnlyScheduler,
    FastestFirstScheduler,
)

#: scheduler name -> class, for every surface that picks one by name
#: (``--scheduler`` of ``repro serve`` / ``repro fleet``,
#: :class:`repro.fleet.worker.ShardSpec`)
SCHEDULERS = {
    "hybrid": HybridScheduler,
    "gpu-only": GPUOnlyScheduler,
    "fastest-first": FastestFirstScheduler,
    "admission": AdmissionControlScheduler,
}

__all__ = [
    "PowerLawModel",
    "LinearModel",
    "PiecewiseModel",
    "CPUPerfModel",
    "DictPerfModel",
    "XEON_X5667_4T",
    "XEON_X5667_8T",
    "XEON_X5667_1T_LEGACY",
    "PAPER_DICT_MODEL",
    "PartitionQueue",
    "QueueKind",
    "HybridScheduler",
    "ScheduleDecision",
    "QueryEstimates",
    "PerformanceEstimator",
    "FeedbackController",
    "AdmissionControlScheduler",
    "METScheduler",
    "MCTScheduler",
    "RoundRobinScheduler",
    "CPUOnlyScheduler",
    "GPUOnlyScheduler",
    "FastestFirstScheduler",
    "SCHEDULERS",
]
