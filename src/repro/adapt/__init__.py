"""Online adaptation: model recalibration + capacity control.

The paper's scheduler trusts calibrated-once performance models and a
fixed capacity layout.  This package makes both *live*: an online
recalibrator that re-fits the models from realised latencies (guarded
by sample-count, fit-quality and max-step clamps), and an SLO-driven
capacity controller that can tighten admission, resize the translation
pool and re-split the GPU partitions — attached to a host as one more
subscriber of the query stage stream, beside tracing and metrics.

The deterministic scenario harness that proves the adaptive claims is
a test kit, ``tests/scenarios/harness.py``: it runs the engine on the
production :class:`~repro.sim.system.SystemEstimator`.
"""

from repro.adapt.controller import (
    AdaptiveCapacityController,
    ControllerLimits,
    ReconfigRecord,
)
from repro.adapt.plane import AdaptivePlane, AdaptReport, default_scheme_ladder
from repro.adapt.recalibrate import ModelEpoch, OnlineRecalibrator, RecalGuards

__all__ = [
    "AdaptivePlane",
    "AdaptReport",
    "AdaptiveCapacityController",
    "ControllerLimits",
    "ModelEpoch",
    "OnlineRecalibrator",
    "RecalGuards",
    "ReconfigRecord",
    "default_scheme_ladder",
]
