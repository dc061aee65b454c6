"""repro — reproduction of *Task Scheduling for GPU Accelerated Hybrid
OLAP Systems with Multi-core Support and Text-to-Integer Translation*
(Malik, Riha, Shea & El-Ghazawi, 2012).

The package implements the full hybrid OLAP system the paper describes:

* :mod:`repro.olap` — multi-resolution MOLAP cubes (the CPU side);
* :mod:`repro.relational` — columnar fact tables (the GPU side's data);
* :mod:`repro.gpu` — a simulated Fermi-class device with SM partitions;
* :mod:`repro.text` — per-column dictionaries and query translation;
* :mod:`repro.query` — the query algebra, parser and workloads;
* :mod:`repro.core` — performance models, calibration and the Figure-10
  scheduling algorithm (the paper's contribution);
* :mod:`repro.sim` — the discrete-event system model used for the
  paper's evaluation (Tables 1-3).

Quickstart::

    from repro import (
        generate_dataset, CubePyramid, SimulatedGPU, paper_partition_scheme,
        HybridSystem, SystemConfig, XEON_X5667_8T, WorkloadSpec, QueryClass,
    )

See ``examples/quickstart.py`` for a complete runnable walkthrough.
The names here are the ones the quickstarts, docs and tests import;
everything else is imported from the package that defines it.
"""

from repro.olap import CubePyramid, DimensionHierarchy
from repro.relational import generate_dataset, tpcds_like_schema
from repro.text import TranslationService, build_dictionaries
from repro.query import Condition, Query, WorkloadSpec, parse_query
from repro.query.workload import QueryClass
from repro.gpu import SimulatedGPU, TESLA_C2070_TIMING, paper_partition_scheme
from repro.core import XEON_X5667_8T
from repro.sim import HybridSystem, SystemConfig

__version__ = "1.0.0"

__all__ = [
    "DimensionHierarchy",
    "CubePyramid",
    "generate_dataset",
    "tpcds_like_schema",
    "build_dictionaries",
    "TranslationService",
    "Condition",
    "Query",
    "parse_query",
    "WorkloadSpec",
    "QueryClass",
    "SimulatedGPU",
    "paper_partition_scheme",
    "TESLA_C2070_TIMING",
    "XEON_X5667_8T",
    "HybridSystem",
    "SystemConfig",
    "__version__",
]
