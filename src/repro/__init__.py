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
"""

from repro.errors import ReproError
from repro.units import KB, MB, GB, Rate

from repro.olap import (
    DimensionHierarchy,
    Level,
    OLAPCube,
    AggregateOp,
    CubePyramid,
    PyramidLevel,
    subcube_size_mb,
)
from repro.relational import (
    TableSchema,
    FactTable,
    SyntheticDataset,
    generate_dataset,
    tpcds_like_schema,
)
from repro.text import (
    ColumnDictionary,
    build_dictionaries,
    TranslationService,
    AhoCorasick,
)
from repro.query import (
    Condition,
    Query,
    parse_query,
    WorkloadSpec,
    QueryStream,
    ArrivalProcess,
)
from repro.query.workload import QueryClass
from repro.gpu import (
    SimulatedGPU,
    TableDescriptor,
    PartitionScheme,
    paper_partition_scheme,
    monolithic_scheme,
    LinearColumnTiming,
    BandwidthTiming,
    TESLA_C2070_TIMING,
)
from repro.core import (
    CPUPerfModel,
    DictPerfModel,
    XEON_X5667_4T,
    XEON_X5667_8T,
    XEON_X5667_1T_LEGACY,
    PAPER_DICT_MODEL,
    HybridScheduler,
    PerformanceEstimator,
    FeedbackController,
)
from repro.sim import HybridSystem, SystemConfig, SystemReport
from repro.groupby import (
    GroupedResult,
    groupby_from_table,
    groupby_with_cube,
)
from repro.io import (
    save_table,
    load_table,
    save_dataset,
    load_dataset,
    save_pyramid,
    load_pyramid,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "KB",
    "MB",
    "GB",
    "Rate",
    "DimensionHierarchy",
    "Level",
    "OLAPCube",
    "AggregateOp",
    "CubePyramid",
    "PyramidLevel",
    "subcube_size_mb",
    "TableSchema",
    "FactTable",
    "SyntheticDataset",
    "generate_dataset",
    "tpcds_like_schema",
    "ColumnDictionary",
    "build_dictionaries",
    "TranslationService",
    "AhoCorasick",
    "Condition",
    "Query",
    "parse_query",
    "WorkloadSpec",
    "QueryClass",
    "QueryStream",
    "ArrivalProcess",
    "SimulatedGPU",
    "TableDescriptor",
    "PartitionScheme",
    "paper_partition_scheme",
    "monolithic_scheme",
    "LinearColumnTiming",
    "BandwidthTiming",
    "TESLA_C2070_TIMING",
    "CPUPerfModel",
    "DictPerfModel",
    "XEON_X5667_4T",
    "XEON_X5667_8T",
    "XEON_X5667_1T_LEGACY",
    "PAPER_DICT_MODEL",
    "HybridScheduler",
    "PerformanceEstimator",
    "FeedbackController",
    "HybridSystem",
    "SystemConfig",
    "SystemReport",
    "GroupedResult",
    "groupby_from_table",
    "groupby_with_cube",
    "save_table",
    "load_table",
    "save_dataset",
    "load_dataset",
    "save_pyramid",
    "load_pyramid",
    "__version__",
]
