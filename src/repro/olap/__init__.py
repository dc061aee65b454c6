"""MOLAP substrate: dense multi-resolution OLAP cubes and their processing.

This package implements the multidimensional side of the hybrid OLAP
system: dimension hierarchies (:mod:`repro.olap.hierarchy`), dense cubes
(:mod:`repro.olap.cube`), sub-cube extraction and the eq.-3 size law
(:mod:`repro.olap.subcube`), the multi-resolution cube pyramid of
Figure 1 (:mod:`repro.olap.pyramid`), the multi-process aggregation
engine that stands in for the paper's OpenMP implementation
(:mod:`repro.olap.parallel`), the bandwidth benchmark behind Figure 3
(:mod:`repro.olap.bandwidth`) and the materialized-rollup answer cache
that serves covered queries without touching the scheduler
(:mod:`repro.olap.rollup`).

The full-cube construction algorithms of Section II-A (array-based,
BUC, PipeSort), chunked storage and the group-by lattice serve FIG2 and
ABL-BUILD only; they live beside those benchmarks in ``benchmarks/kit``
and build on :func:`repro.olap.cube.fold`.
"""

from repro.olap.hierarchy import DimensionHierarchy, Level
from repro.olap.cube import OLAPCube, AggregateOp
from repro.olap.subcube import subcube_size_mb, subcube_size_bytes, SubcubeSpec
from repro.olap.pyramid import CubePyramid, PyramidLevel
from repro.olap.parallel import ParallelAggregator
from repro.olap.rollup import (
    ROLLUP_TARGET,
    AdmissionPolicy,
    CuboidSpec,
    MaterialisedCuboid,
    RollupCatalog,
    RollupRouter,
)

__all__ = [
    "ROLLUP_TARGET",
    "AdmissionPolicy",
    "CuboidSpec",
    "MaterialisedCuboid",
    "RollupCatalog",
    "RollupRouter",
    "DimensionHierarchy",
    "Level",
    "OLAPCube",
    "AggregateOp",
    "SubcubeSpec",
    "subcube_size_mb",
    "subcube_size_bytes",
    "CubePyramid",
    "PyramidLevel",
    "ParallelAggregator",
]
