"""Host-side cube-construction algorithms (Section II-A related work).

The paper's CPU OLAP partition answers queries from a pre-built MOLAP
cube; this package provides the three classic ways to build that cube
on the host, plus a brute-force oracle they are all verified against:

* :func:`~benchmarks.kit.buildalgs.reference.full_cube_reference` — the
  definitionally-correct materializer (one scan per cuboid);
* :func:`~benchmarks.kit.buildalgs.arraybased.array_based_cube` — Zhao,
  Deshpande & Naughton's array-based simultaneous aggregation (dense
  NumPy base cuboid + smallest-parent axis sums over the
  :class:`~benchmarks.kit.lattice.CubeLattice`);
* :func:`~benchmarks.kit.buildalgs.buc.buc_cube` — Beyer & Ramakrishnan's
  Bottom-Up Cube, recursive partitioning with anti-monotone iceberg
  pruning;
* :func:`~benchmarks.kit.buildalgs.pipesort.pipesort_cube` — Agarwal et
  al.'s PipeSort, one sorted scan per pipeline of a minimum prefix-chain
  cover of the lattice (:func:`~benchmarks.kit.buildalgs.pipesort.plan_pipelines`).

**The shared cuboid-dict contract.**  Every builder has the signature
``build(table, measure, resolutions, min_support=1)`` where ``table``
is a :class:`~repro.relational.table.FactTable`, ``measure`` names the
aggregated column, and ``resolutions`` maps each participating
dimension name to the resolution level to group at.  The result is one
dictionary per cuboid, keyed by the ``frozenset`` of its grouped
dimension names (``frozenset()`` is the apex/grand total)::

    {frozenset({"date", "store"}): {(year, region): sum_of_measure, ...},
     frozenset({"date"}):          {(year,): ..., ...},
     frozenset():                  {(): grand_total}}

Cell keys are coordinate tuples ordered by **sorted dimension name**
(never by algorithm-internal sort order), so cuboid dictionaries from
different builders compare equal directly.  ``min_support`` is the
iceberg threshold: a cell is emitted iff at least that many fact rows
fall into it (``min_support=1`` keeps every non-empty cell; ``< 1``
raises :class:`~repro.errors.CubeError`).  All 2^N cuboid keys are
always present, even when pruning leaves a cuboid with no qualifying
cells.
"""

from benchmarks.kit.buildalgs.arraybased import array_based_cube
from benchmarks.kit.buildalgs.buc import buc_cube
from benchmarks.kit.buildalgs.pipesort import pipesort_cube, plan_pipelines
from benchmarks.kit.buildalgs.reference import full_cube_reference, project_coordinates

__all__ = [
    "array_based_cube",
    "buc_cube",
    "full_cube_reference",
    "pipesort_cube",
    "plan_pipelines",
    "project_coordinates",
]
