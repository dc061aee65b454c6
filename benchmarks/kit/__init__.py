"""The cube-construction kit: what FIG2 and ABL-BUILD run, beside them.

The paper's CPU partition answers from a pyramid of pre-built MOLAP
cubes; how the full cube gets built is Section II-A related work.  The
product (``src/repro``) keeps the one fold from fact rows to cube cells
(:func:`repro.olap.cube.fold`); these modules build on it for the
figures and the ablation, and nothing under ``src/`` imports them:

* :mod:`benchmarks.kit.chunks` — Zhao et al.'s chunked storage with
  chunk-offset compression (FIG2-chunks);
* :mod:`benchmarks.kit.lattice` — the 2^N group-by lattice and its
  smallest-parent spanning tree;
* :mod:`benchmarks.kit.buildalgs` — the array-based, BUC and PipeSort
  full-cube builders and their brute-force reference (ABL-BUILD-host);
* :mod:`benchmarks.kit.cubebuild` — the cube built on the simulated
  device (ABL-BUILD-device);
* ``cube_construction.py`` — the three builders cross-checked, as a
  runnable walkthrough (tutorial §2b).

Import it as ``benchmarks.kit.…`` with the repository root on the path
(``python -m pytest`` from the root puts it there).
"""
