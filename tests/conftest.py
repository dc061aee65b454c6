"""Shared fixtures: one small materialised world reused across the suite.

Everything here is deterministic (fixed seeds) and laptop-sized; the
expensive fixtures are session-scoped since they are read-only.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.olap import CubePyramid, DimensionHierarchy, Level
from repro.relational import generate_dataset, tpcds_like_schema
from repro.text import TranslationService, build_dictionaries

# the suite must be repeatable run-to-run (the serve concurrency tests
# assert 20/20 identical repeats; CI reruns must not roam the example
# space): derandomise hypothesis so every run draws the same examples
hypothesis_settings.register_profile("deterministic", derandomize=True)
hypothesis_settings.load_profile("deterministic")


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/regression/golden/*.json from the current "
        "simulator instead of comparing against it",
    )


# -- hermeticity guards --------------------------------------------------------

_REPO_ROOT = Path(__file__).resolve().parent.parent
#: directories the suite must treat as read-only; tests that need a
#: scratch file get one from ``tmp_path``
_WATCHED_DIRS = ("src", "docs", "benchmarks", "tests")
_IGNORED_PARTS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    ".benchmarks",
}


def _snapshot_tree() -> set[Path]:
    files = set()
    for top in _WATCHED_DIRS:
        root = _REPO_ROOT / top
        if not root.is_dir():
            continue
        for path in root.rglob("*"):
            if path.is_dir():
                continue
            parts = set(path.parts)
            if parts & _IGNORED_PARTS or path.suffix == ".pyc":
                continue
            files.add(path)
    return files


@pytest.fixture(scope="session", autouse=True)
def no_stray_writes(request):
    """Fail the session if any test writes new files into the repo tree.

    Golden-fixture regeneration is the one sanctioned write, so the
    guard stands down under ``--regen-golden``.
    """
    if request.config.getoption("--regen-golden"):
        yield
        return
    before = _snapshot_tree()
    yield
    stray = sorted(str(p.relative_to(_REPO_ROOT)) for p in _snapshot_tree() - before)
    assert not stray, (
        "test run created files inside the repo tree (use tmp_path "
        f"instead): {stray}"
    )


@pytest.fixture(autouse=True)
def bounded_sleeps(request, monkeypatch):
    """Cap ``time.sleep`` at 50 ms inside tests.

    The serve suite is built around a fake clock precisely so nothing
    needs long real sleeps; a test that wants one anyway must say so
    with ``@pytest.mark.wallclock``.
    """
    if request.node.get_closest_marker("wallclock"):
        return
    real_sleep = time.sleep

    def guarded(seconds):
        assert seconds <= 0.05, (
            f"time.sleep({seconds}) in a test: sleeps over 50 ms make the "
            "suite slow and flaky — drive a FakeClock or mark the test "
            "with @pytest.mark.wallclock"
        )
        real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", guarded)


@pytest.fixture(scope="session")
def small_schema():
    """The TPC-DS-flavoured schema at 0.5 scale (3 dims x 4 levels)."""
    return tpcds_like_schema(scale=0.5)


@pytest.fixture(scope="session")
def dataset(small_schema):
    """10k rows of deterministic synthetic retail data."""
    return generate_dataset(small_schema, num_rows=10_000, seed=2012)


@pytest.fixture(scope="session")
def fact_table(dataset):
    return dataset.table


@pytest.fixture(scope="session")
def pyramid(fact_table):
    """Materialised 3-level pyramid over sales_price (resolutions 0-2)."""
    return CubePyramid.from_fact_table(fact_table, "sales_price", [0, 1, 2])


@pytest.fixture(scope="session")
def dictionaries(dataset):
    return build_dictionaries(dataset.vocabularies, backend="hash")


@pytest.fixture(scope="session")
def translator(dictionaries, small_schema):
    return TranslationService(dictionaries, small_schema.hierarchies)


@pytest.fixture(autouse=True)
def audit_simulated_runs(monkeypatch):
    """Audit every :meth:`HybridSystem.run` with :func:`repro.sim.validate.audit`.

    Any simulated run anywhere in the suite whose realised schedule
    contradicts the scheduler's :math:`T_Q` books (dependency order,
    FIFO/capacity discipline, job conservation, deterministic drift)
    fails the test with :class:`repro.errors.InvariantViolation` — the
    run is audited even if the test only inspects throughput.  Every
    attachment the run was handed is audited with it: the trace of a
    :class:`TraceCollector`, the final snapshot of a
    :class:`MetricsRegistry`, the history of an adapt plane and the
    trees of a span tracer — which families that makes is ``audit``'s
    decision.  A stand-in of another type in ``collector=`` /
    ``metrics=`` (a bare stage recorder, say) is passed through
    unaudited.
    """
    from repro.metrics import MetricsRegistry
    from repro.sim import TraceCollector
    from repro.sim.system import HybridSystem
    from repro.sim.validate import audit

    original = HybridSystem.run

    def audited(self, stream, collector=None, **kwargs):
        report = original(self, stream, collector=collector, **kwargs)
        metrics, plane, tracer = (kwargs.get(k) for k in ("metrics", "adapt", "spans"))
        audit(
            report,
            collector=collector if isinstance(collector, TraceCollector) else None,
            snapshot=metrics.collect() if isinstance(metrics, MetricsRegistry) else None,
            spans=tracer.spans() if tracer is not None else None,
            adapt=plane.report() if plane is not None else None,
        ).raise_if_bad()
        return report

    monkeypatch.setattr(HybridSystem, "run", audited)


@pytest.fixture()
def rng():
    return np.random.default_rng(99)


@pytest.fixture()
def time_dim():
    """A classic time hierarchy: 4 years -> 48 months -> 1440 days."""
    return DimensionHierarchy(
        "time", [Level("year", 4), Level("month", 48), Level("day", 1440)]
    )


@pytest.fixture()
def every_block_to_the_team(monkeypatch):
    """Drop the reducer's hand-off floor to one byte, so the arrays of a
    few hundred bytes a team test feeds split and reach the team as a
    multi-MB selection's blocks do."""
    from repro.olap import parallel

    monkeypatch.setattr(parallel, "MIN_BLOCK_BYTES", 1)
