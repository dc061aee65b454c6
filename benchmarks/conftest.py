"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's
evaluation (see DESIGN.md §4 for the index).  Besides the
pytest-benchmark timing, each harness writes a human-readable
paper-vs-measured report into ``benchmarks/results/<experiment>.txt`` so
the numbers survive pytest's output capturing; EXPERIMENTS.md is
assembled from those files.

By default a benchmark run is hermetic: reports go to a per-session
temporary directory (printed at the end of the run) and the checked-in
``benchmarks/results/`` files are left untouched.  Pass
``--write-results`` to refresh the committed reports in place.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


class ExperimentReport:
    """Collects and persists one experiment's paper-vs-measured rows."""

    def __init__(self, experiment: str, title: str):
        self.experiment = experiment
        self.title = title
        self.lines: list[str] = [f"== {experiment}: {title} ==", ""]

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def row(self, label: str, paper, measured, unit: str = "") -> None:
        self.lines.append(
            f"  {label:<38s} paper: {paper!s:>10s}   measured: {measured!s:>10s} {unit}"
        )

    def save(self, results_dir: Path = RESULTS_DIR) -> Path:
        results_dir.mkdir(parents=True, exist_ok=True)
        path = results_dir / f"{self.experiment}.txt"
        path.write_text("\n".join(self.lines) + "\n")
        return path


def pytest_addoption(parser):
    parser.addoption(
        "--write-results",
        action="store_true",
        default=False,
        help="write experiment reports into the committed "
        "benchmarks/results/ directory instead of a temporary one",
    )


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory):
    if request.config.getoption("--write-results"):
        return RESULTS_DIR
    return tmp_path_factory.mktemp("results")


@pytest.fixture(autouse=True)
def audit_simulated_runs(monkeypatch):
    """Every benchmark's simulated runs pass the invariant checker.

    Mirrors the fixture in tests/conftest.py: each
    :meth:`repro.sim.system.HybridSystem.run` is replayed against the
    queues' submission records, so a benchmark whose schedule breaks
    dependency/FIFO/conservation invariants fails loudly instead of
    silently reporting corrupt throughput numbers.
    """
    from repro.sim.system import HybridSystem
    from repro.sim.validate import assert_valid

    original = HybridSystem.run

    def audited(self, stream, **kwargs):
        return assert_valid(original(self, stream, **kwargs))

    monkeypatch.setattr(HybridSystem, "run", audited)


@pytest.fixture()
def report(request, results_dir):
    """Per-test experiment report; saved automatically on success."""
    marker = request.node.get_closest_marker("experiment")
    name = marker.args[0] if marker else request.node.name
    title = marker.args[1] if marker and len(marker.args) > 1 else ""
    rep = ExperimentReport(name, title)
    yield rep
    rep.save(results_dir)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "experiment(id, title): tags a reproduction benchmark"
    )
