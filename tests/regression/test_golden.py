"""Golden-master regression suite for the six schedulers.

Each fixture in ``tests/regression/golden/`` pins the headline
:class:`~repro.sim.metrics.SystemReport` numbers for one scheduler on
a fixed Table-3-style workload (fixed seeds, lognormal service noise
so feedback bias is non-trivial).  Any change to scheduling, queueing,
feedback, or workload generation that moves these numbers fails here —
deliberate behaviour changes must regenerate the fixtures:

    PYTHONPATH=src python -m pytest tests/regression -q --regen-golden

and the regenerated JSON diff must be reviewed alongside the code.
"""

import json
from pathlib import Path

import pytest

from repro.core.baselines import (
    FastestFirstScheduler,
    GPUOnlyScheduler,
    MCTScheduler,
    METScheduler,
    RoundRobinScheduler,
)
from repro.core.scheduler import HybridScheduler
from repro.paper import TABLE3_TEXT_PROB, paper_system_config, paper_workload
from repro.query.workload import ArrivalProcess
from repro.sim import HybridSystem

GOLDEN_DIR = Path(__file__).parent / "golden"

#: fixed experiment shape — changing any of these invalidates the fixtures
N_QUERIES = 300
RATE = 100.0
NOISE_SIGMA = 0.25
CONFIG_SEED = 2012
WORKLOAD_SEED = 7

SCHEDULERS = {
    "hybrid": HybridScheduler,
    "mct": MCTScheduler,
    "met": METScheduler,
    "round_robin": RoundRobinScheduler,
    "fastest_first": FastestFirstScheduler,
    "gpu_only": GPUOnlyScheduler,
}

REL_TOL = 1e-6


def run_pinned_experiment(scheduler_name):
    config = paper_system_config(
        include_32gb=True,
        scheduler_factory=SCHEDULERS[scheduler_name],
        noise_sigma=NOISE_SIGMA,
        seed=CONFIG_SEED,
    )
    workload = paper_workload(
        include_32gb=True, text_prob=TABLE3_TEXT_PROB, seed=WORKLOAD_SEED
    )
    stream = workload.generate(N_QUERIES, ArrivalProcess("uniform", rate=RATE))
    return HybridSystem(config).run(stream)


def snapshot(report):
    return {
        "completed": report.completed,
        "rejected": report.rejected,
        "translated": sum(1 for r in report.records if r.translated),
        "queries_per_second": report.queries_per_second,
        "deadline_hit_rate": report.deadline_hit_rate,
        "mean_response_time": report.mean_response_time,
        "overall_bias_ratio": report.overall_bias_ratio,
        "by_class": dict(sorted(report.by_class().items())),
        "by_target": dict(sorted(report.by_target().items())),
    }


def assert_matches(got, want, scheduler_name):
    assert sorted(got) == sorted(want), (
        f"{scheduler_name}: golden fixture metric set changed"
    )
    for key, expected in want.items():
        actual = got[key]
        if isinstance(expected, dict):
            assert actual == expected, f"{scheduler_name}: {key} changed"
        elif isinstance(expected, float):
            assert actual == pytest.approx(expected, rel=REL_TOL), (
                f"{scheduler_name}: {key} drifted: "
                f"{actual!r} != golden {expected!r}"
            )
        else:
            assert actual == expected, (
                f"{scheduler_name}: {key} changed: "
                f"{actual!r} != golden {expected!r}"
            )


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_scheduler_matches_golden_master(scheduler_name, request):
    path = GOLDEN_DIR / f"{scheduler_name}.json"
    got = snapshot(run_pinned_experiment(scheduler_name))
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; generate it with:\n"
            "  PYTHONPATH=src python -m pytest tests/regression -q "
            "--regen-golden"
        )
    assert_matches(got, json.loads(path.read_text()), scheduler_name)


def test_golden_run_is_deterministic():
    """Two in-process runs must agree bit-for-bit, not just to tolerance."""
    a = snapshot(run_pinned_experiment("hybrid"))
    b = snapshot(run_pinned_experiment("hybrid"))
    assert a == b


# -- adaptive spike run -------------------------------------------------------
#
# The adapt plane's whole history — every controller action and every
# installed model epoch of the frozen-seed spike scenario — is pinned,
# not just the headline rates.  Any change to the recalibrator's fit
# windows, the controller's escalation ladder, the guard clamps, or the
# scenario harness's event interleaving moves this fixture.


def snapshot_adaptive():
    from tests.scenarios.harness import spike_scenario

    kit = spike_scenario(adaptive=True)
    result = kit.run()
    report = kit.plane.report()
    return {
        "submitted": result.submitted,
        "accepted": result.accepted,
        "rejected": len(result.rejected),
        "shed": len(result.shed),
        "premium_hit_rate": result.hit_rate("premium"),
        "standard_hit_rate": result.hit_rate("standard"),
        "batch_hit_rate": result.hit_rate("batch"),
        "total_decisions": report.total_decisions,
        "samples_ingested": report.samples_ingested,
        "poisoned": report.poisoned,
        "reconfigs": [
            [r.time, r.action, r.trigger, r.value_after] for r in report.reconfigs
        ],
        "epochs": [
            [e.version, e.time, e.trigger, sorted(e.families)]
            for e in report.epochs
        ],
        "decisions_by_epoch": {
            str(k): v for k, v in sorted(report.decisions_by_epoch.items())
        },
    }


def test_adaptive_spike_matches_golden_master(request):
    path = GOLDEN_DIR / "adaptive.json"
    got = snapshot_adaptive()
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; generate it with:\n"
            "  PYTHONPATH=src python -m pytest tests/regression -q "
            "--regen-golden"
        )
    assert_matches(got, json.loads(path.read_text()), "adaptive")
