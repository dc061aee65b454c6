"""BENCH-ADAPT — riding out a 3x load spike inside the premium SLO.

The headline claim of the adapt plane (``repro.adapt``): under the
scripted spike scenario — 8 q/s baseline, a 3x burst to 27 q/s, then a
recovery tail — the adaptive arm (online recalibration + capacity
controller) keeps the premium class at or above its 0.9 deadline-hit
SLO, while the frozen-model baseline on the identical workload and
starting capacity breaches.  Both arms run on the deterministic
stepped clock of the scenario harness (``tests/scenarios/harness.py``),
so the numbers below are exact replays, not samples.

The same claim is pinned as a regression test in
``tests/scenarios/test_spike.py`` and as a golden fixture in
``tests/regression/golden/adaptive.json``; this benchmark records the
magnitudes for EXPERIMENTS.md.
"""

import pytest

from tests.scenarios.harness import spike_scenario

SLO_TARGET = 0.9


def run_arm(adaptive: bool):
    kit = spike_scenario(adaptive=adaptive)
    result = kit.run()
    reconfigs = refits = 0
    if kit.plane is not None:
        plane_report = kit.plane.report()
        reconfigs = len(plane_report.reconfigs)
        refits = sum(1 for e in plane_report.epochs if e.trigger == "refit")
    return result, reconfigs, refits


@pytest.mark.experiment("BENCH-ADAPT", "adaptive capacity control under a 3x spike")
def test_adaptive_arm_rides_out_the_spike(benchmark, report):
    results = benchmark.pedantic(
        lambda: {"frozen": run_arm(False), "adaptive": run_arm(True)},
        rounds=1,
        iterations=1,
    )
    frozen, _, _ = results["frozen"]
    adaptive, reconfigs, refits = results["adaptive"]

    report.line("spike scenario: 8 q/s baseline, 3x burst to 27 q/s, recovery")
    report.line(f"premium SLO target: {SLO_TARGET}")
    report.line()
    for label, result in (("frozen", frozen), ("adaptive", adaptive)):
        report.row(
            f"premium hit rate ({label})",
            f">= {SLO_TARGET}" if label == "adaptive" else "breach",
            f"{result.hit_rate('premium'):.3f}",
        )
    report.row("batch hit rate (frozen)", "-", f"{frozen.hit_rate('batch'):.3f}")
    report.row("batch hit rate (adaptive)", "-", f"{adaptive.hit_rate('batch'):.3f}")
    report.row("capacity actions (adaptive)", "-", str(reconfigs))
    report.row("refit epochs installed", "-", str(refits))
    report.row(
        "admission rejected+shed (adaptive)",
        "-",
        str(len(adaptive.rejected) + len(adaptive.shed)),
    )

    assert adaptive.hit_rate("premium") >= SLO_TARGET, (
        "adaptive arm breached the premium SLO"
    )
    assert frozen.hit_rate("premium") < SLO_TARGET, (
        "frozen baseline no longer breaches: the spike is not stressing "
        "the system and this benchmark proves nothing"
    )
    assert reconfigs > 0 and refits > 0
