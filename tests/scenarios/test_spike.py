"""The headline scenario: ride out a 3x load spike inside the SLO.

The claim under test: with the adapt plane attached, a 3x open-loop
arrival spike does not drop the premium class below its 0.9
deadline-hit SLO — the controller tightens admission and grows the
translation pool fast enough that *completed* premium work stays on
time — while the frozen-model baseline (same workload, same capacity,
no plane) breaches.  Everything runs on the stepped clock: zero
wall-clock sleeps (enforced suite-wide by the ``bounded_sleeps``
fixture).
"""

import pytest

from repro.sim.validate import SEEDABLE_VIOLATIONS, assert_valid, audit, seed_violation

from tests.scenarios.harness import spike_scenario

SLO_TARGET = 0.9


@pytest.fixture(scope="module")
def spike_arms():
    """Run both arms once; the module's tests assert different facets."""
    adaptive_kit = spike_scenario(adaptive=True)
    adaptive_result = adaptive_kit.run()
    frozen_kit = spike_scenario(adaptive=False)
    frozen_result = frozen_kit.run()
    return adaptive_kit, adaptive_result, frozen_kit, frozen_result


def test_adaptive_arm_holds_premium_slo(spike_arms):
    _, result, _, _ = spike_arms
    assert result.hit_rate("premium") >= SLO_TARGET


def test_frozen_baseline_breaches(spike_arms):
    _, _, _, frozen = spike_arms
    assert frozen.hit_rate("premium") < SLO_TARGET


def test_adaptive_beats_frozen_on_both_classes(spike_arms):
    _, adaptive, _, frozen = spike_arms
    assert adaptive.hit_rate("premium") > frozen.hit_rate("premium")
    assert adaptive.hit_rate("batch") > frozen.hit_rate("batch")


def test_controller_actually_acted(spike_arms):
    kit, _, _, _ = spike_arms
    report = kit.plane.report()
    actions = {r.action for r in report.reconfigs}
    assert "tighten_admission" in actions
    # the spike saturates the single translation worker too
    assert "grow_translation" in actions
    # and the recovery phase unwinds at least one escalation
    assert actions & {"relax_admission", "shrink_translation"}


def test_recalibrator_installed_epochs(spike_arms):
    kit, _, _, _ = spike_arms
    report = kit.plane.report()
    refits = [e for e in report.epochs if e.trigger == "refit"]
    assert refits, "no model epoch was installed during the run"
    assert report.total_decisions > 0
    assert sum(report.decisions_by_epoch.values()) == report.total_decisions


def test_adapt_history_reconciles(spike_arms):
    """Every model swap and reconfiguration passes the ninth validation
    family — the controller never acted outside its clamps."""
    kit, _, _, _ = spike_arms
    assert_valid(adapt=kit.plane.report())


def test_controller_respected_hard_ranges(spike_arms):
    kit, _, _, _ = spike_arms
    report = kit.plane.report()
    limits = report.limits
    assert len(report.reconfigs) <= limits.max_reconfigs
    for rec in report.reconfigs:
        if rec.action in ("tighten_admission", "relax_admission"):
            assert (
                limits.min_lateness_factor
                <= rec.value_after
                <= limits.max_lateness_factor
            )
        elif rec.action in ("grow_translation", "shrink_translation"):
            assert (
                limits.min_translation_workers
                <= rec.value_after
                <= limits.max_translation_workers
            )


def test_frozen_arm_has_no_plane(spike_arms):
    _, _, frozen_kit, _ = spike_arms
    assert frozen_kit.plane is None


def test_spike_run_is_deterministic():
    """Two fresh kits must replay the identical history — the golden
    adaptive fixture depends on this."""

    def fingerprint():
        kit = spike_scenario(adaptive=True)
        result = kit.run()
        report = kit.plane.report()
        return (
            result.hit_rate("premium"),
            result.hit_rate("batch"),
            result.accepted,
            tuple((r.time, r.action, r.value_after) for r in report.reconfigs),
            tuple((e.version, e.time, e.families) for e in report.epochs),
        )

    assert fingerprint() == fingerprint()


def test_seeded_violation_fails_loudly(spike_arms):
    """The ``adapt``-family arm of the acceptance criteria: a healthy
    history passes, and a deliberately corrupted one is caught."""
    kit, _, _, _ = spike_arms
    report = kit.plane.report()
    assert audit(adapt=report).ok
    for kind in SEEDABLE_VIOLATIONS["adapt"]:
        corrupted = seed_violation(report, kind)
        assert not audit(adapt=corrupted).ok, (
            f"seeded {kind!r} violation went undetected"
        )


def test_trace_and_metrics_are_views_of_the_plane():
    """The plane publishes its epochs, refits and reconfigurations on the
    engine's stage stream: the trace and the registry hear exactly the
    history the plane reports, one for one."""
    from repro.metrics import MetricsRegistry
    from repro.sim import TraceCollector

    collector = TraceCollector(sample_series=False)
    registry = MetricsRegistry()
    kit = spike_scenario(adaptive=True, collector=collector, metrics=registry)
    kit.run()
    report = kit.plane.report()
    assert report.reconfigs, "the controller never acted: the pin is vacuous"

    epochs = [e for e in collector.events if e.kind == "model_epoch"]
    assert [(e.time, dict(e.data)) for e in epochs] == [
        (
            epoch.time,
            {
                "version": epoch.version,
                "trigger": epoch.trigger,
                "families": list(epoch.families),
                "clamped": list(epoch.clamped),
            },
        )
        for epoch in report.epochs
    ]
    reconfigs = [e for e in collector.events if e.kind == "reconfig"]
    assert [(e.time, dict(e.data)) for e in reconfigs] == [
        (
            record.time,
            {
                "seq": record.seq,
                "action": record.action,
                "trigger": record.trigger,
                "detail": record.detail,
            },
        )
        for record in report.reconfigs
    ]

    snapshot = registry.collect()
    assert snapshot.value("repro_adapt_model_epoch") == report.epochs[-1].version
    actions = {}
    for record in report.reconfigs:
        actions[record.action] = actions.get(record.action, 0) + 1
    family = snapshot.family("repro_adapt_reconfigurations_total")
    assert {action: int(value) for (action,), value in family.items()} == actions
    refit = snapshot.family("repro_adapt_refits_total")
    installed = sum(
        int(value) for (_, outcome), value in refit.items() if outcome == "installed"
    )
    assert installed == sum(len(epoch.families) for epoch in report.epochs)
