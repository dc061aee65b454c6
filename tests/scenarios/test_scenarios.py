"""The scripted scenario library beyond the headline spike.

Each test drives one :mod:`tests.scenarios.harness` builder end to end on
the stepped clock and asserts the adaptive behaviour the script was
designed to provoke — recalibration convergence under data growth,
bounded (non-thrashing) control under a diurnal wave, clamp integrity
under an estimate-poisoning adversary, and per-class accounting under
a multi-tenant mix.  Every run's history must reconcile under the
``adapt`` family of ``audit``.
"""

import pytest

from repro.sim.validate import assert_valid

from tests.scenarios.harness import (
    GROWTH,
    adversary_scenario,
    diurnal_scenario,
    multi_tenant_scenario,
    regime_shift_scenario,
)


class TestRegimeShift:
    def test_recalibrator_tracks_data_growth(self):
        """After the mid-run 1.8x growth the installed CPU model must
        predict the new truth better than the frozen initial model."""
        kit = regime_shift_scenario()
        initial_cpu = kit.engine.estimator.models().cpu
        kit.run()
        report = kit.plane.report()
        assert_valid(adapt=report)
        assert [e for e in report.epochs if e.trigger == "refit"], (
            "data growth provoked no refit"
        )

        adapted_cpu = kit.engine.estimator.models().cpu
        probe_mb = 0.1  # mid-range column size, well below the breakpoint
        truth = initial_cpu.time(probe_mb) * GROWTH
        frozen_err = abs(initial_cpu.time(probe_mb) - truth)
        adapted_err = abs(adapted_cpu.time(probe_mb) - truth)
        assert adapted_err < frozen_err

    def test_epochs_walk_monotonically_toward_truth(self):
        """Max-step clamping spreads the correction over several epochs:
        the below-breakpoint scale coefficient must grow through the
        epoch chain, never jumping more than max_step per epoch."""
        kit = regime_shift_scenario()
        kit.run()
        report = kit.plane.report()
        scales = [
            e.coefficients["cpu.below.a"]
            for e in report.epochs
            if "cpu.below.a" in e.coefficients
        ]
        assert scales[-1] > scales[0]
        for old, new in zip(scales, scales[1:]):
            assert abs(new - old) <= report.guards.max_step * abs(old) * (
                1.0 + 1e-9
            )


class TestDiurnal:
    def test_wave_does_not_thrash_the_controller(self):
        kit = diurnal_scenario()
        result = kit.run()
        report = kit.plane.report()
        assert_valid(adapt=report)
        makespan = kit.clock.now()
        cooldown_budget = makespan / report.limits.cooldown
        # far fewer actions than the cooldown alone would admit
        assert len(report.reconfigs) < 0.5 * cooldown_budget
        # consecutive actions always respect the cooldown spacing
        for prev, cur in zip(report.reconfigs, report.reconfigs[1:]):
            assert cur.time - prev.time >= report.limits.cooldown - 1e-9

    def test_escalations_are_unwound_after_the_peak(self):
        kit = diurnal_scenario()
        kit.run()
        report = kit.plane.report()
        ups = sum(
            1
            for r in report.reconfigs
            if r.action in ("tighten_admission", "grow_translation", "resplit_up")
        )
        downs = len(report.reconfigs) - ups
        assert downs > 0, "the quiet tail never relaxed any escalation"
        # by drain the controller holds at most one residual escalation
        assert kit.plane.controller.applied_depth <= 1


class TestAdversary:
    def test_clamps_hold_under_estimate_poisoning(self):
        """Truth decouples 8x from the models mid-run; every installed
        epoch must still move each coefficient by at most max_step."""
        kit = adversary_scenario()
        kit.run()
        report = kit.plane.report()
        assert_valid(adapt=report)
        refits = [e for e in report.epochs if e.trigger == "refit"]
        assert refits, "the 8x drift provoked no refit at all"
        # an 8x true-cost jump cannot be absorbed in one clamped epoch:
        # at least one refit must have had its raw fit clipped
        assert any(e.clamped for e in refits)

    def test_poisoned_feedback_samples_are_quarantined(self):
        """Non-finite and non-positive measured latencies injected into
        the feedback channel are counted and never reach a fit window."""
        kit = adversary_scenario()
        plane = kit.plane
        poison = [
            float("nan"),
            float("inf"),
            -1.0,
            0.0,
        ]

        original = kit.on_time

        def on_time(t):
            if original is not None:
                original(t)
            if 4.0 <= t < 5.0:
                for bad in poison:
                    plane.on_feedback("Q_CPU", 10**9, bad, 0.01, 0.0, None)

        kit.on_time = on_time
        kit.run()
        report = plane.report()
        assert report.poisoned > 0
        assert_valid(adapt=report)
        # quarantined samples never entered the CPU window
        for x, y in plane.recalibrator._cpu_window:
            assert y > 0.0


class TestMultiTenant:
    def test_per_class_slo_accounting(self):
        kit = multi_tenant_scenario()
        result = kit.run()
        report = kit.plane.report()
        assert_valid(adapt=report)
        assert set(result.outcomes) == {"premium", "standard", "batch"}
        for query_class in ("premium", "standard", "batch"):
            rate = result.hit_rate(query_class)
            assert 0.0 <= rate <= 1.0
            assert result.outcomes[query_class], (
                f"{query_class} completed no queries"
            )

    def test_per_class_outcomes_blend_to_the_aggregate(self):
        """The plane's aggregate SLO window and the per-class books must
        describe the same completions: counts sum to accepted, and the
        blended per-class hit rate equals the overall one."""
        kit = multi_tenant_scenario()
        result = kit.run()
        completed = sum(len(v) for v in result.outcomes.values())
        assert completed == result.accepted
        hits = sum(sum(v) for v in result.outcomes.values())
        overall = hits / completed
        blended = sum(
            result.hit_rate(c) * len(result.outcomes[c]) for c in result.outcomes
        ) / completed
        assert blended == pytest.approx(overall)
