"""Chaos hooks: fault injection inside the deterministic harness.

The truth-world executor can stall a specific query's service
(:meth:`~tests.scenarios.harness.TruthExecutor.stall`) and the plane's
feedback entry point can be salted with poisoned samples — both without
giving up determinism, because the "faults" are scripted against the
modelled clock like everything else.
"""

from repro.paper import paper_workload
from repro.sim.validate import assert_valid

from tests.scenarios.harness import build_kit, phase_times, retime


def _kit(*, seconds=6.0, rate=8.0):
    times = phase_times([(seconds, rate)])
    stream = paper_workload(include_32gb=False, text_prob=0.2, seed=21).generate(
        len(times)
    )
    return build_kit(
        arrivals=retime(stream, times),
        service_scale=17.0,
        time_constraint=0.4,
        slo_window=1.0,
    )


class TestWorkerStall:
    def test_stalled_query_misses_only_its_own_deadline(self):
        """One worker wedged for 2 s: that query misses, the run still
        drains, and the books reconcile."""
        kit = _kit()
        victim = kit.arrivals[3]
        kit.executor.stall(victim.query.query_id, 2.0)
        result = kit.run()
        assert result.accepted == result.submitted
        completed = sum(len(v) for v in result.outcomes.values())
        assert completed == result.accepted
        records = {r.query_id: r for r in kit.engine.records}
        assert not records[victim.query.query_id].met_deadline
        assert_valid(adapt=kit.plane.report())

    def test_stall_is_deterministic(self):
        def fingerprint():
            kit = _kit()
            kit.executor.stall(kit.arrivals[3].query.query_id, 2.0)
            result = kit.run()
            return (
                result.accepted,
                tuple(
                    (r.query_id - kit.arrivals[0].query.query_id, r.met_deadline)
                    for r in sorted(
                        kit.engine.records, key=lambda r: r.query_id
                    )
                ),
            )

        assert fingerprint() == fingerprint()

    def test_mass_stall_trips_the_controller(self):
        """Stalling a burst of early queries starves the SLO window and
        must provoke escalations — which stay inside the envelope."""
        kit = _kit(seconds=10.0, rate=10.0)
        for entry in kit.arrivals[8:16]:
            kit.executor.stall(entry.query.query_id, 1.5)
        kit.run()
        report = kit.plane.report()
        assert report.reconfigs, "a mass stall provoked no capacity action"
        assert_valid(adapt=report)


class TestPoisonedFeedback:
    def test_poison_cannot_move_the_installed_models(self):
        """A flood of absurd (but finite) feedback samples may reach the
        windows, yet every installed epoch stays max-step clamped; the
        non-finite ones never enter a window at all."""
        kit = _kit(seconds=8.0)
        plane = kit.plane

        def on_time(t):
            if 2.0 <= t < 6.0:
                plane.on_feedback("Q_CPU", 10**9, float("nan"), 0.01, 0.0, None)
                plane.on_feedback("Q_CPU", 10**9, float("-inf"), 0.01, 0.0, None)

        kit.on_time = on_time
        kit.run()
        report = plane.report()
        assert report.poisoned >= 2
        assert_valid(adapt=report)  # includes the max-step reconciliation

    def test_disabling_recalibration_isolates_the_estimator(self):
        """With recalibrate=False the estimator must end the run with
        its initial models regardless of what feedback arrives."""
        from repro.adapt.plane import AdaptivePlane

        times = phase_times([(4.0, 8.0)])
        stream = paper_workload(
            include_32gb=False, text_prob=0.2, seed=23
        ).generate(len(times))
        # handed in at construction, so the controller half is driven too
        plane = AdaptivePlane(recalibrate=False, window=1.0)
        kit = build_kit(
            arrivals=retime(stream, times),
            adaptive=plane,
            service_scale=17.0,
        )
        before = kit.engine.estimator.models()
        kit.run()
        assert kit.engine.estimator.models() is before
        assert plane.report().epochs == ()
