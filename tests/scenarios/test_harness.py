"""Unit tests for the deterministic scenario harness itself.

The scenario suite's claims are only as strong as the harness they run
on: a stepped clock that parks real threads at modelled times, a truth
world that decouples realised latencies from the estimator, and a
driver that interleaves arrivals and wakeups deterministically.
"""

import threading

import pytest

from repro.core.partitions import QueueKind
from repro.errors import ServeError
from repro.paper import paper_workload
from repro.sim.system import SystemEstimator

from tests.scenarios.harness import (
    JITTER,
    SteppedClock,
    build_kit,
    phase_times,
    retime,
    scale_bundle,
)


class TestSteppedClock:
    def test_starts_at_zero(self):
        assert SteppedClock().now() == 0.0

    def test_advance_moves_time(self):
        clock = SteppedClock()
        clock.advance(1.5)
        assert clock.now() == 1.5

    def test_advance_backwards_rejected(self):
        clock = SteppedClock()
        clock.advance(2.0)
        with pytest.raises(ServeError):
            clock.advance(1.0)

    def test_nonpositive_sleep_returns_immediately(self):
        clock = SteppedClock()
        clock.sleep(0.0)
        clock.sleep(-1.0)
        assert clock.sleeping() == {}

    def test_release_next_wakes_earliest_sleeper(self):
        clock = SteppedClock()
        order = []

        def sleeper(name, seconds):
            def body():
                clock.sleep(seconds)
                order.append(name)

            t = threading.Thread(target=body, name=name, daemon=True)
            t.start()
            return t

        a = sleeper("a", 2.0)
        b = sleeper("b", 1.0)
        while len(clock.sleeping()) < 2:
            pass
        assert clock.release_next() == ("b", 1.0)
        b.join(timeout=5.0)
        assert clock.now() == 1.0
        assert clock.release_next() == ("a", 2.0)
        a.join(timeout=5.0)
        assert order == ["b", "a"]
        assert clock.release_next() is None

    def test_reregistered_sleeper_not_confused_with_old_token(self):
        """A thread that wakes, finishes, and re-parks under the same
        name must not satisfy the previous registration's release."""
        clock = SteppedClock()
        done = []

        def body():
            clock.sleep(1.0)
            clock.sleep(1.0)  # re-park under the same thread name
            done.append(True)

        t = threading.Thread(target=body, name="w", daemon=True)
        t.start()
        while not clock.sleeping():
            pass
        assert clock.release_next() == ("w", 1.0)
        while not clock.sleeping():
            pass
        assert clock.release_next() == ("w", 2.0)
        t.join(timeout=5.0)
        assert done == [True]


class TestPhaseTimes:
    def test_uniform_spacing(self):
        times = phase_times([(2.0, 4.0)])
        assert times == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]

    def test_phases_concatenate(self):
        times = phase_times([(1.0, 2.0), (1.0, 1.0)])
        assert times == [0.0, 0.5, 1.0]

    def test_zero_rate_phase_is_silence(self):
        assert phase_times([(1.0, 0.0), (1.0, 1.0)]) == [1.0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            phase_times([(-1.0, 2.0)])


class TestTruthWorld:
    def _kit(self, **kwargs):
        times = phase_times([(1.0, 5.0)])
        stream = paper_workload(include_32gb=False, text_prob=0.0, seed=3).generate(
            len(times)
        )
        return build_kit(arrivals=retime(stream, times), adaptive=False, **kwargs)

    def test_jitter_keyed_by_submission_order_not_query_id(self):
        """Two kits built at different points in the process (different
        global query ids) must produce identical realised latencies."""
        kit_a = self._kit()
        kit_b = self._kit()
        entry_a, entry_b = kit_a.arrivals[0], kit_b.arrivals[0]
        assert entry_a.query.query_id != entry_b.query.query_id
        kit_a.truth.assign_seq(entry_a.query.query_id, 5)
        kit_b.truth.assign_seq(entry_b.query.query_id, 5)
        target = kit_a.engine.queues["Q_CPU"]
        t_a = kit_a.truth.service_time(entry_a.query, target)
        t_b = kit_b.truth.service_time(entry_b.query, target)
        assert t_a == t_b
        kit_a.engine.stop()
        kit_b.engine.stop()

    def test_unsequenced_query_is_an_error(self):
        """Jitter comes from the driver's submission order only; a
        query it never sequenced is an error, not a query-id fallback."""
        kit = self._kit()
        with pytest.raises(ServeError, match="never sequenced"):
            kit.truth.service_time(kit.arrivals[0].query, kit.engine.queues["Q_CPU"])
        kit.engine.stop()

    def test_truth_is_the_production_estimate_times_jitter(self):
        """At drift 1.0 the truth world is the engine's own estimator on
        the same bundle, times the query's jitter — exactly, not approx."""
        kit = self._kit()
        estimator = kit.engine.estimator
        assert isinstance(estimator, SystemEstimator)
        query = kit.arrivals[0].query
        kit.truth.assign_seq(query.query_id, 7)
        jitter = 1.0 + 7 * JITTER
        est = estimator.estimate(query)
        cpu = kit.engine.queues["Q_CPU"]
        assert kit.truth.service_time(query, cpu) == est.t_cpu * jitter
        gpu = next(q for q in kit.engine.queues.values() if q.kind is QueueKind.GPU)
        assert kit.truth.service_time(query, gpu) == est.t_gpu[gpu.n_sm] * jitter
        kit.engine.stop()

    def test_drift_scales_service_times(self):
        kit = self._kit()
        entry = kit.arrivals[0]
        kit.truth.assign_seq(entry.query.query_id, 0)
        target = kit.engine.queues["Q_CPU"]
        base = kit.truth.service_time(entry.query, target)
        kit.truth.set_drift(cpu=2.0)
        assert kit.truth.service_time(entry.query, target) == pytest.approx(
            2.0 * base
        )
        kit.engine.stop()

    def test_scale_bundle_scales_estimates_and_truth_together(self):
        kit_1 = self._kit(service_scale=1.0)
        kit_8 = self._kit(service_scale=8.0)
        q1, q8 = kit_1.arrivals[0].query, kit_8.arrivals[0].query
        kit_1.truth.assign_seq(q1.query_id, 0)
        kit_8.truth.assign_seq(q8.query_id, 0)
        t1 = kit_1.truth.service_time(q1, kit_1.engine.queues["Q_CPU"])
        t8 = kit_8.truth.service_time(q8, kit_8.engine.queues["Q_CPU"])
        assert t8 == pytest.approx(8.0 * t1)
        e1 = kit_1.engine.estimator.estimate(q1).t_cpu
        e8 = kit_8.engine.estimator.estimate(q8).t_cpu
        assert e8 == pytest.approx(8.0 * e1)
        kit_1.engine.stop()
        kit_8.engine.stop()

    def test_scale_bundle_scales_dict_and_gpu(self):
        kit = self._kit()
        bundle = kit.truth.estimator.models()
        scaled = scale_bundle(bundle, 4.0)
        assert scaled.dict_model.cost_per_entry == pytest.approx(
            4.0 * bundle.dict_model.cost_per_entry
        )
        for n_sm, (a, b) in bundle.gpu.coefficients.items():
            sa, sb = scaled.gpu.coefficients[n_sm]
            assert (sa, sb) == pytest.approx((4.0 * a, 4.0 * b))
        kit.engine.stop()


class TestDriver:
    def test_small_run_completes_and_accounts(self):
        times = phase_times([(1.0, 10.0)])
        stream = paper_workload(include_32gb=False, text_prob=0.2, seed=5).generate(
            len(times)
        )
        kit = build_kit(arrivals=retime(stream, times), adaptive=False)
        result = kit.run()
        assert result.submitted == len(kit.arrivals)
        assert result.accepted + len(result.rejected) + len(result.shed) == (
            result.submitted
        )
        completed = sum(len(v) for v in result.outcomes.values())
        assert completed == result.accepted

    def test_run_is_deterministic(self):
        def fingerprint():
            times = phase_times([(2.0, 8.0)])
            stream = paper_workload(
                include_32gb=False, text_prob=0.2, seed=6
            ).generate(len(times))
            kit = build_kit(arrivals=retime(stream, times), adaptive=False)
            result = kit.run()
            return (
                result.accepted,
                tuple(result.outcomes.get("Q", ())),
                tuple(
                    sorted(
                        (r.query_id - kit.arrivals[0].query.query_id, r.target)
                        for r in kit.engine.records
                    )
                ),
            )

        assert fingerprint() == fingerprint()

    def test_modelled_time_advances_past_last_arrival(self):
        times = phase_times([(1.0, 4.0)])
        stream = paper_workload(include_32gb=False, text_prob=0.0, seed=9).generate(
            len(times)
        )
        kit = build_kit(arrivals=retime(stream, times), adaptive=False)
        kit.run()
        assert kit.clock.now() >= times[-1]
