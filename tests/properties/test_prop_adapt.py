"""Property tests for the adapt plane's two structural guarantees.

1. **Atomic epoch accounting** — every estimate the scheduler serves is
   booked against exactly one installed :class:`ModelEpoch`: versions
   are consecutive from 0, the per-epoch decision books only reference
   installed versions, and they sum to the plane's total.  A torn model
   swap (a decision charged to a version that never existed, or lost
   from the books) would break one of these identities.

2. **A disabled plane is invisible** — attaching
   ``AdaptivePlane(recalibrate=False, control=False)`` to a run must
   leave the :class:`~repro.sim.metrics.SystemReport` *equal field for
   field* to the same run with ``adapt=None``, across random workloads
   and schedulers.  This is the contract that makes ``adapt=`` safe to
   thread through every host: the hooks themselves cost nothing.

Both properties run the full simulated system under hypothesis-drawn
workload seeds, so they also exercise the plane's ``attach`` wiring and the
conftest-level ``audit(adapt=)`` on every example.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapt.controller import ControllerLimits
from repro.adapt.plane import AdaptivePlane
from repro.adapt.recalibrate import RecalGuards
from repro.core.baselines import MCTScheduler, RoundRobinScheduler
from repro.core.scheduler import HybridScheduler
from repro.paper import paper_system_config, paper_workload
from repro.query.workload import ArrivalProcess
from repro.sim.system import HybridSystem
from repro.sim.validate import audit

SCHEDULERS = {
    "hybrid": HybridScheduler,
    "mct": MCTScheduler,
    "round_robin": RoundRobinScheduler,
}

#: permissive envelope so hypothesis-sized runs actually install epochs
RELAXED_GUARDS = RecalGuards(
    min_samples=8, min_r2=0.0, max_step=0.5, refit_interval=8, window=64
)
FAST_LIMITS = ControllerLimits(cooldown=0.2, max_reconfigs=32)


@lru_cache(maxsize=None)
def _config(scheduler_name="hybrid"):
    return paper_system_config(
        include_32gb=False,
        scheduler_factory=SCHEDULERS[scheduler_name],
        time_constraint=0.35,
        noise_sigma=0.3,
        seed=2012,
    )


def _stream(seed, n, text_prob=0.2, rate=80.0):
    workload = paper_workload(include_32gb=False, text_prob=text_prob, seed=seed)
    return workload.generate(n, ArrivalProcess("uniform", rate=rate))


def _plane():
    return AdaptivePlane(
        target=0.9, window=1.0, guards=RELAXED_GUARDS, limits=FAST_LIMITS
    )


class TestEpochAccounting:
    @given(seed=st.integers(0, 2**16 - 1), n=st.integers(40, 120))
    @settings(max_examples=15, deadline=None)
    def test_decisions_book_against_installed_epochs(self, seed, n):
        plane = _plane()
        HybridSystem(_config()).run(_stream(seed, n), adapt=plane)
        report = plane.report()

        versions = [epoch.version for epoch in report.epochs]
        assert versions == list(range(len(versions)))
        assert report.epochs[0].trigger == "init"
        assert set(report.decisions_by_epoch) <= set(versions)
        assert all(count > 0 for count in report.decisions_by_epoch.values())
        assert sum(report.decisions_by_epoch.values()) == report.total_decisions
        assert report.total_decisions > 0
        assert audit(adapt=report).ok

    @given(seed=st.integers(0, 2**16 - 1))
    @settings(max_examples=5, deadline=None)
    def test_adaptive_history_is_deterministic(self, seed):
        """Same stream, fresh planes: identical epoch and reconfig
        histories down to every coefficient — hot swaps are not racy
        even in principle."""
        stream = _stream(seed, 80)

        def arm():
            plane = _plane()
            HybridSystem(_config()).run(stream, adapt=plane)
            report = plane.report()
            return (
                tuple(
                    (e.version, e.time, e.families, dict(e.coefficients))
                    for e in report.epochs
                ),
                tuple(
                    (r.seq, r.time, r.action, r.value_after)
                    for r in report.reconfigs
                ),
                report.total_decisions,
                dict(report.decisions_by_epoch),
            )

        assert arm() == arm()

    def test_relaxed_guards_are_not_vacuous(self):
        """Anchor for the property above: under the relaxed envelope a
        moderately long run really does install refit epochs, so the
        accounting identities are being checked against live swaps."""
        plane = _plane()
        HybridSystem(_config()).run(_stream(7, 160), adapt=plane)
        report = plane.report()
        assert [e for e in report.epochs if e.trigger == "refit"]


class TestDisabledPlaneIsInvisible:
    @given(
        seed=st.integers(0, 2**16 - 1),
        n=st.integers(30, 90),
        text_prob=st.sampled_from([0.0, 0.2, 0.5]),
        scheduler_name=st.sampled_from(sorted(SCHEDULERS)),
    )
    @settings(max_examples=10, deadline=None)
    def test_disabled_plane_matches_frozen_run(
        self, seed, n, text_prob, scheduler_name
    ):
        config = _config(scheduler_name)
        stream = _stream(seed, n, text_prob=text_prob)
        baseline = HybridSystem(config).run(stream)
        plane = AdaptivePlane(recalibrate=False, control=False)
        adapted = HybridSystem(config).run(stream, adapt=plane)

        # frozen dataclass equality: records, makespan, utilisations,
        # submission books, feedback stats — the whole audit surface
        assert adapted == baseline

        report = plane.report()
        assert report.epochs == ()
        assert report.reconfigs == ()
        assert report.total_decisions == 0
        assert dict(report.decisions_by_epoch) == {}

    def test_disabled_plane_leaves_estimator_models_untouched(self):
        config = _config()
        plane = AdaptivePlane(recalibrate=False, control=False)
        system = HybridSystem(config)
        before = system.estimator.models()
        system.run(_stream(11, 60), adapt=plane)
        assert system.estimator.models() is before
