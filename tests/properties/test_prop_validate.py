"""Property-based audits: random workloads never break the sim invariants.

Whatever the scheduler, arrival process, text fraction, noise level or
translation-worker count, every realised schedule the discrete-event
layer produces must satisfy the :mod:`repro.sim.validate` families —
dependency order, FIFO/capacity discipline, job conservation, and (for
deterministic capacity-1 runs) bounded estimate-vs-realised drift.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import (
    FastestFirstScheduler,
    GPUOnlyScheduler,
    MCTScheduler,
    METScheduler,
    RoundRobinScheduler,
)
from repro.core.scheduler import HybridScheduler
from repro.paper import paper_system_config, paper_workload
from repro.query.workload import ArrivalProcess
from repro.sim.system import HybridSystem
from repro.sim.validate import audit

from tests.serve.conftest import undrained_report

SCHEDULERS = [
    HybridScheduler,
    MCTScheduler,
    METScheduler,
    RoundRobinScheduler,
    FastestFirstScheduler,
    GPUOnlyScheduler,  # paper workloads always carry GPU estimates
]


@st.composite
def system_runs(draw):
    scheduler = draw(st.sampled_from(SCHEDULERS))
    n = draw(st.integers(5, 50))
    text_prob = draw(st.sampled_from([0.0, 0.2, 0.6]))
    noise = draw(st.sampled_from([0.0, 0.25]))
    workers = draw(st.sampled_from([1, 2]))
    arrivals = draw(
        st.sampled_from(
            [ArrivalProcess("closed"), ArrivalProcess("poisson", rate=40.0)]
        )
    )
    seed = draw(st.integers(0, 10_000))
    config = replace(
        paper_system_config(
            include_32gb=False,
            scheduler_factory=scheduler,
            noise_sigma=noise,
            seed=seed,
        ),
        translation_workers=workers,
    )
    stream = paper_workload(text_prob=text_prob, seed=seed).generate(
        n, arrivals=arrivals
    )
    return config, stream


class TestEveryRunIsValid:
    @given(system_runs())
    @settings(max_examples=30, deadline=None)
    def test_invariants_hold(self, run):
        config, stream = run
        report = HybridSystem(config).run(stream)
        result = audit(report)
        assert result.ok, result.summary()
        assert report.completed == len(list(stream))

    @given(st.integers(0, 10_000), st.integers(10, 80))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_runs_audit_drift(self, seed, n):
        # noise off, capacity 1 everywhere: the books must upper-bound
        # the realised schedule — the invariant the historical
        # translated-query T_Q under-count violated
        config = paper_system_config(include_32gb=False, seed=seed)
        stream = paper_workload(text_prob=0.5, seed=seed).generate(n)
        result = audit(HybridSystem(config).run(stream))
        assert "drift" in result.checked
        assert result.ok, result.summary()

    @given(st.integers(0, 12), st.integers(1, 12))
    @settings(max_examples=10, deadline=None)
    def test_truncated_runs_conserve_jobs(self, served, held):
        # a serving engine read before drain(): a closed gate holds the
        # last ``held`` queries in flight, and the books balance around them
        report = undrained_report(served, held)
        assert report.completed == served
        assert sum(report.outstanding.values()) > 0
        result = audit(report)
        assert result.ok, result.summary()
