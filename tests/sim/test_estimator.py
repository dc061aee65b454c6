"""Unit tests for SystemEstimator and noise/bias realisation."""

from dataclasses import replace

import pytest

from repro.core.perfmodel import PAPER_DICT_MODEL
from repro.errors import TranslationError
from repro.paper import (
    PAPER_DICT_LENGTH,
    paper_dict_lengths,
    paper_system_config,
    paper_workload,
)
from repro.query.model import Condition, Query
from repro.sim.system import HybridSystem, SystemEstimator


@pytest.fixture(scope="module")
def config():
    return paper_system_config(threads=8, include_32gb=True)


@pytest.fixture(scope="module")
def estimator(config):
    return SystemEstimator(config)


class TestCPUEstimates:
    def test_small_query_uses_small_cube(self, estimator, config):
        q = Query(conditions=(Condition("d1", 1, lo=0, hi=10),), measures=("m1",))
        est = estimator.estimate(q)
        sc_mb = config.pyramid.subcube_size_mb(q)
        assert est.t_cpu == pytest.approx(config.cpu_model.time(sc_mb))

    def test_customer_query_has_no_cpu_estimate(self, estimator):
        q = Query(
            conditions=(Condition("cust", 1, text_values=("cust__name#0",)),),
            measures=("m1",),
        )
        est = estimator.estimate(q)
        assert est.t_cpu is None

    def test_finer_query_costs_more(self, estimator):
        coarse = Query(conditions=(Condition("d1", 1, lo=0, hi=20),), measures=("m1",))
        fine = Query(conditions=(Condition("d1", 3, lo=0, hi=800),), measures=("m1",))
        assert estimator.estimate(fine).t_cpu > estimator.estimate(coarse).t_cpu


class TestGPUEstimates:
    def test_one_estimate_per_sm_class(self, estimator, config):
        q = Query(conditions=(Condition("d1", 0, lo=0, hi=2),), measures=("m1",))
        est = estimator.estimate(q)
        assert set(est.t_gpu) == set(config.scheme.distinct_sm_counts)

    def test_matches_device_timing(self, estimator, config):
        from repro.query.model import decompose

        q = Query(conditions=(Condition("d2", 2, lo=0, hi=5),), measures=("m1", "m2"))
        est = estimator.estimate(q)
        d = decompose(q, config.device.descriptor.schema.hierarchies)
        for n_sm, t in est.t_gpu.items():
            assert t == pytest.approx(config.device.estimate_time(d, n_sm))


class TestTranslationEstimates:
    def test_eq18_with_paper_lengths(self, estimator):
        q = Query(
            conditions=(Condition("cust", 1, text_values=("cust__name#0",)),),
            measures=("m1",),
        )
        est = estimator.estimate(q)
        assert est.t_trans == pytest.approx(
            PAPER_DICT_MODEL.time(PAPER_DICT_LENGTH)
        )

    def test_numeric_query_needs_no_translation(self, estimator):
        q = Query(conditions=(Condition("d1", 1, lo=0, hi=5),), measures=("m1",))
        assert estimator.estimate(q).t_trans == 0.0

    def test_workers_do_not_change_single_job_estimate(self, config):
        """Parallel workers add translation *throughput*, not speed.

        One translation still takes the full eq. 18 time regardless of
        worker count — extra workers become extra service units on the
        translation Server and a faster-draining Q_TRANS backlog, never
        a shorter single-job service time.
        """
        q = Query(
            conditions=(Condition("cust", 1, text_values=("cust__name#0",)),),
            measures=("m1",),
        )
        base = SystemEstimator(config).estimate(q).t_trans
        doubled = SystemEstimator(
            replace(config, translation_workers=2)
        ).estimate(q).t_trans
        assert base > 0.0
        assert doubled == pytest.approx(base)

    def test_unknown_dictionary_column(self, config):
        partial = dict(paper_dict_lengths())
        del partial["cust__name"]
        estimator = SystemEstimator(replace(config, dict_lengths=partial))
        q = Query(
            conditions=(Condition("cust", 1, text_values=("x",)),), measures=("m1",)
        )
        with pytest.raises(TranslationError, match="cust__name"):
            estimator.estimate(q)


class TestNoiseBias:
    def test_bias_shifts_measured_times(self, config):
        biased = replace(config, noise_bias=1.5)
        workload = paper_workload(include_32gb=True, seed=7)
        stream = workload.generate(200)
        report = HybridSystem(biased).run(stream)
        ratio = sum(r.measured_time for r in report.records) / sum(
            r.estimated_time for r in report.records
        )
        assert ratio == pytest.approx(1.5, rel=1e-6)

    def test_bias_with_jitter_mean(self, config):
        noisy = replace(config, noise_bias=1.3, noise_sigma=0.2, seed=11)
        workload = paper_workload(include_32gb=True, seed=7)
        report = HybridSystem(noisy).run(workload.generate(500))
        ratio = sum(r.measured_time for r in report.records) / sum(
            r.estimated_time for r in report.records
        )
        assert 1.15 < ratio < 1.45

    def test_invalid_bias(self, config):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            replace(config, noise_bias=0.0)


class TestRecalibratorRouting:
    """The online recalibrator pairs a realised latency with the query's
    step-2 features, grouped queries included: a grouped query is
    priced by the same eq. 7 and eq. 13 models, so its latency is a
    sample of them."""

    def test_a_grouped_query_reaches_its_family_windows(self, estimator, config):
        from types import SimpleNamespace

        from repro.adapt.recalibrate import OnlineRecalibrator

        q = Query(
            conditions=(Condition("d1", 1, lo=0, hi=10),),
            measures=("m1",),
            group_by=(("d2", 1),),
        )
        recal = OnlineRecalibrator(estimator)
        recal.note_estimate(q)
        recal.note_decision(SimpleNamespace(target=SimpleNamespace(name="Q_G1", n_sm=1)))
        recal.ingest("Q_CPU", q.query_id, measured=0.05, estimated=0.04, now=1.0)
        recal.ingest("Q_G1", q.query_id, measured=0.03, estimated=0.02, now=1.0)
        assert list(recal._cpu_window) == [(config.pyramid.subcube_size_mb(q), 0.05)]
        # d1 and d2 columns plus the m1 measure
        frac = 3 / config.device.descriptor.total_columns
        assert list(recal._gpu_windows[1]) == [(frac, 0.03)]
        assert recal.samples_ingested == 2
