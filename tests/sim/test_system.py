"""Integration-style unit tests for the full HybridSystem."""

import numpy as np
import pytest

from repro.core.baselines import CPUOnlyScheduler, GPUOnlyScheduler
from repro.errors import SimulationError
from repro.gpu.device import SimulatedGPU
from repro.gpu.partitioning import paper_partition_scheme
from repro.gpu.timing import TESLA_C2070_TIMING
from repro.query.workload import ArrivalProcess, QueryClass, WorkloadSpec
from repro.sim.system import HybridSystem, SystemConfig
from repro.core.perfmodel import XEON_X5667_8T
from repro.units import GB


@pytest.fixture(scope="module")
def mat_config(fact_table, pyramid, translator):
    device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    device.load_table(fact_table)
    return SystemConfig(
        cpu_model=XEON_X5667_8T.with_overhead(0.002),
        pyramid=pyramid,
        device=device,
        scheme=paper_partition_scheme(),
        translation_service=translator,
        time_constraint=0.5,
    )


@pytest.fixture(scope="module")
def workload(small_schema, dataset):
    return WorkloadSpec(
        small_schema.dimensions,
        [
            QueryClass("small", 0.6, resolution=1, coverage=(0.1, 0.5)),
            QueryClass(
                "mid",
                0.25,
                resolution=2,
                dims_constrained=(1, 2),
                coverage=(0.5, 1.0),
                text_prob=0.5,
            ),
            QueryClass("fine", 0.15, resolution=3, coverage=(0.2, 0.8)),
        ],
        measures=("sales_price",),
        text_levels=list(small_schema.text_levels),
        vocabularies=dataset.vocabularies,
        seed=31,
    )


class TestMaterialisedRun:
    def test_all_queries_complete(self, mat_config, workload):
        stream = workload.generate(200)
        report = HybridSystem(mat_config).run(stream)
        assert report.completed == 200

    def test_answers_match_reference(self, mat_config, workload, fact_table, translator):
        stream = workload.generate(150)
        report = HybridSystem(mat_config).run(stream)
        by_id = {e.query.query_id: e.query for e in stream}
        for record in report.records:
            q = by_id[record.query_id]
            if q.needs_translation:
                q = translator.translate(q).query
            expected = fact_table.execute(q).value()
            assert np.isclose(record.answer, expected, equal_nan=True), record

    def test_fine_queries_go_to_gpu(self, mat_config, workload):
        # resolution-3 queries exceed the pyramid (levels 0-2): GPU only
        stream = workload.generate(300)
        report = HybridSystem(mat_config).run(stream)
        for record in report.records:
            if record.query_class == "fine":
                assert record.target.startswith("Q_G"), record

    def test_text_queries_pass_translation(self, mat_config, workload):
        stream = workload.generate(300)
        report = HybridSystem(mat_config).run(stream)
        translated = [r for r in report.records if r.translated]
        assert translated, "workload should produce text queries"
        assert all(r.target.startswith("Q_G") for r in translated)

    def test_deterministic_given_seed(self, mat_config, workload):
        stream = workload.generate(100)
        r1 = HybridSystem(mat_config).run(stream)
        r2 = HybridSystem(mat_config).run(stream)
        assert r1.queries_per_second == r2.queries_per_second
        assert [x.finish_time for x in r1.records] == [
            x.finish_time for x in r2.records
        ]

    def test_utilisations_reported(self, mat_config, workload):
        report = HybridSystem(mat_config).run(workload.generate(100))
        assert "Q_CPU" in report.utilisations
        assert all(0.0 <= u <= 1.0 for u in report.utilisations.values())


class TestSchedulerVariants:
    def test_cpu_only(self, mat_config, small_schema):
        wl = WorkloadSpec(
            small_schema.dimensions,
            [QueryClass("small", 1.0, resolution=1)],
            measures=("sales_price",),
        )
        cfg = SystemConfig(
            **{**mat_config.__dict__, "scheduler_factory": CPUOnlyScheduler}
        )
        report = HybridSystem(cfg).run(wl.generate(100))
        assert set(report.by_target()) == {"Q_CPU"}

    def test_gpu_only(self, mat_config, workload):
        cfg = SystemConfig(
            **{**mat_config.__dict__, "scheduler_factory": GPUOnlyScheduler}
        )
        report = HybridSystem(cfg).run(workload.generate(100))
        assert all(t.startswith("Q_G") for t in report.by_target())


class TestNoiseAndFeedback:
    def test_noise_changes_realised_times(self, mat_config, workload):
        noisy = SystemConfig(**{**mat_config.__dict__, "noise_sigma": 0.3})
        stream = workload.generate(100)
        r_clean = HybridSystem(mat_config).run(stream)
        r_noisy = HybridSystem(noisy).run(stream)
        clean_err = sum(abs(r.estimation_error) for r in r_clean.records)
        noisy_err = sum(abs(r.estimation_error) for r in r_noisy.records)
        assert clean_err < 1e-12
        assert noisy_err > 0

    def test_noise_mean_preserving(self, mat_config, workload):
        noisy = SystemConfig(
            **{**mat_config.__dict__, "noise_sigma": 0.2, "seed": 5}
        )
        stream = workload.generate(300)
        report = HybridSystem(noisy).run(stream)
        measured = sum(r.measured_time for r in report.records)
        estimated = sum(r.estimated_time for r in report.records)
        assert 0.85 < measured / estimated < 1.15

    def test_feedback_off_still_completes(self, mat_config, workload):
        cfg = SystemConfig(
            **{**mat_config.__dict__, "feedback_gain": 0.0, "noise_sigma": 0.2}
        )
        report = HybridSystem(cfg).run(workload.generate(100))
        assert report.completed == 100


class TestArrivals:
    def test_open_arrivals_spread_completions(self, mat_config, workload):
        stream = workload.generate(100, ArrivalProcess("uniform", rate=50.0))
        report = HybridSystem(mat_config).run(stream)
        assert report.completed == 100
        assert report.makespan >= 99 / 50.0

    def test_closed_arrivals_saturate(self, mat_config, workload):
        stream = workload.generate(100)
        report = HybridSystem(mat_config).run(stream)
        # closed-loop throughput should exceed the 50/s open-loop rate
        assert report.queries_per_second > 50


class TestValidation:
    def test_bad_time_constraint(self, mat_config):
        with pytest.raises(SimulationError):
            SystemConfig(**{**mat_config.__dict__, "time_constraint": 0.0})

    def test_bad_noise(self, mat_config):
        with pytest.raises(SimulationError):
            SystemConfig(**{**mat_config.__dict__, "noise_sigma": -0.1})


class TestTranslationWiring:
    def test_translation_workers_reach_the_server(self):
        # regression: run() used to build every Server with the default
        # capacity, silently ignoring SystemConfig.translation_workers
        from dataclasses import replace

        from repro.paper import paper_system_config, paper_workload

        config = replace(
            paper_system_config(include_32gb=False), translation_workers=3
        )
        stream = paper_workload(text_prob=0.5, seed=3).generate(40)
        report = HybridSystem(config).run(stream)
        assert report.capacities["Q_TRANS"] == 3
        assert all(
            c == 1 for name, c in report.capacities.items() if name != "Q_TRANS"
        )

    def test_materialised_text_query_without_service_fails_fast(
        self, mat_config, workload
    ):
        from repro.errors import TranslationError

        cfg = SystemConfig(**{**mat_config.__dict__, "translation_service": None})
        stream = workload.generate(50)
        assert any(e.query.needs_translation for e in stream)
        with pytest.raises(TranslationError, match="no translation_service"):
            HybridSystem(cfg).run(stream)

    def test_materialised_text_free_workload_needs_no_service(
        self, mat_config, small_schema
    ):
        cfg = SystemConfig(**{**mat_config.__dict__, "translation_service": None})
        wl = WorkloadSpec(
            small_schema.dimensions,
            [QueryClass("small", 1.0, resolution=1)],
            measures=("sales_price",),
        )
        report = HybridSystem(cfg).run(wl.generate(50))
        assert report.completed == 50


def decisions_per_instant(collector) -> list[int]:
    """How many decisions each decision instant made, in time order."""
    counts: dict[float, int] = {}
    for e in collector.events:
        if e.kind == "decision":
            counts[e.time] = counts.get(e.time, 0) + 1
    return [counts[t] for t in sorted(counts)]


class TestBatchedAdmission:
    """``run(batch_size=)`` buffers arrivals and decides each buffer at
    the instant of the arrival that fills it."""

    def test_batch_size_one_matches_sequential(self, mat_config, workload):
        stream = workload.generate(150, ArrivalProcess("uniform", rate=200.0))
        seq = HybridSystem(mat_config).run(stream)
        bat = HybridSystem(mat_config).run(stream, batch_size=1)
        assert [
            (r.query_id, r.target, r.submit_time, r.finish_time, r.answer)
            for r in seq.records
        ] == [
            (r.query_id, r.target, r.submit_time, r.finish_time, r.answer)
            for r in bat.records
        ]

    def test_batch_size_one_trace_matches_sequential(self, mat_config, workload):
        """One decision per arrival either way: equal reports, equal
        event streams, and equal sample series (no trailing-flush heap
        event without a buffer)."""
        import dataclasses

        from repro.sim.obs import TraceCollector

        stream = workload.generate(120, ArrivalProcess("uniform", rate=200.0))
        seq_trace, bat_trace = TraceCollector(), TraceCollector()
        seq = HybridSystem(mat_config).run(stream, collector=seq_trace)
        bat = HybridSystem(mat_config).run(
            stream, collector=bat_trace, batch_size=1
        )
        assert seq == bat
        assert decisions_per_instant(bat_trace) == [1] * 120

        def events(trace):
            return [
                (e.kind, e.time, e.query_id, repr(e.data))
                for e in trace.events
            ]

        assert events(seq_trace) == events(bat_trace)
        assert {
            name: [dataclasses.astuple(s) for s in rows]
            for name, rows in seq_trace.series.items()
        } == {
            name: [dataclasses.astuple(s) for s in rows]
            for name, rows in bat_trace.series.items()
        }

    def test_batched_run_validates(self, mat_config, workload):
        from repro.sim.obs import TraceCollector
        from repro.sim.validate import assert_valid

        collector = TraceCollector()
        stream = workload.generate(145, ArrivalProcess("uniform", rate=300.0))
        report = HybridSystem(mat_config).run(
            stream, collector=collector, batch_size=16
        )
        assert report.completed == 145
        assert_valid(report, collector=collector)
        # 9 full batches of 16 plus the trailing flush of 1
        assert decisions_per_instant(collector) == [16] * 9 + [1]

    def test_closed_loop_single_trailing_flush(self, mat_config, workload):
        # closed arrivals all land at t=0: one buffer, one flush
        from repro.sim.obs import TraceCollector

        collector = TraceCollector()
        report = HybridSystem(mat_config).run(
            workload.generate(20), collector=collector, batch_size=64
        )
        assert report.completed == 20
        kinds = [e.kind for e in collector.events if e.kind in ("arrival", "decision")]
        assert kinds == ["arrival"] * 20 + ["decision"] * 20

    def test_invalid_batch_size(self, mat_config, workload):
        stream = workload.generate(5)
        with pytest.raises(SimulationError, match="batch_size"):
            HybridSystem(mat_config).run(stream, batch_size=0)
