"""Tests for the Section-IV evaluation presets (repro.paper)."""

from collections import Counter

import numpy as np
import pytest

from repro import paper
from repro.units import GB, KB, MB


class TestGeometry:
    def test_three_cube_dimensions_four_levels(self):
        dims = paper.paper_dimensions()
        assert len(dims) == 3
        assert all(d.num_levels == 4 for d in dims)
        assert [dims[0].cardinality(r) for r in range(4)] == [8, 40, 400, 1600]

    def test_pyramid_sizes_match_paper(self):
        pyr = paper.paper_pyramid(include_32gb=True)
        sizes = [pyr.level_nbytes(l) for l in pyr.levels]
        assert np.isclose(sizes[0], 4 * KB)  # ~4 KB
        assert np.isclose(sizes[1], 500 * KB)  # ~500 KB
        assert np.isclose(sizes[2], 488.28125 * MB)  # ~500 MB
        assert np.isclose(sizes[3], 30.517578125 * GB)  # ~32 GB

    def test_pyramid_without_32gb(self):
        pyr = paper.paper_pyramid(include_32gb=False)
        assert len(pyr.levels) == 3

    def test_fact_table_about_4gb(self):
        device = paper.paper_device()
        assert 3.9 * GB < device.descriptor.nbytes < 4.1 * GB

    def test_device_is_c2070_shaped(self):
        device = paper.paper_device()
        assert device.num_sms == 14
        assert device.is_analytic

    def test_dictionary_lengths_tied_to_cardinalities(self):
        lengths = paper.paper_dict_lengths()
        assert lengths["cust__name"] == paper.PAPER_DICT_LENGTH
        assert lengths["d3__L3"] == 1600


class TestWorkloads:
    def test_table1_mix(self):
        wl = paper.paper_workload(include_32gb=False)
        counts = Counter(e.query_class for e in wl.generate(1000))
        assert set(counts) == {"small", "mid"}
        assert counts["small"] > counts["mid"]

    def test_table2_mix_includes_fine(self):
        wl = paper.paper_workload(include_32gb=True)
        counts = Counter(e.query_class for e in wl.generate(1000))
        assert set(counts) == {"small", "mid", "fine"}

    def test_text_prob_produces_translations(self):
        wl = paper.paper_workload(include_32gb=True, text_prob=0.5, seed=1)
        stream = wl.generate(500)
        frac = sum(1 for e in stream if e.query.needs_translation) / 500
        assert 0.35 < frac < 0.65

    def test_text_as_codes_has_no_translations(self):
        wl = paper.paper_workload(include_32gb=True, text_prob=1.0, text_as_codes=True)
        stream = wl.generate(200)
        assert not any(e.query.needs_translation for e in stream)

    def test_text_targets_customer_dictionary(self):
        wl = paper.paper_workload(include_32gb=True, text_prob=1.0, seed=2)
        stream = wl.generate(100)
        for entry in stream:
            for cond in entry.query.text_conditions:
                assert cond.dimension == "cust"


class TestConfigs:
    def test_cpu_models_for_all_thread_counts(self):
        assert set(paper.CPU_MODELS) == {1, 4, 8}
        for threads, model in paper.CPU_MODELS.items():
            assert model.threads == threads
            assert model.dispatch_overhead == paper.CPU_DISPATCH_OVERHEAD[threads]

    def test_unknown_thread_count_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            paper.paper_system_config(threads=2)

    def test_config_construction(self):
        cfg = paper.paper_system_config(threads=8)
        assert cfg.cpu_model.threads == 8
        assert cfg.scheme.total_sms == 14
        assert cfg.dict_lengths is not None

    def test_cpu_only_and_gpu_only_factories(self):
        from repro.core.baselines import CPUOnlyScheduler, GPUOnlyScheduler

        assert paper.cpu_only_config(4).scheduler_factory is CPUOnlyScheduler
        assert paper.gpu_only_config().scheduler_factory is GPUOnlyScheduler
