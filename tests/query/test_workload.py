"""Unit tests for workload generation."""

from collections import Counter

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.query.workload import ArrivalProcess, QueryClass, TimedQuery, WorkloadSpec


@pytest.fixture()
def spec(small_schema, dataset):
    return WorkloadSpec(
        small_schema.dimensions,
        [
            QueryClass("small", 0.7, resolution=1, coverage=(0.1, 0.5)),
            QueryClass(
                "big",
                0.3,
                resolution=2,
                dims_constrained=(1, 2),
                coverage=(0.8, 1.0),
                text_prob=0.5,
            ),
        ],
        measures=small_schema.measures,
        text_levels=list(small_schema.text_levels),
        vocabularies=dataset.vocabularies,
        seed=5,
    )


class TestQueryClass:
    def test_negative_weight(self):
        with pytest.raises(WorkloadError):
            QueryClass("x", -1, resolution=0)

    def test_bad_coverage(self):
        with pytest.raises(WorkloadError):
            QueryClass("x", 1, resolution=0, coverage=(0.0, 0.5))
        with pytest.raises(WorkloadError):
            QueryClass("x", 1, resolution=0, coverage=(0.8, 0.2))

    def test_bad_text_prob(self):
        with pytest.raises(WorkloadError):
            QueryClass("x", 1, resolution=0, text_prob=1.5)

    def test_bad_dims_constrained(self):
        with pytest.raises(WorkloadError):
            QueryClass("x", 1, resolution=0, dims_constrained=(3, 1))


class TestArrivalProcess:
    def test_closed_all_zero(self, rng):
        times = ArrivalProcess("closed").times(5, rng)
        assert np.all(times == 0.0)

    def test_uniform_spacing(self, rng):
        times = ArrivalProcess("uniform", rate=10.0).times(4, rng)
        assert np.allclose(np.diff(times), 0.1)

    def test_poisson_monotone(self, rng):
        times = ArrivalProcess("poisson", rate=100.0).times(50, rng)
        assert np.all(np.diff(times) >= 0)
        assert times[0] == 0.0

    def test_unknown_kind(self):
        with pytest.raises(WorkloadError):
            ArrivalProcess("burst")

    def test_rate_required(self):
        with pytest.raises(WorkloadError):
            ArrivalProcess("poisson", rate=0.0)

    def test_negative_n(self, rng):
        with pytest.raises(WorkloadError):
            ArrivalProcess("closed").times(-1, rng)


class TestGeneration:
    def test_deterministic(self, spec):
        s1 = spec.generate(100)
        s2 = spec.generate(100)
        # query_ids differ (global counter); structure must be identical
        key = lambda e: (e.query.conditions, e.query.measures, e.query.agg, e.time)
        assert [key(e) for e in s1] == [key(e) for e in s2]

    def test_class_mix_approximates_weights(self, spec):
        counts = Counter(e.query_class for e in spec.generate(2000))
        assert 0.6 < counts["small"] / 2000 < 0.8
        assert 0.2 < counts["big"] / 2000 < 0.4

    def test_resolution_forced(self, spec):
        stream = spec.generate(300)
        for entry in stream:
            cls_res = 1 if entry.query_class == "small" else 2
            numeric = [c for c in entry.query.conditions if not c.is_text]
            assert max(c.resolution for c in numeric) == cls_res

    def test_text_conditions_present(self, spec):
        stream = spec.generate(400)
        translated = [e for e in stream if e.query.needs_translation]
        big = [e for e in stream if e.query_class == "big"]
        # text_prob=0.5, minus cases where every text dimension was
        # already range-constrained
        assert 0.2 < len(translated) / len(big) < 0.8
        assert all(e.query_class == "big" for e in translated)

    def test_text_literals_are_valid(self, spec, dataset, translator):
        stream = spec.generate(300)
        for entry in stream:
            if entry.query.needs_translation:
                translator.translate(entry.query)  # must not raise

    def test_text_as_codes(self, small_schema, dataset):
        spec = WorkloadSpec(
            small_schema.dimensions,
            [QueryClass("c", 1, resolution=1, text_prob=1.0, text_as_codes=True)],
            measures=small_schema.measures,
            text_levels=list(small_schema.text_levels),
            vocabularies=dataset.vocabularies,
        )
        stream = spec.generate(100)
        assert not any(e.query.needs_translation for e in stream)
        assert any(
            any(c.is_codes for c in e.query.conditions) for e in stream
        )

    def test_coverage_bounds_respected(self, small_schema):
        spec = WorkloadSpec(
            small_schema.dimensions,
            [QueryClass("c", 1, resolution=1, coverage=(0.5, 0.5), dims_constrained=(1, 1))],
            measures=("quantity",),
        )
        for entry in spec.generate(50):
            (cond,) = entry.query.conditions
            card = small_schema.dimension(cond.dimension).cardinality(cond.resolution)
            assert cond.width() == round(0.5 * card)

    def test_range_dimensions_restriction(self, small_schema):
        spec = WorkloadSpec(
            small_schema.dimensions,
            [QueryClass("c", 1, resolution=1, dims_constrained=(1, 3))],
            measures=("quantity",),
            range_dimensions=["date"],
        )
        for entry in spec.generate(50):
            assert all(c.dimension == "date" for c in entry.query.conditions)

    def test_unknown_range_dimension(self, small_schema):
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                small_schema.dimensions,
                [QueryClass("c", 1, resolution=0)],
                measures=("quantity",),
                range_dimensions=["nope"],
            )

    def test_text_prob_without_vocab_rejected(self, small_schema):
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                small_schema.dimensions,
                [QueryClass("c", 1, resolution=0, text_prob=0.5)],
                measures=("quantity",),
            )

    def test_resolution_deeper_than_dims_rejected(self, small_schema):
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                small_schema.dimensions,
                [QueryClass("c", 1, resolution=9)],
                measures=("quantity",),
            )

    def test_arrival_times_sorted_in_stream(self, spec):
        stream = spec.generate(100, ArrivalProcess("poisson", rate=50))
        times = [e.time for e in stream]
        assert times == sorted(times)

    def test_stream_indexing(self, spec):
        stream = spec.generate(10)
        assert isinstance(stream[0], TimedQuery)
        assert len(stream.queries) == 10

    def test_empty_stream(self, spec):
        assert len(spec.generate(0)) == 0


class TestValidationErrors:
    def test_no_classes(self, small_schema):
        with pytest.raises(WorkloadError):
            WorkloadSpec(small_schema.dimensions, [], measures=("v",))

    def test_zero_total_weight(self, small_schema):
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                small_schema.dimensions,
                [QueryClass("c", 0.0, resolution=0)],
                measures=("v",),
            )

    def test_no_measures(self, small_schema):
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                small_schema.dimensions,
                [QueryClass("c", 1, resolution=0)],
                measures=(),
            )
