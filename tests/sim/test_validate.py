"""Tests for the simulation invariant checker (:mod:`repro.sim.validate`).

Two directions: clean runs of the real system must pass the audit, and
every seedable corruption must make it fail loudly — including a
hand-built report reproducing the historical translated-query
:math:`T_Q` under-count, which is exactly what the drift invariant
exists to catch.
"""

from dataclasses import replace

import pytest

from repro.core.partitions import Submission
from repro.errors import InvariantViolation
from repro.paper import paper_system_config, paper_workload
from repro.sim.metrics import QueryRecord, SystemReport
from repro.sim.system import HybridSystem
from repro.sim.validate import (
    SEEDABLE_VIOLATIONS,
    assert_valid,
    seed_violation,
    validate_report,
)


@pytest.fixture(scope="module")
def clean_report():
    """One deterministic paper-scale run with plenty of text queries."""
    config = paper_system_config(include_32gb=False)
    stream = paper_workload(text_prob=0.4, seed=7).generate(150)
    return HybridSystem(config).run(stream)


class TestCleanRuns:
    def test_clean_run_passes(self, clean_report):
        result = validate_report(clean_report)
        assert result.ok, result.summary()
        # deterministic capacity-1 run: all four families audited
        assert set(result.checked) == {
            "dependency",
            "discipline",
            "conservation",
            "drift",
        }
        assert result.summary().startswith("ok")

    def test_assert_valid_returns_the_report(self, clean_report):
        assert assert_valid(clean_report) is clean_report

    def test_noise_disables_drift_only(self):
        config = paper_system_config(include_32gb=False, noise_sigma=0.3)
        stream = paper_workload(text_prob=0.3, seed=11).generate(80)
        report = HybridSystem(config).run(stream)
        result = validate_report(report)
        assert result.ok, result.summary()
        assert "drift" not in result.checked
        assert "dependency" in result.checked

    def test_parallel_workers_disable_drift_only(self):
        config = replace(
            paper_system_config(include_32gb=False), translation_workers=4
        )
        stream = paper_workload(text_prob=0.4, seed=13).generate(80)
        report = HybridSystem(config).run(stream)
        result = validate_report(report)
        assert result.ok, result.summary()
        assert "drift" not in result.checked

    def test_truncated_run_conserves_jobs(self):
        config = paper_system_config(include_32gb=False)
        stream = paper_workload(text_prob=0.4, seed=17).generate(100)
        report = HybridSystem(config).run(stream, max_events=120)
        assert report.completed < 100
        assert sum(report.outstanding.values()) > 0
        assert validate_report(report).ok


class TestSeededViolations:
    @pytest.mark.parametrize("kind", SEEDABLE_VIOLATIONS)
    def test_each_corruption_is_caught(self, clean_report, kind):
        corrupted = seed_violation(clean_report, kind)
        result = validate_report(corrupted)
        assert not result.ok
        assert any(v.invariant == kind for v in result.violations), (
            f"expected a {kind!r} violation, got: {result.summary()}"
        )
        with pytest.raises(InvariantViolation, match=kind):
            assert_valid(corrupted)

    def test_unknown_kind_rejected(self, clean_report):
        with pytest.raises(InvariantViolation, match="unknown violation kind"):
            seed_violation(clean_report, "nonsense")

    def test_empty_run_cannot_seed_conservation(self):
        empty = SystemReport.from_records([])
        with pytest.raises(InvariantViolation, match="empty"):
            seed_violation(empty, "conservation")


def _hit(query_id: int) -> QueryRecord:
    """A zero-cost cache-hit record, as the rollup tier produces them."""
    return QueryRecord(
        query_id=query_id,
        query_class="hot",
        target="Q_ROLLUP",
        submit_time=1.0,
        finish_time=1.0,
        deadline=1.5,
        estimated_time=0.0,
        measured_time=0.0,
        translated=False,
    )


class TestRollupDuplicateCheck:
    """The ``rollup`` family's served-at-most-once check counts once."""

    def test_seeded_duplicate_is_reported_with_its_count(self, clean_report):
        hits = tuple(_hit(-i) for i in range(1, 6)) + (_hit(-3), _hit(-3))
        result = validate_report(replace(clean_report, cache_hits=hits))
        messages = [v.message for v in result.violations if v.invariant == "rollup"]
        assert messages == [
            "query -3 appears 3 times in cache_hits — a query is served at most once"
        ]

    def test_fifty_thousand_distinct_hits_validate_quickly(self, clean_report):
        import time

        hits = tuple(_hit(-i) for i in range(1, 50_001))
        report = replace(clean_report, cache_hits=hits)
        start = time.perf_counter()
        result = validate_report(report)
        elapsed = time.perf_counter() - start
        assert result.ok, result.summary()
        assert "rollup" in result.checked
        # linear in the hit count; the quadratic list.count() version
        # needed ~20 s here (38 s for 68 000 hits, measured by PR 14)
        assert elapsed < 1.0, f"rollup audit took {elapsed:.2f}s for 50 000 hits"


class TestRollupTraceLayer:
    """``validate_rollup(collector=)``: a hit's stream is arrival, cache-hit."""

    @staticmethod
    def traced(hits):
        from repro.sim import TraceCollector

        collector = TraceCollector()
        for hit in hits:
            collector.emit("arrival", hit.submit_time, hit.query_id)
            collector.emit("cache-hit", hit.finish_time, hit.query_id)
        return collector

    def test_twenty_thousand_traced_hits_validate_quickly(self, clean_report):
        import time

        from repro.sim.validate import validate_rollup

        hits = tuple(_hit(-i) for i in range(1, 20_001))
        collector = self.traced(hits)
        start = time.perf_counter()
        result = validate_rollup(
            replace(clean_report, cache_hits=hits), collector=collector
        )
        elapsed = time.perf_counter() - start
        assert result.ok, result.summary()
        # one pass over the events; rescanning them per hit took 12 s
        # for 16 000 hits
        assert elapsed < 2.0, f"trace layer took {elapsed:.2f}s for 20 000 hits"

    def test_hit_that_was_also_estimated_is_reported(self, clean_report):
        from repro.sim.validate import validate_rollup

        hits = tuple(_hit(-i) for i in range(1, 4))
        collector = self.traced(hits)
        collector.emit("estimated", 1.0, -2)
        result = validate_rollup(
            replace(clean_report, cache_hits=hits), collector=collector
        )
        assert [(v.invariant, v.message) for v in result.violations] == [
            (
                "rollup",
                "cache-served query -2 has event stream ('arrival', "
                "'cache-hit', 'estimated') != ('arrival', 'cache-hit')",
            )
        ]


def _one_translated_query_report(gpu_books_pipeline: bool) -> SystemReport:
    """A minimal run: one text query, t_trans=1.0, t_gpu=0.01.

    ``gpu_books_pipeline`` selects between the corrected books (the GPU
    submission starts at the translation finish) and the historical bug
    (the GPU queue booked start=0, T_Q=0.01, while the realised job
    could not start before t=1.0).  The *realised* timeline is legal in
    both cases — only the books differ.
    """
    if gpu_books_pipeline:
        gpu_sub = Submission(
            query_id=1,
            submit_time=0.0,
            estimated_start=1.0,
            estimated_time=0.01,
            earliest_start=1.0,
        )
    else:
        gpu_sub = Submission(
            query_id=1, submit_time=0.0, estimated_start=0.0, estimated_time=0.01
        )
    record = QueryRecord(
        query_id=1,
        query_class="text",
        target="Q_G1",
        submit_time=0.0,
        finish_time=1.01,
        deadline=0.5,
        estimated_time=0.01,
        measured_time=0.01,
        translated=True,
    )
    return SystemReport.from_records(
        [record],
        horizon=1.01,
        timelines={
            "Q_TRANS": ((1, 0.0, 1.0),),
            "Q_G1": ((1, 1.0, 1.01),),
        },
        submissions={
            "Q_TRANS": (
                Submission(
                    query_id=1,
                    submit_time=0.0,
                    estimated_start=0.0,
                    estimated_time=1.0,
                ),
            ),
            "Q_G1": (gpu_sub,),
        },
        capacities={"Q_TRANS": 1, "Q_G1": 1},
        outstanding={"Q_TRANS": 0, "Q_G1": 0},
        exact_estimates=True,
    )


class TestLegacyUnderCount:
    """The checker detects the exact bug this PR fixes."""

    def test_old_books_fail_drift(self):
        report = _one_translated_query_report(gpu_books_pipeline=False)
        result = validate_report(report)
        assert any(
            v.invariant == "drift" and v.queue == "Q_G1"
            for v in result.violations
        ), result.summary()

    def test_corrected_books_pass(self):
        report = _one_translated_query_report(gpu_books_pipeline=True)
        result = validate_report(report)
        assert result.ok, result.summary()
        assert "drift" in result.checked
