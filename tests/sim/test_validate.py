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
    audit,
    seed_violation,
    validate_fleet,
)

from tests.serve.conftest import undrained_report

#: the families a report carries alone, each seeded by a kind of its name
BOOKS = ("dependency", "discipline", "conservation", "drift", "rollup")


@pytest.fixture(scope="module")
def clean_report():
    """One deterministic paper-scale run with plenty of text queries."""
    config = paper_system_config(include_32gb=False)
    stream = paper_workload(text_prob=0.4, seed=7).generate(150)
    return HybridSystem(config).run(stream)


class TestCleanRuns:
    def test_clean_run_passes(self, clean_report):
        result = audit(clean_report)
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
        result = audit(report)
        assert result.ok, result.summary()
        assert "drift" not in result.checked
        assert "dependency" in result.checked

    def test_parallel_workers_disable_drift_only(self):
        config = replace(
            paper_system_config(include_32gb=False), translation_workers=4
        )
        stream = paper_workload(text_prob=0.4, seed=13).generate(80)
        report = HybridSystem(config).run(stream)
        result = audit(report)
        assert result.ok, result.summary()
        assert "drift" not in result.checked

    def test_truncated_run_conserves_jobs(self):
        # a serving engine read before drain(): accepted work is still
        # in flight, and the books balance around it
        report = undrained_report(served=12, held=9)
        assert report.completed == 12
        assert sum(report.outstanding.values()) > 0
        result = audit(report)
        assert "conservation" in result.checked
        assert result.ok, result.summary()
        assert not audit(report, require_drained=True).ok


class TestSeededViolations:
    @pytest.mark.parametrize("kind", BOOKS)
    def test_each_corruption_is_caught(self, clean_report, kind):
        corrupted = seed_violation(clean_report, kind)
        result = audit(corrupted)
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
        result = audit(replace(clean_report, cache_hits=hits))
        messages = [v.message for v in result.violations if v.invariant == "rollup"]
        assert messages == [
            "query -3 appears 3 times in cache_hits — a query is served at most once"
        ]

    def test_fifty_thousand_distinct_hits_validate_quickly(self, clean_report):
        import time

        hits = tuple(_hit(-i) for i in range(1, 50_001))
        report = replace(clean_report, cache_hits=hits)
        start = time.perf_counter()
        result = audit(report)
        elapsed = time.perf_counter() - start
        assert result.ok, result.summary()
        assert "rollup" in result.checked
        # linear in the hit count; the quadratic list.count() version
        # needed ~20 s here (38 s for 68 000 hits, measured by PR 14)
        assert elapsed < 1.0, f"rollup audit took {elapsed:.2f}s for 50 000 hits"


def rollup_violations(result):
    return [(v.invariant, v.message) for v in result.violations if v.invariant == "rollup"]


class TestRollupTraceLayer:
    """``audit(collector=)``'s rollup layer: a hit's stream is arrival,
    cache-hit.  The hand-built collector holds the hits' events alone,
    so only the ``rollup`` family's verdict is read."""

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

        hits = tuple(_hit(-i) for i in range(1, 20_001))
        collector = self.traced(hits)
        start = time.perf_counter()
        result = audit(replace(clean_report, cache_hits=hits), collector=collector)
        elapsed = time.perf_counter() - start
        assert "rollup" in result.checked
        assert rollup_violations(result) == [], result.summary()
        # one pass over the events; rescanning them per hit took 12 s
        # for 16 000 hits
        assert elapsed < 2.0, f"trace layer took {elapsed:.2f}s for 20 000 hits"

    def test_hit_that_was_also_estimated_is_reported(self, clean_report):
        hits = tuple(_hit(-i) for i in range(1, 4))
        collector = self.traced(hits)
        collector.emit("estimated", 1.0, -2)
        result = audit(replace(clean_report, cache_hits=hits), collector=collector)
        assert rollup_violations(result) == [
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
        result = audit(report)
        assert any(
            v.invariant == "drift" and v.queue == "Q_G1"
            for v in result.violations
        ), result.summary()

    def test_corrected_books_pass(self):
        report = _one_translated_query_report(gpu_books_pipeline=True)
        result = audit(report)
        assert result.ok, result.summary()
        assert "drift" in result.checked


def _empty_adapt_report():
    from repro.adapt import AdaptReport, ControllerLimits, RecalGuards

    return AdaptReport(
        target=0.9,
        guards=RecalGuards(),
        limits=ControllerLimits(),
        epochs=(),
        reconfigs=(),
        decisions_by_epoch={},
        total_decisions=0,
        samples_ingested=0,
        poisoned=0,
    )


def _empty_subjects():
    """Per subject: the families seeded on it, its audit, a subject with
    nothing in it."""
    from repro.fleet.fleet import FleetReport
    from repro.metrics.registry import MetricsSnapshot
    from repro.sim import TraceCollector

    no_metrics = MetricsSnapshot(time=0.0, families=())
    report = SystemReport.from_records([])
    return {
        "report": (BOOKS, audit, report),
        "trace": (
            ("trace",),
            lambda collector: audit(report, collector=collector),
            TraceCollector(),
        ),
        "metrics": (
            ("metrics",),
            lambda snapshot: audit(report, snapshot=snapshot),
            no_metrics,
        ),
        "fleet": (
            ("fleet",),
            validate_fleet,
            FleetReport(shards=(), crashed=(), routed={}, failed={}, merged=no_metrics),
        ),
        "adapt": (("adapt",), lambda adapt: audit(adapt=adapt), _empty_adapt_report()),
        "spans": (("spans",), lambda spans: audit(spans=spans), ()),
    }


class TestSeedingAnEmptySubject:
    """A corruptor with no victim says so with ``InvariantViolation`` —
    never a bare ``ValueError`` / ``IndexError`` / ``StopIteration``."""

    def test_the_table_holds_every_arm(self):
        assert {family: len(kinds) for family, kinds in SEEDABLE_VIOLATIONS.items()} == {
            "dependency": 1,
            "discipline": 1,
            "conservation": 1,
            "drift": 1,
            "rollup": 1,
            "trace": 3,
            "metrics": 5,
            "spans": 7,
            "adapt": 5,
            "fleet": 3,
        }
        seeded = [family for families, _, _ in _empty_subjects().values() for family in families]
        assert sorted(seeded) == sorted(SEEDABLE_VIOLATIONS)
        kinds = [kind for kinds in SEEDABLE_VIOLATIONS.values() for kind in kinds]
        assert len(set(kinds)) == len(kinds) == 28

    @pytest.mark.parametrize(
        "subject, kind",
        [
            (subject, kind)
            for subject, (families, _, _) in _empty_subjects().items()
            for family in families
            for kind in SEEDABLE_VIOLATIONS[family]
        ],
    )
    def test_every_arm_refuses_or_fires(self, subject, kind):
        _, check, empty = _empty_subjects()[subject]
        try:
            corrupted = seed_violation(empty, kind)
        except InvariantViolation as exc:
            assert "cannot seed" in str(exc)
        else:
            # an arm that needs no victim (a bumped total) must still fire
            assert not check(corrupted).ok

    def test_drift_on_a_run_that_served_nothing(self):
        """The parent died here with ``max() arg is an empty sequence``."""
        report = HybridSystem(paper_system_config(include_32gb=False)).run(
            paper_workload(seed=3).generate(0)
        )
        with pytest.raises(InvariantViolation, match="cannot seed 'drift'"):
            seed_violation(report, "drift")


SPAN_SEED = 2012


@pytest.fixture(scope="module")
def full_run(dataset, pyramid, translator, small_schema):
    """One traced, metered, span-sampled, rollup-fronted simulated run:
    every artifact :func:`audit` takes, as its keyword arguments."""
    from repro.core.perfmodel import XEON_X5667_8T
    from repro.gpu import SimulatedGPU
    from repro.gpu.partitioning import paper_partition_scheme
    from repro.gpu.timing import TESLA_C2070_TIMING
    from repro.metrics import MetricsRegistry
    from repro.obs import SpanTracer
    from repro.olap import AdmissionPolicy, CuboidSpec, RollupCatalog, RollupRouter
    from repro.query.workload import QueryClass, WorkloadSpec
    from repro.sim import SystemConfig, TraceCollector
    from repro.units import GB

    fact_table = dataset.table
    device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    device.load_table(fact_table)
    config = SystemConfig(
        cpu_model=XEON_X5667_8T.with_overhead(0.002),
        pyramid=pyramid,
        device=device,
        scheme=paper_partition_scheme(),
        translation_service=translator,
        time_constraint=0.5,
    )
    # half the stream is covered by the resolution-1 cuboid; the other
    # half is too fine for it, and half of that needs translating
    names = tuple(d.name for d in small_schema.dimensions)
    catalog = RollupCatalog(fact_table, "sales_price")
    catalog.materialise_and_install(CuboidSpec(dims=names, resolutions=(1,) * len(names)))
    stream = WorkloadSpec(
        small_schema.dimensions,
        [
            QueryClass("small", 0.5, resolution=1, coverage=(0.1, 0.6)),
            QueryClass("fine", 0.5, resolution=2, coverage=(0.1, 0.6), text_prob=0.5),
        ],
        measures=("sales_price",),
        text_levels=list(small_schema.text_levels),
        vocabularies=dataset.vocabularies,
        seed=11,
    ).generate(80)
    collector, registry = TraceCollector(), MetricsRegistry()
    tracer = SpanTracer(1.0, seed=SPAN_SEED, process="sim")
    report = HybridSystem(config).run(
        stream,
        collector=collector,
        metrics=registry,
        rollup=RollupRouter(catalog, policy=AdmissionPolicy(byte_budget=1 << 30)),
        spans=tracer,
    )
    assert report.cache_hits and any(r.translated for r in report.records)
    return dict(
        report=report,
        collector=collector,
        snapshot=registry.collect(),
        spans=tracer.spans(),
        seed=SPAN_SEED,
        sample_rate=1.0,
        submitted=[tq.query.query_id for tq in stream],
    )


def _with_a_phantom_rejection(collector):
    from repro.sim import TraceCollector

    corrupted = TraceCollector()
    for event in collector.events:
        corrupted.emit(event.kind, event.time, event.query_id, **event.data)
    corrupted.emit("rejected", 0.0, 10_000_001)
    return corrupted


class TestAudit:
    """The one entry point runs every family it was handed an artifact for."""

    def test_books_alone_equal_validate_report(self, clean_report):
        # a report alone owes the books families and nothing else
        for require_drained in (False, True):
            result = audit(clean_report, require_drained=require_drained)
            assert result.ok, result.summary()
            assert result.checked == ("dependency", "discipline", "conservation", "drift")

    def test_every_artifact_of_one_run_is_audited_and_named(self, full_run):
        result = audit(require_drained=True, **full_run)
        assert result.ok, result.summary()
        assert result.checked == (
            "dependency",
            "discipline",
            "conservation",
            "drift",
            "rollup",
            "trace",
            "metrics",
            "spans",
        )
        assert result.summary() == f"ok ({', '.join(result.checked)} checked)"

    @pytest.mark.parametrize(
        "artifact, corrupt, family",
        [
            ("report", lambda r: seed_violation(r, "rollup"), "rollup"),
            ("collector", _with_a_phantom_rejection, "trace"),
            ("snapshot", lambda s: seed_violation(s, "completed"), "metrics"),
            ("spans", lambda s: seed_violation(s, "inverted"), "spans"),
        ],
    )
    def test_one_corrupted_artifact_fails_exactly_its_family(
        self, full_run, artifact, corrupt, family
    ):
        result = audit(**{**full_run, artifact: corrupt(full_run[artifact])})
        assert {v.invariant for v in result.violations} == {family}, result.summary()
        with pytest.raises(InvariantViolation, match=family):
            result.raise_if_bad()

    @pytest.mark.parametrize("kind", BOOKS)
    def test_a_corrupted_report_fails_at_least_its_family(self, full_run, kind):
        # the other artifacts are reconciled *with* the report, so a
        # broken book may drag their families down with it
        result = audit(**{**full_run, "report": seed_violation(full_run["report"], kind)})
        assert kind in {v.invariant for v in result.violations}, result.summary()

    def test_an_adapt_history_is_audited_when_handed_over(self, clean_report):
        healthy = _empty_adapt_report()
        assert audit(clean_report, adapt=healthy).checked[-1] == "adapt"
        result = audit(clean_report, adapt=seed_violation(healthy, "decision-books"))
        assert {v.invariant for v in result.violations} == {"adapt"}

    def test_a_report_is_needed_only_by_what_reconciles_with_one(self, full_run):
        for artifact in ("collector", "snapshot"):
            with pytest.raises(TypeError, match="report"):
                audit(**{artifact: full_run[artifact]})
        with pytest.raises(TypeError):
            audit()  # nothing to audit is not a pass
        assert audit(spans=full_run["spans"]).checked == ("spans",)
        assert audit(adapt=_empty_adapt_report()).checked == ("adapt",)

    def test_sampling_context_is_all_or_nothing(self, full_run):
        partial = {**full_run, "submitted": None}
        spans = seed_violation(full_run["spans"], "unsampled")
        assert audit(**{**partial, "spans": spans}).ok
        assert not audit(**{**full_run, "spans": spans}).ok


class TestTheSuiteWideAudit:
    """``tests/conftest.py`` audits every artifact a run was handed
    (the parent audited the books, adapt and spans only)."""

    @staticmethod
    def run(**attachments):
        config = paper_system_config(include_32gb=False)
        stream = paper_workload(text_prob=0.4, seed=7).generate(30)
        return HybridSystem(config).run(stream, **attachments)

    def test_a_trace_that_disagrees_with_the_books_fails_the_run(self):
        from repro.sim import TraceCollector

        class Forgetful(TraceCollector):
            def on_feedback(self, *args, **kwargs) -> None:
                pass

        assert self.run(collector=TraceCollector()).completed == 30
        with pytest.raises(InvariantViolation, match=r"\[trace\]"):
            self.run(collector=Forgetful())

    def test_a_registry_that_disagrees_with_the_books_fails_the_run(self):
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        assert self.run(metrics=registry).completed == 30
        # a second run into the same registry: its counters now hold two
        # runs' worth against one run's books
        with pytest.raises(InvariantViolation, match=r"\[metrics\]"):
            self.run(metrics=registry)
