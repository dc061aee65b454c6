"""Span tracing through the wall-clock serving engine.

The engine binds the tracer to its injected clock, so every timestamp
below lives in the FakeClock domain and the span↔books cross-checks
are exact, not approximate.
"""

import pytest

from repro.metrics import MetricsRegistry
from repro.obs import SpanTracer
from repro.sim import TraceCollector
from repro.sim.validate import assert_valid, audit

from tests.serve.conftest import CPU_FAST, GPU_TEXT, make_query
from tests.serve.test_engine import GatedExecutor

SEED = 77


def make_tracer(rate=1.0):
    return SpanTracer(rate, seed=SEED, process="serve")


class TestServeSpans:
    def test_cpu_query_leaves_a_full_tree(self, make_engine):
        tracer = make_tracer()
        collector = TraceCollector()
        engine = make_engine(
            CPU_FAST, spans=tracer, collector=collector
        ).start()
        outcome = engine.submit(make_query(), query_class="small")
        assert outcome.accepted
        engine.drain()
        report = engine.report()
        qid = report.records[0].query_id
        spans = tracer.spans()
        assert_valid(report, spans=spans, seed=SEED, sample_rate=1.0, submitted=[qid])
        by_name = {s.name: s for s in spans}
        root = by_name["serve.query"]
        assert root.parent_id is None and root.status == "ok"
        assert root.attributes["query_class"] == "small"
        assert root.attributes["branch"] == "step5-cpu"
        assert root.attributes["target"] == "Q_CPU"
        assert root.attributes["met_deadline"] is True
        for stage in (
            "scheduler.estimate",
            "scheduler.decision",
            "queue.wait",
            "pool.service",
        ):
            assert by_name[stage].parent_id == root.span_id
        assert by_name["pool.service"].attributes["pool"] == "Q_CPU"
        assert by_name["pool.service"].track == "Q_CPU"

    def test_translated_query_spans_the_translation_pool(self, make_engine):
        tracer = make_tracer()
        engine = make_engine(GPU_TEXT, spans=tracer).start()
        outcome = engine.submit(make_query())
        assert outcome.decision.translation is not None
        engine.drain()
        spans = tracer.spans()
        assert_valid(engine.report(), spans=spans)
        services = [s for s in spans if s.name == "pool.service"]
        pools = {s.attributes["pool"] for s in services}
        assert "Q_TRANS" in pools
        assert any(p.startswith("Q_G") for p in pools - {"Q_TRANS"})
        # the translation stage precedes the processing stage
        trans = next(s for s in services if s.attributes["pool"] == "Q_TRANS")
        work = next(s for s in services if s.attributes["pool"] != "Q_TRANS")
        assert trans.end <= work.start

    def test_rate_zero_records_nothing(self, make_engine):
        tracer = make_tracer(rate=0.0)
        engine = make_engine(CPU_FAST, spans=tracer).start()
        engine.submit(make_query())
        engine.drain()
        assert len(tracer) == 0
        assert tracer.seen == 1 and tracer.sampled_count == 0
        # the report itself is unaffected by the disabled tracer
        assert engine.report().completed == 1

    def test_rejected_query_closes_its_root_rejected(
        self, strict_config, make_engine
    ):
        from repro.core.scheduler import QueryEstimates

        tracer = make_tracer()
        hopeless = QueryEstimates(t_cpu=10.0, t_gpu={1: 10.0, 2: 9.0, 4: 8.0})
        engine = make_engine(
            hopeless, config=strict_config, spans=tracer
        ).start()
        outcome = engine.submit(make_query())
        assert not outcome.accepted
        engine.drain()
        spans = tracer.spans()
        assert_valid(engine.report(), spans=spans)
        root = next(s for s in spans if s.parent_id is None)
        assert root.status == "rejected"
        assert root.end == root.start  # rejected in the admission step
        names = {s.name for s in spans}
        assert "scheduler.estimate" in names
        assert "pool.service" not in names

    def test_stop_abandons_open_roots(self, make_engine):
        tracer = make_tracer()
        # never started: the admitted task sits queued forever, so its
        # root span is still open when stop() tears the pools down
        engine = make_engine(CPU_FAST, spans=tracer)
        assert engine.submit(make_query()).accepted
        engine.stop(finish_queued=False)
        spans = tracer.spans()
        root = next(s for s in spans if s.parent_id is None)
        assert root.status == "abandoned"
        assert audit(spans=spans).ok

    def test_in_flight_root_survives_the_gate(self, make_engine):
        executor = GatedExecutor()
        tracer = make_tracer()
        engine = make_engine(
            CPU_FAST, executor=executor, spans=tracer
        ).start()
        engine.submit(make_query())
        # while the executor holds the gate, the root is open
        assert tracer.open_count() == 1
        executor.gate.set()
        engine.drain()
        assert tracer.open_count() == 0
        root = next(s for s in tracer.spans() if s.parent_id is None)
        assert root.status == "ok"


def span_families(registry):
    """The three span families of a registry, as plain numbers."""
    snapshot = registry.collect()
    return {
        "recorded": snapshot.value("repro_spans_recorded_total"),
        "dropped": snapshot.value("repro_spans_dropped_total"),
        "sampled": snapshot.value("repro_span_traces_sampled_total", outcome="sampled"),
        "unsampled": snapshot.value(
            "repro_span_traces_sampled_total", outcome="unsampled"
        ),
    }


def tracer_totals(tracer):
    return {
        "recorded": tracer.recorded,
        "dropped": tracer.dropped,
        "sampled": tracer.sampled_count,
        "unsampled": tracer.seen - tracer.sampled_count,
    }


class TestSpanMetrics:
    """``ObsMetrics`` is a subscriber behind the span view, reading the
    tracer's own totals; the tracer holds no metrics slot."""

    def test_families_equal_the_tracer_totals(self, make_engine):
        registry = MetricsRegistry()
        tracer = SpanTracer(0.5, seed=SEED, process="serve", max_spans=12)
        engine = make_engine(
            CPU_FAST, GPU_TEXT, spans=tracer, metrics=registry
        ).start()
        for _ in range(20):
            engine.submit(make_query())
        engine.drain()
        totals = tracer_totals(tracer)
        assert totals["dropped"] > 0 and totals["unsampled"] > 0
        assert totals["recorded"] == len(tracer.spans()) == 12
        assert span_families(registry) == totals

    def test_stop_counts_the_abandoned_roots(self, make_engine):
        registry = MetricsRegistry()
        tracer = make_tracer()
        engine = make_engine(CPU_FAST, spans=tracer, metrics=registry)
        assert engine.submit(make_query()).accepted  # never started
        before = span_families(registry)["recorded"]
        engine.stop(finish_queued=False)
        assert span_families(registry)["recorded"] == before + 1
        assert span_families(registry) == tracer_totals(tracer)

    def test_a_second_engine_leaves_the_first_counting(self, make_engine):
        """Each run's registry reads the tracer from where it stood when
        the run was built; building another engine over the same tracer
        takes nothing away from the first."""
        first, second = MetricsRegistry(), MetricsRegistry()
        tracer = make_tracer()
        engine = make_engine(CPU_FAST, spans=tracer, metrics=first).start()
        make_engine(CPU_FAST, spans=tracer, metrics=second)
        engine.submit(make_query())
        engine.drain()
        assert span_families(first)["recorded"] == len(tracer.spans()) > 0
        assert span_families(second)["recorded"] == 0


class TestSpansAreReadOnly:
    def test_report_identical_with_and_without_tracer(self, make_engine):
        def run(tracer):
            engine = make_engine(
                CPU_FAST, GPU_TEXT, spans=tracer
            ).start()
            for _ in range(4):
                engine.submit(make_query())
            engine.drain()
            report = engine.report()
            # query ids are a process-global counter and completion
            # order is wall-clock, so compare the outcome multiset
            return sorted((r.target, r.translated) for r in report.records)

        assert run(make_tracer()) == run(None)


@pytest.fixture()
def strict_config(serve_config):
    import functools
    from dataclasses import replace

    from repro.core.admission import AdmissionControlScheduler

    return replace(
        serve_config,
        scheduler_factory=functools.partial(
            AdmissionControlScheduler, lateness_factor=0.0
        ),
    )
