"""The query stage stream (repro.core.stages): one table, one order, both planes.

Every view of a run — trace, metrics, spans, SLO, adapt — subscribes to
the same published stages, so what these tests pin is the stream itself:
which stages a query passes through on each plane, that a subscriber is
called only for what it defines, and the ordering facts the views rely
on (trace before adapt, one branch classification per decision).
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.adapt.plane import AdaptivePlane
from repro.adapt.recalibrate import RecalGuards
from repro.core import scheduler as scheduler_module
from repro.core.admission import AdmissionControlScheduler
from repro.core.scheduler import QueryEstimates
from repro.core.stages import NO_SUBSCRIBERS, STAGES, Outcome, Subscribers
from repro.errors import ServeError
from repro.metrics import MetricsRegistry
from repro.obs import SpanTracer
from repro.paper import paper_system_config, paper_workload
from repro.query.model import Condition, Query
from repro.query.workload import ArrivalProcess, TimedQuery
from repro.serve import FakeClock, NullExecutor, ServeEngine
from repro.sim import HybridSystem, TraceCollector
from repro.sim.lifecycle import QueryLifecycle

from tests.serve.conftest import CPU_FAST, GPU_TEXT, FixedEstimator
from tests.serve.test_engine_rollup import make_router

HOPELESS = QueryEstimates(t_cpu=10.0, t_gpu={1: 10.0, 2: 9.0, 4: 8.0})


class StageRecorder:
    """Records, per query, the stages it was announced at.

    Rides in the ``collector`` keyword — the first subscriber of the
    table — so it also answers the two calls a driver makes to its
    collector (``bind`` once, ``sample`` per transition).
    """

    def __init__(self):
        self.seen: dict[int, list[str]] = {}
        #: (query_id, outcome, detail, has_record) per on_outcome
        self.outcomes: list[tuple] = []

    def _note(self, query_id, label):
        self.seen.setdefault(query_id, []).append(label)

    def bind(self, queues, stations):
        pass

    def sample(self, now):
        pass

    def on_arrival(self, query, query_class, now):
        self._note(query.query_id, "arrival")

    def on_cache_hit(self, record, source, seconds, now):
        self._note(record.query_id, "cache_hit")

    def on_submitted(self, query, query_class, now):
        self._note(query.query_id, "submitted")

    def on_estimated(self, query, est, deadline, now):
        self._note(query.query_id, "estimated")

    def on_decision(self, decision, candidates, branch, now):
        self._note(decision.query.query_id, "decision")

    def on_admitted(self, decision, in_flight, now):
        self._note(decision.query.query_id, "admitted")

    def on_stage_start(self, stage, station, query_id, now, waited, service_time):
        self._note(query_id, f"{stage}_start")

    def on_stage_finish(
        self, stage, station, query_id, arrived, started, finished, service_time, error
    ):
        self._note(query_id, f"{stage}_finish")

    def on_feedback(
        self, queue_name, query_id, measured, estimated, applied, stats, now
    ):
        self._note(query_id, "feedback")

    def on_outcome(self, query_id, outcome, record, detail, in_flight, now):
        self._note(query_id, outcome)
        self.outcomes.append((query_id, outcome, detail, record is not None))


@pytest.fixture(scope="module")
def strict_config():
    """Analytic paper system that sheds anything estimated late."""
    return paper_system_config(
        include_32gb=False,
        scheduler_factory=functools.partial(
            AdmissionControlScheduler, lateness_factor=0.0
        ),
    )


def scripted_query(query_id, resolution=3):
    """Resolution 3 is finer than the test catalog's cuboid: a miss;
    resolution 1 is covered: a rollup hit."""
    return Query(
        conditions=(Condition("date", resolution, lo=0, hi=3),),
        measures=("sales_price",),
        query_id=query_id,
    )


def scripted_queries():
    """CPU query, translated GPU query, rollup hit, shed query (ids 1-4)."""
    return [scripted_query(1), scripted_query(2), scripted_query(3, 1), scripted_query(4)]


#: the estimates the three misses draw, in order (the hit draws none)
SCRIPTED_ESTIMATES = (CPU_FAST, GPU_TEXT, HOPELESS)

ADMITTED = ("arrival", "submitted", "estimated", "decision", "admitted")
SERVICE = ("service_start", "service_finish", "feedback", Outcome.SERVED)
EXPECTED = {
    1: [*ADMITTED, *SERVICE],
    2: [*ADMITTED, "translation_start", "translation_finish", "feedback", *SERVICE],
    3: ["arrival", "cache_hit"],
    4: ["arrival", "submitted", "estimated", Outcome.REJECTED],
}


class TestSameStreamOnBothPlanes:
    def test_scripted_queries_pass_the_same_stages(
        self, strict_config, fact_table, small_schema
    ):
        served = StageRecorder()
        engine = ServeEngine(
            strict_config,
            clock=FakeClock(),
            executor=NullExecutor(),
            estimator=FixedEstimator(*SCRIPTED_ESTIMATES),
            rollup=make_router(fact_table, small_schema),
            collector=served,
        ).start()
        try:
            for query in scripted_queries():
                outcome = engine.submit(query)
                if outcome.ticket is not None:
                    assert outcome.ticket.wait(timeout=5.0)
            engine.drain()
        finally:
            engine.stop(finish_queued=False)

        simulated = StageRecorder()
        system = HybridSystem(strict_config)
        system.estimator = FixedEstimator(*SCRIPTED_ESTIMATES)
        system.run(
            [
                TimedQuery(0.5 * i, query, "default")
                for i, query in enumerate(scripted_queries())
            ],
            rollup=make_router(fact_table, small_schema),
            collector=simulated,
        )

        assert served.seen == EXPECTED
        assert simulated.seen == EXPECTED


class FailFor:
    """NullExecutor that raises in translation or service for chosen ids."""

    def __init__(self, translation=(), service=()):
        self.translation, self.service = set(translation), set(service)

    def translate(self, query):
        if query.query_id in self.translation:
            raise RuntimeError("dictionary corrupted (simulated)")
        return query

    def execute(self, target, query):
        if query.query_id in self.service:
            raise RuntimeError("kernel fault (simulated)")
        return None


class TestOneOutcomePerQuery:
    """Every query that reached ``on_submitted`` ends in exactly one
    ``on_outcome``; a cache hit ends in ``on_cache_hit`` and none."""

    def test_every_end_is_one_outcome_on_the_serve_plane(
        self, strict_config, fact_table, small_schema
    ):
        recorder = StageRecorder()
        engine = ServeEngine(
            strict_config,
            clock=FakeClock(),
            executor=FailFor(translation={2}, service={3}),
            # served, failed in translation, failed in service, shed
            estimator=FixedEstimator(CPU_FAST, GPU_TEXT, CPU_FAST, HOPELESS),
            rollup=make_router(fact_table, small_schema),
            collector=recorder,
        ).start()
        try:
            queries = [scripted_query(i) for i in (1, 2, 3)]
            queries += [scripted_query(4, resolution=1), scripted_query(5)]
            for query in queries:
                outcome = engine.submit(query)
                if outcome.ticket is not None:
                    assert outcome.ticket.wait(timeout=5.0)
            with pytest.raises(ServeError, match="2 queries failed"):
                engine.drain()
        finally:
            engine.stop(finish_queued=False)
        assert recorder.seen[4] == ["arrival", "cache_hit"]
        ended = sorted(recorder.outcomes, key=lambda o: o[0])
        assert [(q, o, has_record) for q, o, _, has_record in ended] == [
            (1, Outcome.SERVED, True),
            (2, Outcome.FAILED, False),
            (3, Outcome.FAILED, True),
            (5, Outcome.REJECTED, False),
        ]
        assert [detail for _, _, detail, _ in ended[:3]] == [None, "translation", "service"]
        assert isinstance(ended[3][2], str) and ended[3][2]  # the admission reason
        assert engine.in_flight == 0 and engine.rejected == 1

    def test_every_end_is_one_outcome_on_the_sim_plane(
        self, strict_config, fact_table, small_schema
    ):
        recorder = StageRecorder()
        system = HybridSystem(strict_config)
        system.estimator = FixedEstimator(CPU_FAST, HOPELESS)
        queries = [scripted_query(1), scripted_query(2, resolution=1), scripted_query(3)]
        system.run(
            [TimedQuery(0.5 * i, query, "default") for i, query in enumerate(queries)],
            rollup=make_router(fact_table, small_schema),
            collector=recorder,
        )
        assert recorder.seen[2] == ["arrival", "cache_hit"]
        assert [(q, o) for q, o, _, _ in recorder.outcomes] == [
            (1, Outcome.SERVED),
            (3, Outcome.REJECTED),
        ]

    def test_a_failed_stage_is_one_outcome_on_the_core(self):
        """The simulated driver never reports a stage error (an executor
        exception ends the run), so the core's FAILED books are pinned
        under a stub driver that reports one per stage."""
        recorder = StageRecorder()

        def run_stage(stage, station, decision, resolved, done):
            failing = {1: "translation", 2: "service"}[decision.query.query_id]
            done(0.02, 1.5, None, RuntimeError(stage) if stage == failing else None)

        core = QueryLifecycle(
            paper_system_config(include_32gb=False),
            FixedEstimator(GPU_TEXT, CPU_FAST),
            now_fn=lambda: 0.0,
            root_span="test.query",
            run_stage=run_stage,
            collector=recorder,
        )
        queries = [Query(conditions=(), measures=("v",), query_id=i) for i in (1, 2)]
        for query in queries:
            assert core.arrive(query, "default", 1.0) is None
        core.decide([(q, "default") for q in queries], 1.0, dispatch=core.start)
        assert recorder.outcomes == [
            (1, Outcome.FAILED, "translation", False),
            (2, Outcome.FAILED, "service", True),
        ]
        assert core.in_flight == 0 and [qid for qid, _ in core.errors] == [1, 2]

    def test_a_sim_executor_failure_still_ends_the_run(self, strict_config):
        recorder = StageRecorder()
        system = HybridSystem(strict_config)
        system.estimator = FixedEstimator(CPU_FAST)
        system.executor = FailFor(service={1})
        with pytest.raises(RuntimeError, match="kernel fault"):
            system.run([TimedQuery(0.0, scripted_query(1), "default")], collector=recorder)
        assert recorder.outcomes == []

    def test_stop_abandons_a_queued_query_once(self, strict_config):
        recorder = StageRecorder()
        tracer = SpanTracer(1.0, seed=3)
        # never started: the admitted query stays queued until stop()
        engine = ServeEngine(
            strict_config,
            clock=FakeClock(),
            executor=NullExecutor(),
            estimator=FixedEstimator(CPU_FAST),
            collector=recorder,
            spans=tracer,
        )
        ticket = engine.submit(scripted_query(1)).ticket
        engine.stop(finish_queued=False)
        engine.stop(finish_queued=False)  # a second stop ends nothing again
        assert recorder.outcomes == [(1, Outcome.ABANDONED, None, False)]
        assert ticket.outcome is Outcome.ABANDONED
        assert not ticket.wait(timeout=0.0) and not ticket.done
        assert engine.in_flight == 1  # still admitted, never finished
        (root,) = [s for s in tracer.spans() if s.parent_id is None]
        assert (root.query_id, root.status) == (1, "abandoned")
        assert tracer.open_count() == 0


class TestSubscribersTable:
    def test_empty_table_has_an_empty_tuple_per_stage(self):
        assert len(STAGES) == len(set(STAGES)) == 13
        for table in (NO_SUBSCRIBERS, Subscribers(), Subscribers(None, None)):
            assert all(getattr(table, stage) == () for stage in STAGES)

    def test_subscriber_is_called_only_for_stages_it_defines(self, strict_config):
        class OnlyOutcome:
            """Rides in the ``collector`` keyword, hence bind/sample."""

            def __init__(self):
                self.calls = []

            def on_outcome(self, *args):
                self.calls.append(args)

            def bind(self, queues, stations):
                pass

            def sample(self, now):
                pass

        only = OnlyOutcome()
        table = Subscribers(None, only)
        assert table.on_outcome == (only.on_outcome,)
        assert all(
            getattr(table, stage) == () for stage in STAGES if stage != "on_outcome"
        )

        # attached to a real run, it hears exactly that stage
        system = HybridSystem(strict_config)
        system.estimator = FixedEstimator(CPU_FAST)
        system.run([TimedQuery(0.0, scripted_queries()[0], "default")], collector=only)
        ((query_id, outcome, record, detail, in_flight, now),) = only.calls
        assert (query_id, outcome, record.query_id, detail, in_flight) == (
            1,
            Outcome.SERVED,
            1,
            None,
            0,
        )
        assert record.met_deadline
        assert now == record.finish_time

    def test_subscribers_keep_the_order_they_were_given(self):
        class Named:
            def __init__(self, name, log):
                self.name, self.log = name, log

            def on_epoch(self, epoch, now):
                self.log.append(self.name)

        log = []
        table = Subscribers(Named("trace", log), None, Named("adapt", log))
        for publish in table.on_epoch:
            publish(3, 0.0)
        assert log == ["trace", "adapt"]


class TestOrderPins:
    def test_model_epoch_follows_the_feedback_that_triggered_it(self):
        """Adapt is the last subscriber: the trace has booked a feedback
        stage before the refit it triggers announces its epoch."""
        config = paper_system_config(
            include_32gb=False, time_constraint=0.35, noise_sigma=0.3, seed=2012
        )
        stream = paper_workload(include_32gb=False, text_prob=0.2, seed=5).generate(
            160, ArrivalProcess("uniform", rate=80.0)
        )
        guards = RecalGuards(
            min_samples=8, min_r2=0.0, max_step=0.5, refit_interval=8, window=64
        )
        collector = TraceCollector()
        HybridSystem(config).run(
            stream,
            collector=collector,
            adapt=AdaptivePlane(target=0.9, window=1.0, guards=guards),
        )
        events = collector.events
        refits = [
            i
            for i, event in enumerate(events)
            if event.kind == "model_epoch" and event.data["version"] > 0
        ]
        assert refits, "no refit epoch was installed: the pin is vacuous"
        for i in refits:
            assert events[i - 1].kind == "feedback"

    def test_branch_is_classified_once_per_decision(self, monkeypatch):
        """Trace, metrics and spans all report the branch; it is
        computed once, in the fold, and handed to the three of them."""
        calls = []
        original = scheduler_module.classify_branch

        def counting(candidates, deadline, target):
            calls.append(target.name)
            return original(candidates, deadline, target)

        monkeypatch.setattr(scheduler_module, "classify_branch", counting)
        collector = TraceCollector()
        registry = MetricsRegistry()
        tracer = SpanTracer(1.0, seed=3)
        config = paper_system_config(include_32gb=False)
        report = HybridSystem(config).run(
            paper_workload(include_32gb=False, seed=9).generate(40),
            collector=collector,
            metrics=registry,
            spans=tracer,
        )
        decisions = [e for e in collector.events if e.kind == "decision"]
        assert len(decisions) == len(report.records) == len(calls) == 40
        # and the three views agree on what it was
        by_branch: dict[str, int] = {}
        for event in decisions:
            by_branch[event.data["branch"]] = by_branch.get(event.data["branch"], 0) + 1
        snapshot = registry.collect(report.horizon)
        family = snapshot.family("repro_scheduler_decisions_total")
        assert {branch: int(value) for (branch,), value in family.items()} == by_branch
        spans = [s for s in tracer.spans() if s.name == "scheduler.decision"]
        assert [s.attributes["branch"] for s in spans] == [
            e.data["branch"] for e in decisions
        ]


class TestSpanMetricsOnTheStream:
    def test_span_families_equal_the_tracer_totals(self):
        """``ObsMetrics`` follows the span view on the stream: after a
        run that fills and overflows the buffer mid-trace, the registry
        holds exactly the tracer's totals (the run's spans audit passes:
        an overflow keeps every recorded child's root)."""
        registry = MetricsRegistry()
        tracer = SpanTracer(0.5, seed=3, max_spans=25)
        HybridSystem(paper_system_config(include_32gb=False)).run(
            paper_workload(include_32gb=False, text_prob=0.4, seed=9).generate(40),
            metrics=registry,
            spans=tracer,
        )
        assert tracer.dropped > 0 and tracer.seen > tracer.sampled_count > 0
        assert tracer.recorded == len(tracer.spans()) == 25
        snapshot = registry.collect()
        sampled = snapshot.family("repro_span_traces_sampled_total")
        assert snapshot.value("repro_spans_recorded_total") == tracer.recorded
        assert snapshot.value("repro_spans_dropped_total") == tracer.dropped
        assert dict(sampled.items()) == {
            ("sampled",): tracer.sampled_count,
            ("unsampled",): tracer.seen - tracer.sampled_count,
        }


def feedback_calls(gain):
    """One CPU query through a lifecycle whose stub driver finishes a
    stage the moment it is handed over; returns the on_feedback calls."""

    class Recorder:
        def __init__(self):
            self.calls = []

        def on_feedback(self, *args):
            self.calls.append(args)

    def run_stage(stage, station, decision, resolved, done):
        done(0.02, 1.5, None, None)  # measured 20 ms, finished at t=1.5

    recorder = Recorder()
    core = QueryLifecycle(
        replace(paper_system_config(include_32gb=False), feedback_gain=gain),
        FixedEstimator(CPU_FAST),  # estimates 10 ms on the CPU
        now_fn=lambda: 0.0,
        root_span="test.query",
        run_stage=run_stage,
        collector=recorder,
    )
    query = Query(conditions=(), measures=("v",), query_id=7)
    assert core.arrive(query, "default", 1.0) is None
    core.decide([(query, "default")], 1.0, dispatch=core.start)
    return recorder.calls


class TestFeedbackStage:
    """``on_feedback``, published by the lifecycle for the
    :class:`~repro.core.feedback.FeedbackController` it drives."""

    def test_feedback_carries_applied_delta_stats_and_instant(self):
        ((name, query_id, measured, estimated, applied, stats, now),) = feedback_calls(
            gain=0.5
        )
        assert (name, query_id, measured, estimated) == ("Q_CPU", 7, 0.02, 0.01)
        assert np.isclose(applied, 0.005)  # gain-damped, the delta actually booked
        assert stats.count == 1
        assert np.isclose(stats.bias_ratio, 2.0)
        assert now == 1.5  # the stage's finish instant, not a clock read

    def test_zero_gain_reports_zero_applied(self):
        ((_, _, _, _, applied, stats, _),) = feedback_calls(gain=0.0)
        assert applied == 0.0
        assert stats.count == 1  # statistics record even when no correction

    def test_no_subscriber_by_default(self):
        core = QueryLifecycle(
            paper_system_config(include_32gb=False),
            FixedEstimator(CPU_FAST),
            now_fn=lambda: 0.0,
            root_span="test.query",
            run_stage=lambda stage, station, decision, resolved, done: done(
                0.02, 1.5, None, None
            ),
        )
        assert core.scheduler.subscribers is core.subscribers
        assert all(getattr(core.subscribers, stage) == () for stage in STAGES)
        query = Query(conditions=(), measures=("v",))
        core.decide([(query, "default")], 1.0, dispatch=core.start)
        assert core.feedback.stats("Q_CPU").count == 1  # completes unobserved
