"""Adapters between the runtime's observation points and a :class:`SpanTracer`.

:class:`QuerySpans` is the span view of the query stage stream: one
subscriber in the run's ``repro.core.stages.Subscribers`` table, fed by
the same calls in the same order as the lifecycle trace and the metrics
— a rollup hit included, whose source cuboid and projection time arrive
as arguments of ``on_cache_hit``.  It holds no state beyond the tracer
reference, so attaching it changes nothing about scheduling — the
discipline of :mod:`repro.metrics.instrument`.

``repro.obs`` stays import-pure (stdlib only): subscribers are
duck-typed, and domain knowledge — the Figure-10 branch name — arrives
as an argument of the stage, never by import.
"""

from __future__ import annotations

from typing import Any

from .span import SpanTracer

__all__ = ["QuerySpans"]


class QuerySpans:
    """One query's span tree, grown from the stage stream.

    ``on_submitted`` opens the ``root_name`` root (head-sampling decides
    there; every later call for an unsampled query no-ops inside the
    tracer) and ``on_outcome`` closes it, with the outcome's value
    (``repro.core.stages.Outcome``) as its status.  The
    scheduler's stages are point spans (zero duration at the scheduling
    instant — its own compute time is part of the admission stage, not a
    queue); each finished stage books ``queue.wait`` ``[arrived,
    started]`` and ``pool.service`` ``[started, finished]`` on its
    station's track.  A cache hit is a complete trace by itself:
    ``on_cache_hit`` opens the root, records ``rollup.hit`` and closes
    the root with ``branch="cache-hit"`` — all ``[now, now]`` in the
    driver's clock domain (the hit's zero-cost record), the real
    projection time riding along as the ``seconds`` attribute.
    """

    def __init__(self, tracer: SpanTracer, root_name: str):
        self.tracer = tracer
        self.root_name = str(root_name)

    def on_cache_hit(self, record, source, seconds, now) -> None:
        query_id = record.query_id
        if self.tracer.open(query_id, self.root_name, start=now) is None:
            return
        self.tracer.record(
            query_id, "rollup.hit", now, now, track="rollup", source=source, seconds=seconds
        )
        self.tracer.close(query_id, end=now, status="ok", branch="cache-hit")

    def on_submitted(self, query, query_class, now) -> None:
        self.tracer.open(
            query.query_id, self.root_name, start=now, query_class=query_class
        )

    def on_estimated(self, query: Any, est: Any, deadline: float, now: float) -> None:
        attrs: dict[str, Any] = {
            "deadline": deadline,
            "gpu_classes": len(est.t_gpu),
            "needs_translation": bool(est.t_trans > 0.0),
        }
        if est.t_cpu is not None:
            attrs["t_cpu"] = est.t_cpu
        self.tracer.record(
            query.query_id,
            "scheduler.estimate",
            now,
            now,
            track="scheduler",
            **attrs,
        )

    def on_decision(
        self, decision: Any, candidates: Any, branch: str, now: float
    ) -> None:
        query_id = decision.query.query_id
        target = decision.target.name
        self.tracer.record(
            query_id,
            "scheduler.decision",
            now,
            now,
            track="scheduler",
            target=target,
            candidates=len(candidates),
            estimated_response=decision.estimated_response,
            meets_deadline=decision.meets_deadline,
            branch=branch,
        )
        # the root carries the decision too, so a stitched fleet view
        # can attribute the trace without descending into point spans
        self.tracer.annotate(
            query_id, target=target, candidates=len(candidates), branch=branch
        )

    def on_stage_finish(
        self, stage, station, query_id, arrived, started, finished, service_time, error
    ) -> None:
        self.tracer.record(query_id, "queue.wait", arrived, started, track=station)
        self.tracer.record(
            query_id,
            "pool.service",
            started,
            finished,
            track=station,
            status="error" if error is not None else "ok",
            pool=station,
        )

    def on_outcome(self, query_id, outcome, record, detail, in_flight, now) -> None:
        status = outcome.value
        if record is not None:  # it reached its partition: a deadline to carry
            met = status == "ok" and record.met_deadline
            self.tracer.close(query_id, end=now, status=status, met_deadline=met)
        elif status == "error":  # failed in translation
            self.tracer.close(query_id, end=now, status=status, stage=detail)
        else:  # rejected, or abandoned by a stopped engine
            self.tracer.close(query_id, end=now, status=status)
