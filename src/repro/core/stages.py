"""The query stage stream: one list of stages, one subscriber table.

Every stage of a query's life is announced at exactly one site — the
Figure-10 ``schedule`` of :class:`~repro.core.scheduler.BaseScheduler` and the
arrival, decision and completion halves of
:class:`~repro.sim.lifecycle.QueryLifecycle` — and every view of a run
(lifecycle trace, metrics, spans, SLO window, adapt plane) is a
*subscriber* of those same calls, so the views cannot disagree about
what happened or in which order.  The adapt plane's own transitions —
a refit attempt, a model epoch, a capacity reconfiguration — are
stages of the same stream, published by the recalibrator and the
controller on the run's table, so the trace and the metrics hear them
the way they hear a query.

A subscriber is any object: it is called for exactly the stages it
defines a method for (duck-typed with ``getattr``, so :mod:`repro.obs`
stays stdlib-only and this package imports nothing from the layers
above it).  A publish site is ``for f in subscribers.on_x: f(...)``; an
unattached run iterates empty tuples.  There is deliberately no event
class: the consumers need the raw ``Query`` / ``QueryEstimates`` /
``ScheduleDecision``, so an event object would only wrap the argument
list, allocated a dozen times per query for nobody.  "Typed" means the
one signature per stage documented at :data:`STAGES`.

Subscribers are called in the order they were handed to
:class:`Subscribers`, and one that raises propagates to the publisher:
it ends a simulated run; the serve engine books one raised on a worker
on its ``errors``, ends the query all the same and re-raises it from
``drain()``.  Every instant is the driver's reading for the transition,
never a fresh clock read.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["STAGES", "Outcome", "Subscribers", "NO_SUBSCRIBERS"]


class Outcome(str, Enum):
    """How a submitted query ended: served (in time or late), failed,
    turned away, or stranded by a stopped engine (still in flight).
    Each value is the query's root span status."""

    SERVED = "ok"
    FAILED = "error"
    REJECTED = "rejected"
    ABANDONED = "abandoned"


#: every stage of the stream, in lifecycle order, with its signature
STAGES = (
    # (query, query_class, now): every query, before the rollup lookup
    "on_arrival",
    # (record, source, seconds, now): the rollup tier answered; the
    # query ends here with its zero-cost QueryRecord and reaches no
    # later stage.  source names the answering cuboid (its sorted
    # dimensions, comma-joined) and seconds is the projection's real
    # wall time, which the router measured and returned
    "on_cache_hit",
    # (query, query_class, now): a miss, offered to the scheduler
    "on_submitted",
    # (query, est, deadline, now): step 2's estimates, before step 3
    "on_estimated",
    # (decision, candidates, branch, now): after the submission of steps
    # 5-6; candidates is step 3's (queue, T_R) list, branch its
    # classify_branch name, computed once for all subscribers
    "on_decision",
    # (decision, in_flight, now): admitted; in_flight counts it
    "on_admitted",
    # (stage, station, query_id, now, waited, service_time): a station
    # took the query's "translation" or "service" stage into service;
    # service_time is None where the plane only learns it at the finish
    # (wall-clock serving)
    "on_stage_start",
    # (stage, station, query_id, arrived, started, finished,
    # service_time, error): the stage's realised interval on the station
    "on_stage_finish",
    # (queue_name, query_id, measured, estimated, applied, stats, now):
    # Section III-G's correction reached the queue's T_Q; applied is the
    # delta booked (0.0 at gain 0), stats the queue's running
    # FeedbackStats, now the stage's finish instant
    "on_feedback",
    # (query_id, outcome, record, detail, in_flight, now): exactly once
    # per query that reached on_submitted.  detail is the rejection
    # reason or the stage that raised, else None; record is None unless
    # the query reached its processing partition
    "on_outcome",
    # (family, outcome, now): the online recalibrator attempted one model
    # family's refit; outcome is "installed", "rejected_fit", "low_r2"
    # or "unsupported"
    "on_refit",
    # (epoch, now): a model bundle went live as ModelEpoch ``epoch``;
    # version 0 is published when the adapt plane attaches
    "on_epoch",
    # (record, now): the capacity controller applied one ReconfigRecord
    "on_reconfig",
)


class Subscribers:
    """Per stage, the bound methods of the subscribers that define it.

    Built once per run; ``None`` entries are skipped, so optional
    attachments can be handed over as they are.  Each attribute named in
    :data:`STAGES` is a tuple in subscriber order, empty when nobody
    listens.
    """

    __slots__ = STAGES

    def __init__(self, *subscribers):
        for stage in STAGES:
            methods = (getattr(s, stage, None) for s in subscribers if s is not None)
            setattr(self, stage, tuple(m for m in methods if m is not None))


#: the empty table: what a scheduler publishes to until a run attaches one
NO_SUBSCRIBERS = Subscribers()
