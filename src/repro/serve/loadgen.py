"""Load generation for the wall-clock serving engine.

:class:`OpenLoopGenerator` drives a
:class:`~repro.serve.engine.ServeEngine` with arrivals that follow a
:class:`~repro.query.workload.QueryStream`'s timestamps regardless of
how the system keeps up (the standard open-loop model; this is what
``python -m repro serve --rate R`` runs, with Poisson arrivals).
When the engine pushes back, the generator either *sheds* the query
(counting it, like a front-end returning 503) or blocks and lets the
arrival process fall behind.

It paces itself through the engine's injected
:class:`~repro.serve.clock.Clock`, so under a
:class:`~repro.serve.clock.FakeClock` an open-loop run over a
10-second stream completes in milliseconds with identical bookkeeping.
The closed loop (N clients, each waiting for its answer) that measures
capacity is the benchmark's own driver, ``benchmarks/perf/drive.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BackpressureError, ServeError
from repro.query.workload import QueryStream
from repro.serve.engine import ServeEngine

__all__ = ["LoadReport", "OpenLoopGenerator"]


@dataclass(frozen=True)
class LoadReport:
    """What one load-generation run did to the engine.

    ``offered`` = ``accepted`` + ``rejected`` (admission control) +
    ``shed`` (backpressure, open-loop shed mode only).  ``duration`` is
    engine-relative seconds from the generator's start to its last
    submission returning.
    """

    offered: int
    accepted: int
    rejected: int
    shed: int
    duration: float

    def __post_init__(self) -> None:
        if self.offered != self.accepted + self.rejected + self.shed:
            raise ServeError(
                f"load report books do not balance: {self.offered} offered "
                f"!= {self.accepted} accepted + {self.rejected} rejected "
                f"+ {self.shed} shed"
            )

    @property
    def offered_rate(self) -> float:
        return self.offered / self.duration if self.duration > 0 else 0.0


class OpenLoopGenerator:
    """Replay a timed query stream against a serving engine.

    Parameters
    ----------
    engine:
        A started :class:`~repro.serve.engine.ServeEngine`.
    shed:
        When True (the default), backpressured submissions are dropped
        and counted instead of blocking — the open-loop contract (the
        arrival process never waits for the system).  When False,
        submissions block and arrivals drift late under overload.
    batch_size:
        When set, arrivals buffer until ``batch_size`` of them are due
        and the buffer goes through :meth:`~repro.serve.engine.
        ServeEngine.submit_batch` in one call (a trailing partial batch
        flushes at the end of the stream).  Pacing still follows each
        entry's timestamp — batching changes when *admission* happens,
        not when arrivals do.  In shed mode a backpressured flush keeps
        whatever the engine already admitted and sheds only the rest of
        that batch.
    """

    def __init__(
        self,
        engine: ServeEngine,
        *,
        shed: bool = True,
        batch_size: int | None = None,
    ):
        if batch_size is not None and batch_size < 1:
            raise ServeError(f"batch_size must be >= 1, got {batch_size}")
        self._engine = engine
        self._shed = shed
        self._batch_size = batch_size

    def run(self, stream: QueryStream) -> LoadReport:
        """Submit every stream entry at (or after) its timestamp."""
        engine = self._engine
        start = engine.elapsed
        offered = accepted = rejected = shed = 0
        buffer: list = []

        def flush() -> tuple[int, int, int]:
            queries = [t.query for t in buffer]
            classes = [t.query_class for t in buffer]
            n = len(buffer)
            buffer.clear()
            try:
                outcomes = engine.submit_batch(
                    queries, classes, block=not self._shed
                )
            except BackpressureError as exc:
                outcomes = getattr(exc, "outcomes", [])
            ok = sum(1 for o in outcomes if o.accepted)
            return ok, len(outcomes) - ok, n - len(outcomes)

        for timed in stream:
            # pace via the injected clock: under FakeClock this advances
            # time instead of blocking, keeping paced tests instant
            lag = (start + timed.time) - engine.elapsed
            if lag > 0:
                engine.clock.sleep(lag)
            offered += 1
            if self._batch_size is not None:
                buffer.append(timed)
                if len(buffer) >= self._batch_size:
                    a, r, s = flush()
                    accepted += a
                    rejected += r
                    shed += s
                continue
            try:
                outcome = engine.submit(
                    timed.query, timed.query_class, block=not self._shed
                )
            except BackpressureError:
                shed += 1
                continue
            if outcome.accepted:
                accepted += 1
            else:
                rejected += 1
        if buffer:
            a, r, s = flush()
            accepted += a
            rejected += r
            shed += s
        return LoadReport(
            offered=offered,
            accepted=accepted,
            rejected=rejected,
            shed=shed,
            duration=engine.elapsed - start,
        )
