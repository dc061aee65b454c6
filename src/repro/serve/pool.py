"""Per-partition worker pools for the wall-clock serving engine.

A :class:`WorkerPool` is the live counterpart of the simulated-time
:class:`~repro.sim.resources.Server`: a FIFO task queue drained by
``capacity`` worker threads.  Its design goal is *auditability* — a
finished serve run must pass the same :mod:`repro.sim.validate`
invariant families as a simulated run, which requires that the realised
timeline (arrival/start/finish stamps per task) is exactly consistent
with the order things actually happened.

The mechanism is a single shared :class:`EngineState` lock
(re-entrant, so completion callbacks can hand work to downstream pools):

* *every* bookkeeping transition — enqueue + arrival stamp, dequeue +
  start stamp, finish stamp + completion callback — happens inside the
  lock, in one critical section;
* the actual *work* (cube aggregation, kernel scan, dictionary lookup)
  runs outside the lock, so pools genuinely execute in parallel;
* each pool waits on a condition of its own over that one lock, so an
  enqueue wakes one worker of the pool that got the task, and a finish
  wakes nobody: the engine's admission and drain waiters sit on
  :attr:`EngineState.cond` and are woken when a *query* finishes.

Because stamping and queue mutation are atomic, per-pool enqueue order
equals arrival-stamp order and dequeue order equals start-stamp order,
so the FIFO and capacity checks of the ``discipline`` family of
:func:`repro.sim.validate.audit` hold by construction — any
violation in a report indicates a real engine bug, not stamp jitter.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.partitions import drop_earliest
from repro.errors import ServeError
from repro.serve.clock import Clock

__all__ = ["EngineState", "ServeTask", "WorkerPool"]


class EngineState:
    """Shared clock + lock for one serving engine.

    ``lock`` is the engine's one re-entrant lock: worker completion
    callbacks run while holding it and may submit follow-up tasks to
    other pools (translation -> GPU handoff) without deadlocking.
    ``cond`` is a condition over it whose waiters are the engine's
    admission and drain loops; every pool builds its own condition over
    the same lock.
    ``now()`` returns seconds since the engine's origin, so reports and
    traces start near t=0 like simulated runs.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.lock = threading.RLock()
        self.cond = threading.Condition(self.lock)
        self._t0 = clock.now()

    def now(self) -> float:
        """Engine-relative monotonic time (0.0 at engine creation)."""
        return self.clock.now() - self._t0


@dataclass(eq=False)
class ServeTask:
    """One unit of live work for a pool.

    ``run`` executes outside the engine lock and its return value lands
    in ``result`` (an exception lands in ``error`` — pools never let a
    task kill a worker thread).  ``on_start``/``on_done`` fire under the
    engine lock at the corresponding transition; ``on_done`` is where
    the engine applies feedback, records metrics, and hands translated
    queries to their processing pool.
    """

    query_id: int
    run: Callable[[], Any]
    on_done: Callable[["ServeTask"], None]
    on_start: Callable[["ServeTask"], None] | None = None
    arrived: float = 0.0
    started: float | None = None
    finished: float | None = None
    result: Any = None
    error: BaseException | None = None

    #: wall seconds of realised service (finish - start stamps)
    @property
    def service_time(self) -> float:
        if self.started is None or self.finished is None:
            raise ServeError(f"task {self.query_id} has not finished")
        return self.finished - self.started

    @property
    def waited(self) -> float:
        if self.started is None:
            raise ServeError(f"task {self.query_id} has not started")
        return self.started - self.arrived


@dataclass
class _PoolStats:
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    busy_time: float = 0.0
    history: list[tuple[int, float, float]] = field(default_factory=list)


class WorkerPool:
    """FIFO station with ``capacity`` worker threads.

    Mirrors :class:`~repro.sim.resources.Server`'s observable surface
    (``queue_length``, ``in_service``, ``capacity``, ``history``,
    ``utilisation``) so :class:`~repro.sim.obs.TraceCollector` partition
    sampling and :class:`~repro.sim.metrics.SystemReport` construction
    work identically for live runs.

    Parameters
    ----------
    name:
        Partition label, matching its :class:`~repro.core.partitions.
        PartitionQueue` (``"Q_CPU"``, ``"Q_G1a"``, ``"Q_TRANS"``...).
    state:
        The engine-wide :class:`EngineState` (shared lock + clock).
    capacity:
        Worker-thread count (1 = the paper's single service station per
        partition; the translation partition gets
        ``translation_workers``).

    The task queue is unbounded: the engine's ``max_in_flight``
    admission bounds total in-flight work, so a pool never holds more.
    """

    def __init__(self, name: str, state: EngineState, capacity: int = 1):
        if capacity < 1:
            raise ServeError(f"pool {name!r} capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._state = state
        #: this pool's workers wait here, on the engine's one lock
        self._work = threading.Condition(state.lock)
        self._tasks: deque[ServeTask] = deque()
        self._in_service = 0
        self._stats = _PoolStats()
        self._threads: list[threading.Thread] = []
        self._stopping = False
        self._started = False
        self._peak_capacity = capacity
        self._retire = 0  # workers asked to exit by a live shrink
        self._spawn_seq = 0  # monotone thread-name suffix across resizes

    # -- observable state (Server-compatible surface) ----------------------

    @property
    def queue_length(self) -> int:
        return len(self._tasks)

    @property
    def in_service(self) -> int:
        return self._in_service

    @property
    def submitted(self) -> int:
        return self._stats.submitted

    @property
    def completed(self) -> int:
        return self._stats.completed

    @property
    def failed(self) -> int:
        return self._stats.failed

    @property
    def busy_time(self) -> float:
        return self._stats.busy_time

    @property
    def history(self) -> list[tuple[int, float, float]]:
        """(query_id, start, finish) per served task, completion order
        (the tasks of retired queries are gone: see :meth:`forget`)."""
        return self._stats.history

    @property
    def peak_capacity(self) -> int:
        """Highest worker count the pool ever had.

        Reports use this as the pool's capacity so the
        capacity-discipline audit stays sound across live shrinks: work
        that overlapped while the pool was larger is still within the
        capacity that actually existed at the time.
        """
        return self._peak_capacity

    def forget(self, query_ids) -> None:
        """Drop retired queries' :attr:`history` entries (see
        :meth:`~repro.sim.lifecycle.QueryLifecycle.retire`); the running
        counts and :attr:`busy_time` keep them."""
        drop_earliest(self._stats.history, query_ids, key=lambda entry: entry[0])

    def utilisation(self, horizon: float) -> float:
        """Mean fraction of workers busy over ``horizon`` (cf. Server).

        Uses :attr:`peak_capacity` so a pool that shrank mid-run can
        never report more than 100 % utilisation.
        """
        if horizon <= 0:
            return 0.0
        return self._stats.busy_time / (horizon * self._peak_capacity)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        with self._state.cond:
            if self._started:
                return
            self._started = True
            self._stopping = False
        for _ in range(self.capacity):
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        t = threading.Thread(
            target=self._worker,
            name=f"serve-{self.name}-{self._spawn_seq}",
            daemon=True,
        )
        self._spawn_seq += 1
        self._threads.append(t)
        t.start()

    def resize(self, capacity: int) -> None:
        """Change the worker count of a live pool.

        Growing spawns extra workers immediately (when the pool is
        started; otherwise :meth:`start` will spawn the new count).
        Shrinking marks the surplus workers for retirement: each exits
        at the top of its loop — a worker mid-task finishes that task
        first, so no work is dropped.  :attr:`peak_capacity` keeps the
        high-water mark for the capacity-discipline audit.
        """
        if capacity < 1:
            raise ServeError(
                f"pool {self.name!r} capacity must be >= 1, got {capacity}"
            )
        with self._state.cond:
            if self._stopping:
                raise ServeError(f"pool {self.name!r} is stopping")
            diff = capacity - self.capacity  # capacity excludes retiring workers
            self.capacity = capacity
            if capacity > self._peak_capacity:
                self._peak_capacity = capacity
            if diff > 0:
                cancelled = min(self._retire, diff)
                self._retire -= cancelled
                diff -= cancelled
                if self._started:
                    for _ in range(diff):
                        self._spawn_worker()
            elif diff < 0:
                self._retire += -diff
                self._work.notify_all()

    def stop(self, finish_queued: bool = True) -> None:
        """Stop workers; by default they first drain queued tasks."""
        with self._state.cond:
            self._stopping = True
            if not finish_queued:
                self._tasks.clear()
            self._work.notify_all()
        for t in self._threads:
            t.join(timeout=30.0)
            if t.is_alive():  # pragma: no cover - deadlock guard
                raise ServeError(f"pool {self.name!r} worker failed to stop")
        self._threads.clear()
        with self._state.cond:
            self._started = False

    # -- submission ------------------------------------------------------------

    def submit(self, task: ServeTask) -> ServeTask:
        """Enqueue one task; stamps its arrival under the engine lock."""
        with self._state.cond:
            if self._stopping:
                raise ServeError(f"pool {self.name!r} is stopping")
            task.arrived = self._state.now()
            self._tasks.append(task)
            self._stats.submitted += 1
            self._work.notify()
        return task

    # -- the worker loop -----------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._state.cond:
                while not self._tasks and not self._stopping and not self._retire:
                    self._work.wait()
                if self._retire:
                    # live shrink: this worker retires (mid-task workers
                    # only reach here after finishing their task)
                    self._retire -= 1
                    return
                if not self._tasks and self._stopping:
                    return
                # dequeue + start-stamp atomically: start order == FIFO
                # order even with capacity > 1 workers racing to pull
                task = self._tasks.popleft()
                task.started = self._state.now()
                self._in_service += 1
                if task.on_start is not None:
                    task.on_start(task)
            try:
                task.result = task.run()
            except Exception as exc:  # noqa: BLE001 - surfaced via task.error
                task.error = exc
            with self._state.cond:
                task.finished = self._state.now()
                self._in_service -= 1
                self._stats.completed += 1
                if task.error is not None:
                    self._stats.failed += 1
                self._stats.busy_time += task.service_time
                self._stats.history.append(
                    (task.query_id, task.started, task.finished)
                )
                task.on_done(task)

    def __repr__(self) -> str:
        return (
            f"WorkerPool({self.name!r}, {self._in_service}/{self.capacity} busy, "
            f"queued={len(self._tasks)}, completed={self._stats.completed})"
        )
