"""Deterministic scenario harness for the adaptive serving engine.

The live :class:`~repro.serve.engine.ServeEngine` runs real worker
threads against a wall clock, which makes its behaviour — and therefore
the adapt plane's behaviour — timing-dependent and unrepeatable.  This
module removes the wall clock without removing the threads:

* :class:`SteppedClock` is a :class:`~repro.serve.clock.Clock` whose
  ``sleep`` *parks* the calling worker until the scenario driver
  explicitly releases it.  Time is a number the driver moves; nothing
  in a scenario run ever waits on real time (the driver's internal
  polling naps are liveness plumbing, not modelled time).
* :class:`TruthExecutor` replaces the materialised executor: instead of
  aggregating cubes it parks the worker for the query's *true* service
  time, computed by a :class:`TruthWorld` from a ground-truth model
  bundle the estimator does not know — the estimation error the online
  recalibrator has to learn.  Chaos hooks (worker stalls, drifting
  truth) live here too.
* :class:`ScenarioDriver` alternates two phases: wait until the engine
  is *quiescent* (every busy worker parked in the clock, every queue
  either empty or fully served) and then advance time to the next event
  — the earlier of the next scripted arrival and the earliest parked
  wake-up — releasing exactly one sleeper at a time, ties broken by
  ``(wake_at, thread name)``.  The resulting interleaving is a pure
  function of the scenario script, so epoch histories, reconfiguration
  sequences and per-class SLO outcomes can be pinned by golden tests.

The driver never calls ``engine.drain`` (a real-time wait); it drives
the system to empty with the clock and then stops the engine.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.partitions import QueueKind
from repro.core.scheduler import QueryEstimates
from repro.errors import BackpressureError, SchedulingError, ServeError
from repro.query.workload import TimedQuery
from repro.sim.system import ModelBundle, SystemConfig, SystemEstimator

__all__ = [
    "SteppedClock",
    "TruthWorld",
    "TruthExecutor",
    "ScenarioEstimator",
    "ScenarioDriver",
    "ScenarioResult",
    "retime",
]


class SteppedClock:
    """A discrete-event clock shared by real threads.

    ``sleep`` registers the caller as a *sleeper* and parks it until
    the driver calls :meth:`release_next`, which advances time to the
    earliest wake-up and releases exactly that one thread (ties broken
    deterministically by thread name).  ``advance`` moves time without
    releasing anyone — used for arrivals that precede every wake-up;
    sleepers due at exactly the arrival time stay parked until
    released, giving arrivals-first ordering at equal times.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._t = 0.0
        #: thread name -> (wake_at, registration token).  The token
        #: distinguishes *this* parking from the thread's next one: a
        #: released worker can finish its task and park again under the
        #: same name before the releaser observes its departure.
        self._sleepers: dict[str, tuple[float, int]] = {}
        self._released: set[int] = set()
        self._next_token = 0

    def now(self) -> float:
        with self._cond:
            return self._t

    def sleep(self, seconds: float) -> None:
        if seconds <= 0.0:
            return
        name = threading.current_thread().name
        with self._cond:
            token = self._next_token
            self._next_token += 1
            self._sleepers[name] = (self._t + seconds, token)
            self._cond.notify_all()
            while token not in self._released:
                self._cond.wait()
            self._released.discard(token)
            del self._sleepers[name]
            self._cond.notify_all()

    def sleeping(self) -> dict[str, float]:
        """Parked threads -> wake-up times (snapshot)."""
        with self._cond:
            return {name: wake for name, (wake, _) in self._sleepers.items()}

    def advance(self, t: float) -> None:
        with self._cond:
            if t < self._t:
                raise ServeError(f"clock cannot go backwards ({t} < {self._t})")
            self._t = t

    def release_next(self, timeout: float = 30.0) -> tuple[str, float] | None:
        """Advance to the earliest wake-up and release that sleeper.

        Blocks (bounded by ``timeout`` *real* seconds, a deadlock
        guard) until the released registration has actually left
        ``sleep``, so a caller can never release the same parking
        twice."""
        deadline = time.monotonic() + timeout
        with self._cond:
            if not self._sleepers:
                return None
            name, (wake, token) = min(
                self._sleepers.items(), key=lambda kv: (kv[1][0], kv[0])
            )
            if wake > self._t:
                self._t = wake
            self._released.add(token)
            self._cond.notify_all()
            while self._sleepers.get(name, (0.0, -1))[1] == token:
                remaining = deadline - time.monotonic()
                if remaining <= 0:  # pragma: no cover - deadlock guard
                    raise ServeError(f"sleeper {name!r} failed to wake")
                self._cond.wait(timeout=remaining)
            return name, wake


class TruthWorld:
    """Ground truth the estimator does not know.

    Service times come from ``bundle`` — a :class:`ModelBundle`
    structurally identical to the estimator's but with *different*
    coefficients — scaled by per-family drift multipliers the scenario
    script can change mid-run (regime shifts, diurnal load) and a tiny
    deterministic per-query jitter that keeps every parked wake-up time
    distinct.  Jitter is keyed by submission order (assigned by the
    driver), never by the process-global ``query_id``, so scenario
    histories do not depend on how many queries earlier tests created.
    """

    def __init__(self, features_fn, bundle: ModelBundle, *, jitter: float = 1e-4):
        self._features = features_fn
        self.bundle = bundle
        self.jitter = jitter
        self.cpu_mult = 1.0
        self.gpu_mult = 1.0
        self.dict_mult = 1.0
        self._seq: dict[int, int] = {}  # query_id -> submission index

    def assign_seq(self, query_id: int, seq: int) -> None:
        self._seq[query_id] = seq

    def set_drift(
        self,
        cpu: float | None = None,
        gpu: float | None = None,
        dict_: float | None = None,
    ) -> None:
        if cpu is not None:
            self.cpu_mult = cpu
        if gpu is not None:
            self.gpu_mult = gpu
        if dict_ is not None:
            self.dict_mult = dict_

    def _jitter(self, query_id: int) -> float:
        seq = self._seq.get(query_id, query_id)
        return 1.0 + (seq % 997) * self.jitter

    def translation_time(self, query) -> float:
        feats = self._features(query)
        if feats is None:
            raise SchedulingError(f"query {query.query_id} outside scenario features")
        _, _, terms = feats
        t = sum(
            nlit * self.bundle.dict_model.time(d_l) for nlit, d_l in terms
        )
        return t * self.dict_mult * self._jitter(query.query_id)

    def service_time(self, query, target) -> float:
        feats = self._features(query)
        if feats is None:
            raise SchedulingError(f"query {query.query_id} outside scenario features")
        sc_mb, frac, _ = feats
        if target.kind is QueueKind.CPU:
            if sc_mb is None or sc_mb <= 0:
                raise SchedulingError(
                    f"query {query.query_id} routed to CPU without a sub-cube"
                )
            t = self.bundle.cpu.time(sc_mb) * self.cpu_mult
        else:
            t = self.bundle.gpu.query_time(frac, target.n_sm) * self.gpu_mult
        return t * self._jitter(query.query_id)


class TruthExecutor:
    """:class:`~repro.sim.executors.QueryExecutor` that parks workers
    for the query's true service time instead of doing OLAP work.

    Chaos hooks:

    * ``stall(query_id, seconds)`` — that query's processing stage
      takes ``seconds`` longer than the truth (an injected worker
      stall: GC pause, page fault storm, noisy neighbour);
    * the :class:`TruthWorld` drift multipliers model environment
      change underneath the frozen estimates.
    """

    def __init__(self, clock: SteppedClock, truth: TruthWorld):
        self.clock = clock
        self.truth = truth
        self._stalls: dict[int, float] = {}
        self.translated = 0
        self.executed = 0

    def stall(self, query_id: int, seconds: float) -> None:
        if seconds < 0:
            raise ServeError(f"stall must be >= 0, got {seconds}")
        self._stalls[query_id] = seconds

    def translate(self, query):
        self.clock.sleep(self.truth.translation_time(query))
        self.translated += 1
        return query

    def execute(self, target, query):
        t = self.truth.service_time(query, target)
        t += self._stalls.pop(query.query_id, 0.0)
        self.clock.sleep(t)
        self.executed += 1
        return None


class ScenarioEstimator:
    """A hot-swappable estimator over an explicit :class:`ModelBundle`.

    Implements the full surface the engine, the scheduler and the
    online recalibrator need — ``estimate``, ``features``, ``models``,
    ``install`` — while keeping estimation a pure function of the
    installed bundle.  Feature extraction is delegated to a real
    :class:`~repro.sim.system.SystemEstimator` over the same config, so
    scenario features are bit-identical to production ones.

    ``sm_counts`` must cover every SM class of every scheme the
    controller's re-split ladder can reach, so estimates stay available
    across reconfigurations.
    """

    def __init__(
        self,
        config: SystemConfig,
        bundle: ModelBundle,
        sm_counts: Sequence[int] = (1, 2, 4),
    ):
        self._inner = SystemEstimator(config)
        self._models = bundle
        self._sm_counts = tuple(sorted(set(sm_counts)))
        if bundle.gpu is None:
            raise SchedulingError("ScenarioEstimator needs an explicit GPU model")

    def features(self, query):
        return self._inner.features(query)

    def models(self) -> ModelBundle:
        return self._models

    def install(self, bundle: ModelBundle) -> None:
        self._models = bundle

    def estimate(self, query) -> QueryEstimates:
        models = self._models
        feats = self._inner.features(query)
        if feats is None:
            raise SchedulingError(
                f"query {query.query_id} outside the scenario feature surface"
            )
        sc_mb, frac, terms = feats
        t_cpu = models.cpu.time(sc_mb) if sc_mb is not None and sc_mb > 0 else None
        t_gpu = {n: models.gpu.query_time(frac, n) for n in self._sm_counts}
        t_trans = sum(
            nlit * models.dict_model.time(d_l) for nlit, d_l in terms
        )
        return QueryEstimates(t_cpu=t_cpu, t_gpu=t_gpu, t_trans=t_trans)


@dataclass
class ScenarioResult:
    """What one driven scenario produced."""

    submitted: int = 0
    accepted: int = 0
    rejected: list[int] = field(default_factory=list)  # admission-shed query ids
    shed: list[int] = field(default_factory=list)  # backpressure-shed query ids
    #: query_class -> [met_deadline per completed record, arrival order]
    outcomes: dict[str, list[bool]] = field(default_factory=dict)

    def hit_rate(self, query_class: str) -> float:
        outcomes = self.outcomes.get(query_class, [])
        return sum(outcomes) / len(outcomes) if outcomes else 1.0


class ScenarioDriver:
    """Drives a :class:`~repro.serve.engine.ServeEngine` on a
    :class:`SteppedClock` through a scripted arrival schedule.

    The engine must have been built with the same clock instance and a
    parking executor (:class:`TruthExecutor`); ``truth`` is optional
    and only needed so submission-order jitter indices can be assigned.
    ``deadlock_timeout`` bounds, in *real* seconds, how long the driver
    waits for the threads to reach quiescence before declaring the
    scenario wedged — it never adds modelled time.
    """

    def __init__(
        self,
        engine,
        clock: SteppedClock,
        *,
        truth: TruthWorld | None = None,
        poll: float = 0.0005,
        deadlock_timeout: float = 60.0,
    ):
        self.engine = engine
        self.clock = clock
        self.truth = truth
        self.poll = poll
        self.deadlock_timeout = deadlock_timeout
        self._seq = 0

    # -- quiescence --------------------------------------------------------

    def _pool_of(self, thread_name: str) -> str | None:
        if not thread_name.startswith("serve-"):
            return None
        # thread names are "serve-{pool}-{seq}"
        return thread_name[len("serve-") :].rsplit("-", 1)[0]

    def _quiescent(self) -> bool:
        parked: dict[str, int] = {}
        for name in self.clock.sleeping():
            pool = self._pool_of(name)
            if pool is not None:
                parked[pool] = parked.get(pool, 0) + 1
        with self.engine._state.cond:
            for name, pool in self.engine.pools.items():
                if pool.in_service != parked.get(name, 0):
                    return False  # a busy worker is between states
                if pool.queue_length > 0 and pool.in_service < pool.capacity:
                    return False  # a queued task will still be picked up
        return True

    def _wait_quiescent(self) -> None:
        deadline = time.monotonic() + self.deadlock_timeout
        while not self._quiescent():
            if time.monotonic() > deadline:  # pragma: no cover - deadlock guard
                raise ServeError(
                    "scenario never reached quiescence: "
                    f"sleeping={self.clock.sleeping()!r}"
                )
            time.sleep(self.poll)

    # -- stepping ----------------------------------------------------------

    def _step_until(self, t: float) -> None:
        """Process every parked wake-up strictly before ``t``, then
        advance the clock to ``t`` (arrivals beat equal-time wake-ups)."""
        while True:
            self._wait_quiescent()
            sleeping = self.clock.sleeping()
            if not sleeping or min(sleeping.values()) >= t:
                break
            self.clock.release_next(timeout=self.deadlock_timeout)
        self.clock.advance(t)

    def run_until_idle(self) -> None:
        """Release wake-ups until nothing is parked and nothing is in
        flight (the scenario's terminal quiescence)."""
        deadline = time.monotonic() + self.deadlock_timeout
        while True:
            self._wait_quiescent()
            if self.clock.release_next(timeout=self.deadlock_timeout) is None:
                if self.engine.in_flight == 0:
                    return
                if time.monotonic() > deadline:  # pragma: no cover
                    raise ServeError(
                        f"{self.engine.in_flight} queries in flight "
                        "with no parked workers"
                    )
                time.sleep(self.poll)

    # -- the scenario loop -------------------------------------------------

    def run(
        self,
        arrivals: Iterable[TimedQuery],
        *,
        on_time: Callable[[float], None] | None = None,
    ) -> ScenarioResult:
        """Drive the scripted arrivals to completion.

        ``on_time(t)`` fires before time advances to each arrival
        instant — the hook scenario scripts use for drift changes and
        chaos injection, keyed to modelled time.
        """
        result = ScenarioResult()
        for entry in arrivals:
            if on_time is not None:
                on_time(entry.time)
            self._step_until(entry.time)
            if self.truth is not None:
                self.truth.assign_seq(entry.query.query_id, self._seq)
            self._seq += 1
            result.submitted += 1
            try:
                outcome = self.engine.submit(
                    entry.query, entry.query_class, block=False
                )
            except BackpressureError:
                result.shed.append(entry.query.query_id)
                continue
            if outcome.accepted:
                result.accepted += 1
            else:
                result.rejected.append(entry.query.query_id)
        self.run_until_idle()
        self.engine.stop(finish_queued=True)
        for record in self.engine.records:
            result.outcomes.setdefault(record.query_class, []).append(
                record.met_deadline
            )
        return result


def retime(stream, times: Sequence[float]):
    """Re-stamp a :class:`~repro.query.workload.QueryStream`'s entries
    with an explicit arrival-time vector (scenario scripts control load
    shape separately from query shape)."""
    entries = list(stream)
    if len(entries) != len(times):
        raise ServeError(
            f"need one time per query, got {len(times)} for {len(entries)}"
        )
    return [e._replace(time=float(t)) for e, t in zip(entries, times)]
