"""Shared helpers for the wall-clock serving suite.

Everything here runs under a :class:`~repro.serve.FakeClock` with a
:class:`~repro.serve.NullExecutor` (or a purpose-built gated executor),
so the suite is deterministic and sleep-free: "waiting ten seconds" is
a pure counter transition and two runs of any test stamp identical
timestamps.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.scheduler import QueryEstimates
from repro.paper import paper_system_config
from repro.query.model import Query
from repro.serve import FakeClock, NullExecutor, ServeEngine

#: estimate archetypes driving the shared Figure-10 decision logic:
#: CPU wins outright / GPU-only (no cube) / GPU-only with translation
CPU_FAST = QueryEstimates(t_cpu=0.01, t_gpu={1: 0.2, 2: 0.1, 4: 0.05})
GPU_ONLY = QueryEstimates(t_cpu=None, t_gpu={1: 0.2, 2: 0.1, 4: 0.05})
GPU_TEXT = QueryEstimates(
    t_cpu=None, t_gpu={1: 0.2, 2: 0.1, 4: 0.05}, t_trans=0.02
)


class FixedEstimator:
    """Cycles through a fixed sequence of :class:`QueryEstimates`.

    The engine calls :meth:`estimate` under its lock, so the cursor
    needs no synchronisation of its own.
    """

    def __init__(self, *estimates: QueryEstimates):
        self._estimates = list(estimates) or [CPU_FAST]
        self._i = 0

    def estimate(self, query) -> QueryEstimates:
        est = self._estimates[self._i % len(self._estimates)]
        self._i += 1
        return est


def make_query() -> Query:
    return Query(conditions=(), measures=("v",))


def wait_until(predicate, timeout: float = 5.0, what: str = "condition"):
    """Spin (1 ms naps) until ``predicate()`` holds; real-time bounded."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.001)


def undrained_report(served: int, held: int, config=None):
    """The report of a fake-clock engine read before ``drain()``:
    ``served`` queries completed, then ``held`` more admitted while a
    closed gate keeps every processing stage from finishing — so work
    is outstanding on the queues when the books are read.  Estimates
    cycle CPU, GPU and GPU-with-translation."""

    class Gated(NullExecutor):
        def __init__(self):
            self.gate = threading.Event()
            self.gate.set()

        def execute(self, target, query):
            self.gate.wait()
            return None

    executor = Gated()
    engine = ServeEngine(
        config if config is not None else paper_system_config(include_32gb=False),
        clock=FakeClock(),
        executor=executor,
        estimator=FixedEstimator(CPU_FAST, GPU_ONLY, GPU_TEXT),
    ).start()
    try:
        for _ in range(served):
            engine.submit(make_query())
        wait_until(lambda: engine.report().completed == served, what="served queries")
        executor.gate.clear()
        for _ in range(held):
            engine.submit(make_query())
        return engine.report()
    finally:
        executor.gate.set()
        engine.drain()


@pytest.fixture(scope="module")
def serve_config():
    """The analytic paper system (scheduler wiring only; no real work)."""
    return paper_system_config(include_32gb=False)


@pytest.fixture()
def make_engine(serve_config):
    """Factory for fake-clock engines; stops all of them at teardown."""
    engines: list[ServeEngine] = []

    def factory(*estimates, config=None, executor=None, **kwargs):
        engine = ServeEngine(
            config if config is not None else serve_config,
            clock=FakeClock(),
            executor=executor if executor is not None else NullExecutor(),
            estimator=FixedEstimator(*estimates),
            **kwargs,
        )
        engines.append(engine)
        return engine

    yield factory
    for engine in engines:
        engine.stop(finish_queued=False)
