"""Bounded serve books and per-pool wake-ups.

An engine keeps the books of its newest ``RETAIN_QUERIES`` finished
queries and running totals of the rest (:class:`~repro.sim.metrics.
Retired`), so a long run's memory stays flat while ``report()`` and the
audit still see the whole run.  Each worker pool waits on a condition of
its own over the engine's one lock, so a task wakes only its own pool.
"""

import threading
from copy import deepcopy
from dataclasses import replace

import pytest

import repro.serve.engine as engine_module
from repro.metrics import MetricsRegistry
from repro.sim import TraceCollector
from repro.sim.metrics import Retired
from repro.sim.validate import audit

from tests.serve.conftest import CPU_FAST, GPU_ONLY, GPU_TEXT, make_query
from tests.serve.test_engine_rollup import covered_query, make_router, uncovered_query

KEEP = 8


@pytest.fixture()
def small_window(monkeypatch):
    monkeypatch.setattr(engine_module, "RETAIN_QUERIES", KEEP)


def _serve(engine, fresh, n):
    """``n`` closed-loop submissions, then a batch of 20, each query from ``fresh()``."""
    with engine:
        for _ in range(n):
            outcome = engine.submit(fresh())
            assert outcome.accepted
            assert outcome.ticket.wait(timeout=10.0)
        tickets = [o.ticket for o in engine.submit_batch([fresh() for _ in range(20)])]
        for ticket in tickets:
            assert ticket.wait(timeout=10.0)


class TestRetentionWindow:
    def test_a_long_run_keeps_a_window_and_audits_the_whole_run(
        self, make_engine, small_window
    ):
        registry = MetricsRegistry()
        engine = make_engine(CPU_FAST, GPU_ONLY, GPU_TEXT, metrics=registry)
        _serve(engine, make_query, 100)
        report = engine.report()

        assert KEEP <= len(engine.records) < 2 * KEEP
        for pool in engine.pools.values():
            assert len(pool.history) < 4 * KEEP
        for queue in engine.queues.values():
            assert len(queue.submissions) < 4 * KEEP
        assert report.completed == 120
        assert report.retired.completed == 120 - len(report.records)
        assert report.translated_count == 40
        assert sum(report.by_target().values()) == 120
        snapshot = registry.collect(engine.elapsed)
        result = audit(report, require_drained=True, snapshot=snapshot)
        assert result.ok, result.summary()
        # the totals are what reconcile the counters with the kept books
        forgotten = audit(replace(report, retired=Retired()), snapshot=snapshot)
        assert {v.invariant for v in forgotten.violations} == {"metrics"}

    def test_cache_hits_retire_into_the_hit_count(
        self, make_engine, small_window, fact_table, small_schema
    ):
        registry = MetricsRegistry()
        engine = make_engine(
            CPU_FAST, GPU_TEXT, metrics=registry,
            rollup=make_router(fact_table, small_schema),
        )
        turn = iter(range(1000))
        _serve(
            engine,
            lambda: covered_query() if next(turn) % 2 else uncovered_query(),
            60,
        )
        report = engine.report()

        assert len(engine.cache_hits) < 2 * KEEP
        assert report.cache_hit_count == 40
        assert report.completed == 40
        result = audit(report, require_drained=True, snapshot=registry.collect(engine.elapsed))
        assert result.ok, result.summary()

    def test_unbalanced_retired_totals_break_conservation(
        self, make_engine, small_window
    ):
        engine = make_engine(CPU_FAST, GPU_TEXT)
        _serve(engine, make_query, 40)
        report = engine.report()
        assert audit(report, require_drained=True).ok
        retired = deepcopy(report.retired)
        retired.tasks["Q_TRANS"] += 1
        result = audit(replace(report, retired=retired))
        assert [v.invariant for v in result.violations] == ["conservation"]
        assert "Q_TRANS" in result.summary()

    def test_a_traced_engine_keeps_full_books(self, make_engine, small_window):
        collector = TraceCollector()
        engine = make_engine(CPU_FAST, GPU_TEXT, collector=collector)
        _serve(engine, make_query, 40)
        report = engine.report()
        assert len(report.records) == 60 and report.retired.completed == 0
        assert audit(report, require_drained=True, collector=collector).ok


class _CountingCondition(threading.Condition):
    """A condition that counts the wake-ups of its waiters."""

    def __init__(self, lock):
        super().__init__(lock)
        self.wakeups = 0

    def wait(self, timeout=None):
        woke = super().wait(timeout)
        self.wakeups += 1
        return woke


class TestPerPoolWakeups:
    def test_a_task_wakes_only_its_own_pool(self, make_engine):
        engine = make_engine(CPU_FAST)
        for pool in engine.pools.values():
            pool._work = _CountingCondition(engine._state.lock)
        with engine:
            for _ in range(20):
                assert engine.submit(make_query()).ticket.wait(timeout=10.0)
        wakeups = {name: pool._work.wakeups for name, pool in engine.pools.items()}
        assert 1 <= wakeups.pop("Q_CPU") <= 20 + 1
        # every other pool's workers slept through the run: only the
        # drain's stop woke them, once each
        for name, count in wakeups.items():
            assert count == engine.pools[name].capacity, (name, count)

    def test_pools_share_the_engine_lock(self, make_engine):
        engine = make_engine(CPU_FAST)
        conditions = {id(pool._work) for pool in engine.pools.values()}
        assert len(conditions) == len(engine.pools)
        with engine._state.cond:
            for pool in engine.pools.values():
                # the condition's lock is the one this thread holds
                assert pool._work._is_owned()
