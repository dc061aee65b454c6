"""Stress: ten thousand queries through a fake-clock engine, fully traced.

The load generator paces against the fake clock, so the "100 second"
offered schedule runs in real milliseconds; the point is volume — the
per-event trace audit and the invariant families must hold at a scale
where any lost wakeup, dropped record, or mis-stamped transition is
overwhelmingly likely to surface.
"""

import itertools
import sys
import threading
import time

from repro.metrics import MetricsRegistry
from repro.query.workload import QueryStream, TimedQuery
from repro.sim.obs import TraceCollector
from repro.sim.validate import assert_valid, audit

from tests.serve.conftest import CPU_FAST, GPU_ONLY, GPU_TEXT, make_query

N_QUERIES = 10_000


def _stream() -> QueryStream:
    archetypes = itertools.cycle(["small", "mid", "fine"])
    return QueryStream(
        [
            TimedQuery(i * 1e-4, make_query(), next(archetypes))
            for i in range(N_QUERIES)
        ]
    )


def test_ten_thousand_queries_fully_audited(make_engine):
    from repro.serve import OpenLoopGenerator

    collector = TraceCollector(sample_series=False)
    engine = make_engine(
        CPU_FAST, GPU_ONLY, GPU_TEXT, collector=collector, max_in_flight=4096
    ).start()
    load = OpenLoopGenerator(engine, shed=False).run(_stream())
    engine.drain()

    assert load.offered == N_QUERIES
    assert load.accepted == N_QUERIES
    assert load.rejected == 0 and load.shed == 0

    report = engine.report()
    assert report.completed == N_QUERIES
    assert sorted(report.by_class().items()) == [
        ("fine", N_QUERIES // 3),
        ("mid", N_QUERIES // 3),
        ("small", N_QUERIES // 3 + N_QUERIES % 3),
    ]
    # every third query is the translated archetype
    assert sum(1 for r in report.records if r.translated) == N_QUERIES // 3

    assert_valid(report, require_drained=True, collector=collector)
    # the trace holds a complete lifecycle for all 10k queries:
    # 6 events for plain queries, 9 for the translated third
    per_query = [e for e in collector.events if e.query_id is not None]
    translated = N_QUERIES // 3
    assert len(per_query) == 6 * (N_QUERIES - translated) + 9 * translated


def test_ten_thousand_untraced_queries_keep_a_window(make_engine):
    """The untraced engine retires its oldest books as it goes.  Under a
    short switch interval, with the translation pool resized live, no
    worker misses the wake-up of a task, and the whole run audits."""
    from repro.serve import OpenLoopGenerator
    from repro.serve.engine import RETAIN_QUERIES

    registry = MetricsRegistry()
    engine = make_engine(
        CPU_FAST, GPU_ONLY, GPU_TEXT, metrics=registry, max_in_flight=4096
    ).start()
    stop = threading.Event()

    def resize() -> None:
        for workers in itertools.cycle([3, 1, 2]):
            if stop.is_set():
                return
            engine.adapt_resize_translation(workers)
            time.sleep(0.001)

    resizer = threading.Thread(target=resize)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        resizer.start()
        load = OpenLoopGenerator(engine, shed=False).run(_stream())
    finally:
        stop.set()
        resizer.join(timeout=10.0)
        sys.setswitchinterval(previous)
    assert not resizer.is_alive()
    engine.drain(timeout=60.0)

    assert load.accepted == N_QUERIES
    report = engine.report()
    assert report.completed == N_QUERIES
    assert report.translated_count == N_QUERIES // 3
    assert report.retired.completed > 0
    assert len(engine.records) < 2 * RETAIN_QUERIES
    snapshot = registry.collect(engine.elapsed)
    result = audit(report, require_drained=True, snapshot=snapshot)
    assert result.ok, result.summary()
