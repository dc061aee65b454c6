"""WorkerPool unit tests: queueing, capacity, drain ordering.

All under a :class:`FakeClock` — timestamps are pure state, and tasks
that must "take time" are gated on real :class:`threading.Event`
objects the test controls, never on sleeps.
"""

import threading

import pytest

from repro.errors import ServeError
from repro.serve import FakeClock, ServeTask, WorkerPool
from repro.serve.pool import EngineState

from tests.serve.conftest import wait_until


def make_pool(capacity=1, name="Q_X"):
    state = EngineState(FakeClock())
    return state, WorkerPool(name, state, capacity=capacity)


def task(query_id, run=lambda: None, on_done=lambda t: None, on_start=None):
    return ServeTask(query_id=query_id, run=run, on_done=on_done, on_start=on_start)


class TestLifecycle:
    def test_start_is_idempotent(self):
        _, pool = make_pool()
        pool.start()
        pool.start()
        pool.stop()

    def test_stop_rejects_new_submissions(self):
        _, pool = make_pool()
        pool.start()
        pool.stop()
        with pytest.raises(ServeError, match="stopping"):
            pool.submit(task(1))

    def test_invalid_capacity_and_queue_bound(self):
        state = EngineState(FakeClock())
        with pytest.raises(ServeError):
            WorkerPool("Q_X", state, capacity=0)

    def test_unfinished_task_stamps_raise(self):
        t = task(7)
        with pytest.raises(ServeError):
            t.service_time
        with pytest.raises(ServeError):
            t.waited


class TestDrainOrdering:
    def test_queued_tasks_drain_fifo_on_stop(self):
        # submit everything before starting: the single worker must then
        # drain in exact submission order
        _, pool = make_pool(capacity=1)
        done: list[int] = []
        for i in range(10):
            pool.submit(task(i, on_done=lambda t: done.append(t.query_id)))
        assert pool.queue_length == 10
        pool.start()
        pool.stop(finish_queued=True)
        assert done == list(range(10))
        assert pool.completed == pool.submitted == 10
        assert [qid for qid, _, _ in pool.history] == list(range(10))

    def test_stop_without_finishing_discards_queue(self):
        _, pool = make_pool()
        gate = threading.Event()
        done: list[int] = []
        pool.start()
        # pin the single worker on task 0, then queue four more behind it
        pool.submit(task(0, run=gate.wait, on_done=lambda t: done.append(t.query_id)))
        wait_until(lambda: pool.in_service == 1, what="task 0 in service")
        for i in range(1, 5):
            pool.submit(task(i, on_done=lambda t: done.append(t.query_id)))
        stopper = threading.Thread(target=lambda: pool.stop(finish_queued=False))
        stopper.start()
        wait_until(lambda: pool.queue_length == 0, what="queue discarded")
        gate.set()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
        assert done == [0]  # only the in-service task finished
        assert pool.completed == 1
        assert [qid for qid, _, _ in pool.history] == [0]


class TestCapacity:
    def test_in_service_never_exceeds_capacity(self):
        _, pool = make_pool(capacity=3)
        gate = threading.Event()
        pool.start()
        for i in range(6):
            pool.submit(task(i, run=gate.wait))
        wait_until(lambda: pool.in_service == 3, what="3 tasks in service")
        assert pool.queue_length == 3
        assert pool.in_service == 3  # never more than capacity
        gate.set()
        pool.stop(finish_queued=True)
        assert pool.completed == 6

    def test_a_shrink_then_grow_keeps_the_retiring_workers(self):
        """3 -> 1 marks two busy workers to retire; 1 -> 2 cancels one of
        those retirements and spawns nobody, so three workers stay."""
        _, pool = make_pool(capacity=3)
        gate = threading.Event()
        pool.start()
        for i in range(6):
            pool.submit(task(i, run=gate.wait))
        wait_until(lambda: pool.in_service == 3, what="3 tasks in service")
        pool.resize(1)
        pool.resize(2)
        assert len(pool._threads) == 3 and pool.peak_capacity == 3
        gate.set()
        pool.stop(finish_queued=True)
        assert pool.completed == 6

    def test_start_stamp_order_matches_fifo_even_with_many_workers(self):
        _, pool = make_pool(capacity=4)
        gate = threading.Event()
        for i in range(12):
            pool.submit(task(i, run=gate.wait))
        gate.set()
        pool.start()
        pool.stop(finish_queued=True)
        # dequeue + start-stamp is atomic: sorting by start stamp must
        # reproduce submission order (ties broken by stamp equality are
        # impossible to distinguish, so compare sorted stability via
        # arrival order instead)
        starts = {qid: start for qid, start, _ in pool.history}
        arrivals = list(range(12))
        assert sorted(arrivals, key=lambda q: (starts[q], q)) == arrivals


class TestFailuresAndStamps:
    def test_task_error_is_captured_and_worker_survives(self):
        _, pool = make_pool()

        def boom():
            raise RuntimeError("kernel panic (simulated)")

        failed = task(1, run=boom)
        pool.start()
        pool.submit(failed)
        ok = pool.submit(task(2))
        pool.stop(finish_queued=True)
        assert isinstance(failed.error, RuntimeError)
        assert ok.error is None
        assert pool.failed == 1
        assert pool.completed == 2  # both ran; one failed

    def test_stamps_follow_the_fake_clock(self):
        state, pool = make_pool()
        clock = state.clock
        gate = threading.Event()
        t = task(1, run=gate.wait)
        clock.advance(2.0)  # task arrives at t=2
        pool.start()
        pool.submit(t)
        wait_until(lambda: pool.in_service == 1, what="task in service")
        clock.advance(1.5)  # 1.5s of fake service
        gate.set()
        pool.stop(finish_queued=True)
        assert t.arrived == 2.0
        assert t.started == 2.0  # no queueing: started when submitted
        assert t.finished == 3.5
        assert t.waited == 0.0
        assert t.service_time == 1.5
        assert pool.history == [(1, 2.0, 3.5)]
        assert pool.busy_time == 1.5
        assert pool.utilisation(7.0) == pytest.approx(1.5 / 7.0)
