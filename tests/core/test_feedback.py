"""Unit tests for the measured-vs-estimated feedback controller."""

import numpy as np
import pytest

from repro.core.feedback import FeedbackController
from repro.core.partitions import PartitionQueue, QueueKind
from repro.errors import SchedulingError


@pytest.fixture()
def queue():
    q = PartitionQueue("Q_CPU", QueueKind.CPU)
    q.submit(1, now=0.0, estimated_time=1.0)
    return q


class TestFullGain:
    def test_paper_behaviour(self, queue):
        fb = FeedbackController(gain=1.0)
        delta = fb.on_completion(queue, measured_time=1.4, estimated_time=1.0)
        assert np.isclose(delta, 0.4)
        assert np.isclose(queue.t_q, 1.4)

    def test_underrun(self, queue):
        fb = FeedbackController(gain=1.0)
        fb.on_completion(queue, measured_time=0.7, estimated_time=1.0)
        assert np.isclose(queue.t_q, 0.7)


class TestDampedGain:
    def test_half_gain(self, queue):
        fb = FeedbackController(gain=0.5)
        delta = fb.on_completion(queue, measured_time=2.0, estimated_time=1.0)
        assert np.isclose(delta, 0.5)
        assert np.isclose(queue.t_q, 1.5)

    def test_zero_gain_still_completes(self, queue):
        fb = FeedbackController(gain=0.0)
        delta = fb.on_completion(queue, measured_time=2.0, estimated_time=1.0)
        assert delta == 0.0
        assert queue.t_q == 1.0
        assert queue.outstanding == 0

    def test_invalid_gain(self):
        with pytest.raises(SchedulingError):
            FeedbackController(gain=1.5)
        with pytest.raises(SchedulingError):
            FeedbackController(gain=-0.1)


class TestStats:
    def test_error_tracking(self, queue):
        fb = FeedbackController()
        queue.submit(2, now=0.0, estimated_time=1.0)
        fb.on_completion(queue, 1.2, 1.0)
        fb.on_completion(queue, 0.9, 1.0)
        stats = fb.stats("Q_CPU")
        assert stats.count == 2
        assert np.isclose(stats.mean_error, 0.05)
        assert np.isclose(stats.mean_abs_error, 0.15)
        assert np.isclose(stats.bias_ratio, 2.1 / 2.0)

    def test_overall_bias(self, queue):
        fb = FeedbackController()
        fb.on_completion(queue, 1.5, 1.0)
        assert np.isclose(fb.overall_bias_ratio, 1.5)

    def test_unknown_queue_stats(self):
        fb = FeedbackController()
        assert fb.stats("nope").count == 0

    def test_empty_bias_is_nan(self):
        fb = FeedbackController()
        assert np.isnan(fb.overall_bias_ratio)
