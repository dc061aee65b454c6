"""Measured-vs-estimated runtime feedback (Section III-G, last paragraph).

*"The real processing time of query Q is also measured by the system.
When the query processing is finished, the real processing time is
compared with estimated processing time.  The difference of these two
times then used to update the value T_Q of the queue that was processing
the query.  This way the errors in the estimation do not significantly
affect the scheduling algorithm."*

:class:`FeedbackController` applies that correction.  ``gain`` damps it
(1.0 = the paper's full correction; 0.0 disables feedback, the ablation
setting), and the controller tracks estimation-error statistics so the
evaluation can report how well-calibrated the models were.  It announces
nothing itself: its one caller, :class:`~repro.sim.lifecycle.
QueryLifecycle`, publishes each correction as the ``on_feedback`` stage
of :mod:`repro.core.stages`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partitions import PartitionQueue
from repro.errors import SchedulingError

__all__ = ["FeedbackController", "FeedbackStats"]


@dataclass
class FeedbackStats:
    """Running estimation-error statistics."""

    count: int = 0
    total_error: float = 0.0
    total_abs_error: float = 0.0
    total_estimated: float = 0.0
    total_measured: float = 0.0

    @property
    def mean_error(self) -> float:
        return self.total_error / self.count if self.count else 0.0

    @property
    def mean_abs_error(self) -> float:
        return self.total_abs_error / self.count if self.count else 0.0

    @property
    def bias_ratio(self) -> float:
        """measured / estimated totals; 1.0 = perfectly calibrated models."""
        if self.total_estimated <= 0:
            return float("nan")
        return self.total_measured / self.total_estimated


class FeedbackController:
    """Applies completion feedback to partition queues.

    Parameters
    ----------
    gain:
        Fraction of the (measured - estimated) difference applied to the
        queue's :math:`T_Q`.  1.0 reproduces the paper; 0.0 turns
        feedback off while still tracking statistics.
    """

    def __init__(self, gain: float = 1.0):
        if not 0.0 <= gain <= 1.0:
            raise SchedulingError(f"feedback gain must be in [0, 1], got {gain}")
        self.gain = gain
        self._stats: dict[str, FeedbackStats] = {}

    def on_completion(
        self,
        queue: PartitionQueue,
        measured_time: float,
        estimated_time: float,
    ) -> float:
        """Record a completion and correct the queue's :math:`T_Q`.

        Returns the correction applied (0.0 when ``gain`` is 0, in which
        case the job is still marked complete on the queue).
        """
        stats = self._stats.setdefault(queue.name, FeedbackStats())
        error = measured_time - estimated_time
        stats.count += 1
        stats.total_error += error
        stats.total_abs_error += abs(error)
        stats.total_estimated += estimated_time
        stats.total_measured += measured_time

        if self.gain == 0.0:
            queue.complete_without_feedback()
            applied = 0.0
        else:
            # apply a damped correction: feed back gain * measured +
            # (1-gain) * estimated as the "measured" value, so T_Q moves
            # by gain*error.
            effective_measured = estimated_time + self.gain * error
            applied = queue.apply_feedback(effective_measured, estimated_time)
        return applied

    def stats(self, queue_name: str) -> FeedbackStats:
        return self._stats.get(queue_name, FeedbackStats())

    @property
    def all_stats(self) -> dict[str, FeedbackStats]:
        return dict(self._stats)

    @property
    def overall_bias_ratio(self) -> float:
        est = sum(s.total_estimated for s in self._stats.values())
        meas = sum(s.total_measured for s in self._stats.values())
        return meas / est if est > 0 else float("nan")
