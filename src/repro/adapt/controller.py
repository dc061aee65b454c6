"""Adaptive capacity control driven by SLO breach/recover events.

The paper's system has three capacity knobs that are fixed at startup:
the admission-control lateness factor, the translation worker count,
and the GPU partition scheme (2x1 / 2x2 / 2x4 SM classes).  The
:class:`AdaptiveCapacityController` turns them into runtime actuators:
on an SLO *breach* it escalates — tighten admission first (shed
provably-late work, the cheapest lever), then grow the translation
pool, then re-split the GPU to the next scheme in its ladder — and on a
*recover* it walks the same actions back in reverse order.

Every action is bounded by a :class:`ControllerLimits` envelope:

* **cooldown** — at most one action per ``cooldown`` seconds of event
  time, so the controller cannot thrash faster than its own effects
  propagate through the windowed SLO monitor;
* **hysteresis** — de-escalation requires the hit rate to clear the
  target by a margin, so a recovery that barely scrapes the target
  does not immediately undo the action that produced it;
* **hard ranges** — lateness factor and worker counts are clamped, the
  scheme ladder has a last rung, and ``max_reconfigs`` caps the total
  number of actions per run.

Escalations are tracked on a stack; de-escalation pops the most recent
action and restores its recorded ``value_before``, so the controller is
symmetric by construction and the ``adapt`` family of
:func:`repro.sim.validate.audit` can audit the whole history from the
:class:`ReconfigRecord` list.

The controller is host-agnostic: it talks to a duck-typed *host* (see
:mod:`repro.adapt.plane`) whose accessors return ``None`` for knobs the
host does not expose — the simulated plane only supports admission
control, the serving engine supports all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.stages import NO_SUBSCRIBERS, Subscribers
from repro.errors import SchedulingError
from repro.gpu.partitioning import PartitionScheme

__all__ = ["ControllerLimits", "ReconfigRecord", "AdaptiveCapacityController"]


@dataclass(frozen=True)
class ControllerLimits:
    """Hard envelope for controller actions."""

    min_lateness_factor: float = 0.1
    max_lateness_factor: float = 4.0
    tighten_factor: float = 0.5
    min_translation_workers: int = 1
    max_translation_workers: int = 8
    cooldown: float = 5.0
    hysteresis: float = 0.02
    max_reconfigs: int = 32

    def __post_init__(self) -> None:
        if not 0 < self.min_lateness_factor <= self.max_lateness_factor:
            raise SchedulingError(
                "need 0 < min_lateness_factor <= max_lateness_factor, got "
                f"{self.min_lateness_factor}/{self.max_lateness_factor}"
            )
        if not 0.0 < self.tighten_factor < 1.0:
            raise SchedulingError(
                f"tighten_factor must be in (0, 1), got {self.tighten_factor}"
            )
        if not 1 <= self.min_translation_workers <= self.max_translation_workers:
            raise SchedulingError(
                "need 1 <= min_translation_workers <= max_translation_workers"
            )
        if self.cooldown < 0:
            raise SchedulingError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.hysteresis < 0:
            raise SchedulingError(
                f"hysteresis must be >= 0, got {self.hysteresis}"
            )
        if self.max_reconfigs < 0:
            raise SchedulingError(
                f"max_reconfigs must be >= 0, got {self.max_reconfigs}"
            )


@dataclass(frozen=True)
class ReconfigRecord:
    """One applied controller action (the audit trail's unit)."""

    seq: int
    time: float
    action: str  # tighten_admission | grow_translation | resplit_up | reverses
    trigger: str  # "breach" | "recover"
    detail: str
    value_before: float
    value_after: float


#: escalation order (cheapest lever first) and the reverse action names
_ESCALATIONS = ("tighten_admission", "grow_translation", "resplit_up")
_REVERSE = {
    "tighten_admission": "relax_admission",
    "grow_translation": "shrink_translation",
    "resplit_up": "resplit_down",
}


class AdaptiveCapacityController:
    """Breach-driven escalation with stack-symmetric de-escalation.

    Parameters
    ----------
    limits:
        The :class:`ControllerLimits` envelope.
    target:
        The SLO target the hysteresis margin is measured against.
    schemes:
        Partition-scheme ladder, cheapest first; ``resplit_up`` moves
        one rung up, ``resplit_down`` restores the previous rung.  The
        host starts on rung 0 (its configured scheme).

    ``bind(host)`` attaches the actuator surface; the host is duck
    typed with ``lateness() / set_lateness(v)``,
    ``translation_workers() / set_translation_workers(n)`` and
    ``resplit(scheme)``, each reader returning ``None`` when the knob
    is absent.  Every applied action is published as ``on_reconfig`` on
    ``subscribers``, the run's stage-stream table
    (:mod:`repro.core.stages`).
    """

    def __init__(
        self,
        limits: ControllerLimits | None = None,
        *,
        target: float = 0.9,
        schemes: Sequence[PartitionScheme] = (),
        subscribers: Subscribers = NO_SUBSCRIBERS,
    ):
        self.limits = limits if limits is not None else ControllerLimits()
        self.target = target
        self.schemes = tuple(schemes)
        self._subscribers = subscribers
        self._scheme_idx = 0
        self._host = None
        self._last_action_time = -math.inf
        self._applied: list[ReconfigRecord] = []  # escalation stack
        self.reconfigs: list[ReconfigRecord] = []

    def bind(self, host) -> None:
        self._host = host

    @property
    def applied_depth(self) -> int:
        """Escalations currently in force (not yet unwound)."""
        return len(self._applied)

    # -- event entry point -------------------------------------------------

    def on_slo_event(self, event) -> ReconfigRecord | None:
        """React to one :class:`~repro.metrics.slo.SloEvent`.

        At most one action fires per event, and only outside the
        cooldown window; returns the applied record, if any.
        """
        if self._host is None:
            return None
        if len(self.reconfigs) >= self.limits.max_reconfigs:
            return None
        if event.time - self._last_action_time < self.limits.cooldown:
            return None
        if event.kind == "breach":
            return self._escalate(event)
        if event.kind == "recover":
            if event.hit_rate < self.target + self.limits.hysteresis:
                return None  # inside the hysteresis band: hold position
            return self._deescalate(event)
        return None

    # -- escalation --------------------------------------------------------

    def _escalate(self, event) -> ReconfigRecord | None:
        for action in _ESCALATIONS:
            attempt = getattr(self, f"_try_{action}")
            applied = attempt(event)
            if applied is not None:
                self._applied.append(applied)
                return self._commit(applied)
        return None

    def _try_tighten_admission(self, event) -> ReconfigRecord | None:
        cur = self._host.lateness()
        if cur is None:
            return None
        lim = self.limits
        new = min(
            lim.max_lateness_factor,
            max(lim.min_lateness_factor, cur * lim.tighten_factor),
        )
        if new >= cur:
            return None  # already at (or below) the floor
        self._host.set_lateness(new)
        return ReconfigRecord(
            seq=len(self.reconfigs),
            time=event.time,
            action="tighten_admission",
            trigger="breach",
            detail=f"lateness_factor {cur:g} -> {new:g}",
            value_before=cur,
            value_after=new,
        )

    def _try_grow_translation(self, event) -> ReconfigRecord | None:
        cur = self._host.translation_workers()
        if cur is None:
            return None
        new = min(self.limits.max_translation_workers, cur * 2)
        if new <= cur:
            return None
        self._host.set_translation_workers(new)
        return ReconfigRecord(
            seq=len(self.reconfigs),
            time=event.time,
            action="grow_translation",
            trigger="breach",
            detail=f"translation_workers {cur} -> {new}",
            value_before=cur,
            value_after=new,
        )

    def _try_resplit_up(self, event) -> ReconfigRecord | None:
        nxt = self._scheme_idx + 1
        if nxt >= len(self.schemes) or not self._host.can_resplit():
            return None
        prev = self._scheme_idx
        self._host.resplit(self.schemes[nxt])
        self._scheme_idx = nxt
        return ReconfigRecord(
            seq=len(self.reconfigs),
            time=event.time,
            action="resplit_up",
            trigger="breach",
            detail=f"scheme {self.schemes[prev]} -> {self.schemes[nxt]}",
            value_before=prev,
            value_after=nxt,
        )

    # -- de-escalation -----------------------------------------------------

    def _deescalate(self, event) -> ReconfigRecord | None:
        while self._applied:
            last = self._applied[-1]
            reverse = getattr(self, f"_undo_{last.action}")
            record = reverse(last, event)
            self._applied.pop()
            if record is not None:
                return self._commit(record)
            # the knob disappeared (e.g. a scheme ladder with one rung);
            # fall through and unwind the next escalation instead
        return None

    def _undo_tighten_admission(self, last, event) -> ReconfigRecord | None:
        cur = self._host.lateness()
        if cur is None:
            return None
        lim = self.limits
        restored = min(
            lim.max_lateness_factor,
            max(lim.min_lateness_factor, last.value_before),
        )
        if restored <= cur:
            return None
        self._host.set_lateness(restored)
        return ReconfigRecord(
            seq=len(self.reconfigs),
            time=event.time,
            action="relax_admission",
            trigger="recover",
            detail=f"lateness_factor {cur:g} -> {restored:g}",
            value_before=cur,
            value_after=restored,
        )

    def _undo_grow_translation(self, last, event) -> ReconfigRecord | None:
        cur = self._host.translation_workers()
        if cur is None:
            return None
        restored = max(self.limits.min_translation_workers, int(last.value_before))
        if restored >= cur:
            return None
        self._host.set_translation_workers(restored)
        return ReconfigRecord(
            seq=len(self.reconfigs),
            time=event.time,
            action="shrink_translation",
            trigger="recover",
            detail=f"translation_workers {cur} -> {restored}",
            value_before=cur,
            value_after=restored,
        )

    def _undo_resplit_up(self, last, event) -> ReconfigRecord | None:
        prev = int(last.value_before)
        if prev == self._scheme_idx or not self._host.can_resplit():
            return None
        cur = self._scheme_idx
        self._host.resplit(self.schemes[prev])
        self._scheme_idx = prev
        return ReconfigRecord(
            seq=len(self.reconfigs),
            time=event.time,
            action="resplit_down",
            trigger="recover",
            detail=f"scheme {self.schemes[cur]} -> {self.schemes[prev]}",
            value_before=cur,
            value_after=prev,
        )

    # -- commit ------------------------------------------------------------

    def _commit(self, record: ReconfigRecord) -> ReconfigRecord:
        self.reconfigs.append(record)
        self._last_action_time = record.time
        for publish in self._subscribers.on_reconfig:
            publish(record, record.time)
        return record
