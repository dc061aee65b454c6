"""Online recalibration of the performance-model bundle.

The paper calibrates its estimation functions *once*, offline
(Section III-D: benchmark sweeps, curve fits, frozen coefficients).  A
long-running serving system cannot afford that luxury: data grows, the
dictionary deepens, co-tenants steal memory bandwidth — and the frozen
models drift away from reality, which the scheduler only notices as a
rising estimate bias in :class:`~repro.core.feedback.FeedbackController`
statistics.

:class:`OnlineRecalibrator` closes that loop.  It consumes the same
estimated-vs-measured pairs the feedback controller sees, buckets them
into per-family sliding windows (piecewise CPU model, per-SM GPU lines,
dictionary cost), and periodically re-runs the *offline* fitters from
:mod:`repro.core.calibration` over the windows.  A candidate refit is
installed into the live :class:`~repro.sim.system.SystemEstimator` only
when it clears three guards:

* **minimum samples** — a window smaller than ``min_samples`` is noise;
* **minimum R²** — a sloppy fit is worse than a stale one;
* **maximum step** — every coefficient moves at most ``max_step`` of
  its own magnitude per epoch, so a burst of poisoned or unlucky
  samples can nudge, never capsize, the models.

Each successful install bumps a versioned :class:`ModelEpoch`; the
estimator swap is a single reference assignment, so any estimate call
observes exactly one epoch (see ``SystemEstimator.install``).  All
entry points run under the engine lock (scheduler hooks fire inside
``submit``, feedback hooks inside worker ``on_done``), so the windows
need no locking of their own.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.core.calibration import (
    fit_linear,
    fit_power_law,
    r_squared,
)
from repro.core.perfmodel import (
    CPUPerfModel,
    DictPerfModel,
    LinearModel,
    PiecewiseModel,
    PowerLawModel,
)
from repro.core.stages import NO_SUBSCRIBERS, Subscribers
from repro.errors import CalibrationError
from repro.gpu.timing import LinearColumnTiming
from repro.sim.system import ModelBundle

__all__ = ["RecalGuards", "ModelEpoch", "OnlineRecalibrator"]

#: denominator floor for the relative max-step clamp, so coefficients
#: that are exactly 0.0 can still move (by at most ``max_step * _EPS``).
_EPS = 1e-12


@dataclass(frozen=True)
class RecalGuards:
    """Safety envelope for online refits.

    Attributes
    ----------
    min_samples:
        Fewest window samples a family needs before a refit is even
        attempted.
    min_r2:
        Fit quality floor; candidates below it are rejected.
    max_step:
        Per-coefficient relative clamp: a refit moves each coefficient
        by at most ``max_step * max(|old|, eps)`` per epoch.
    refit_interval:
        Accepted samples between refit attempts.
    window:
        Sliding-window length per family (per SM count for the GPU).
    """

    min_samples: int = 24
    min_r2: float = 0.9
    max_step: float = 0.5
    refit_interval: int = 32
    window: int = 256

    def __post_init__(self) -> None:
        if self.min_samples < 5:
            raise CalibrationError(
                f"min_samples must be >= 5 (piecewise fit minimum), "
                f"got {self.min_samples}"
            )
        if not 0.0 <= self.min_r2 <= 1.0:
            raise CalibrationError(f"min_r2 must be in [0, 1], got {self.min_r2}")
        if self.max_step <= 0:
            raise CalibrationError(f"max_step must be > 0, got {self.max_step}")
        if self.refit_interval < 1:
            raise CalibrationError(
                f"refit_interval must be >= 1, got {self.refit_interval}"
            )
        if self.window < self.min_samples:
            raise CalibrationError(
                f"window ({self.window}) must hold at least min_samples "
                f"({self.min_samples})"
            )


@dataclass(frozen=True)
class ModelEpoch:
    """One version of the installed model bundle.

    ``coefficients`` is the *complete* flattened coefficient map of the
    bundle live during this epoch (keys like ``"cpu.below.a"``,
    ``"gpu.2.a"``, ``"dict.cost_per_entry"``), so consecutive epochs can
    be diffed without re-deriving model structure.  ``families`` names
    the families actually refit in this epoch (empty for the initial
    epoch); ``samples``/``r2`` cover exactly those families;
    ``clamped`` lists the coefficient keys whose raw fit exceeded the
    max-step envelope and was clipped.
    """

    version: int
    time: float
    trigger: str  # "init" | "refit"
    families: tuple[str, ...]
    samples: Mapping[str, int]
    r2: Mapping[str, float]
    clamped: tuple[str, ...]
    coefficients: Mapping[str, float]


def flatten_coefficients(bundle: ModelBundle) -> dict[str, float]:
    """Flatten a bundle into the ``ModelEpoch.coefficients`` key space.

    Families whose model shape is outside the refit surface (a CPU
    model that is not piecewise power-law/linear, a GPU model that is
    not :class:`~repro.gpu.timing.LinearColumnTiming`) contribute no
    keys — they are opaque to the recalibrator and never refit.
    """
    out: dict[str, float] = {}
    model = bundle.cpu.model
    if (
        isinstance(model, PiecewiseModel)
        and isinstance(model.below, PowerLawModel)
        and isinstance(model.above, LinearModel)
    ):
        out["cpu.breakpoint"] = model.breakpoint
        out["cpu.below.a"] = model.below.a
        out["cpu.below.p"] = model.below.p
        out["cpu.above.a"] = model.above.a
        out["cpu.above.b"] = model.above.b
    gpu = bundle.gpu
    if isinstance(gpu, LinearColumnTiming):
        for n_sm, (a, b) in sorted(gpu.coefficients.items()):
            out[f"gpu.{n_sm}.a"] = a
            out[f"gpu.{n_sm}.b"] = b
    out["dict.cost_per_entry"] = bundle.dict_model.cost_per_entry
    return out


class OnlineRecalibrator:
    """Windowed re-fitting of the estimator's model bundle.

    Parameters
    ----------
    estimator:
        The live :class:`~repro.sim.system.SystemEstimator` (anything
        with ``models()``, ``install(bundle)`` and ``features(query)``).
    guards:
        The :class:`RecalGuards` safety envelope.
    now:
        Event time of the initial epoch (version 0, trigger ``"init"``).
    subscribers:
        The run's stage-stream table (:mod:`repro.core.stages`): every
        refit attempt is published as ``on_refit`` and every epoch,
        the initial one included, as ``on_epoch``.
    """

    def __init__(
        self,
        estimator,
        guards: RecalGuards | None = None,
        *,
        now: float = 0.0,
        subscribers: Subscribers = NO_SUBSCRIBERS,
    ):
        self._estimator = estimator
        self._subscribers = subscribers
        self.guards = guards if guards is not None else RecalGuards()
        g = self.guards
        self._cpu_window: deque[tuple[float, float]] = deque(maxlen=g.window)
        self._gpu_windows: dict[int, deque[tuple[float, float]]] = {}
        self._dict_window: deque[tuple[float, float]] = deque(maxlen=g.window)
        #: query_id -> (sc_mb, column_fraction, dict_work); FIFO-capped
        self._pending: dict[int, tuple[float | None, float, float]] = {}
        self._pending_order: deque[int] = deque()
        self._pending_cap = 4 * g.window
        #: queue name -> n_sm, learned from decisions (survives resplits)
        self._queue_sm: dict[str, int] = {}
        self._accepted = 0
        self.samples_ingested = 0
        self.poisoned = 0
        self.epochs: list[ModelEpoch] = []
        self.decisions_by_epoch: dict[int, int] = {}
        self.total_decisions = 0
        self._record_epoch(
            time=now, trigger="init", families=(), samples={}, r2={}, clamped=()
        )

    # -- epoch bookkeeping -------------------------------------------------

    @property
    def version(self) -> int:
        return self.epochs[-1].version

    def _record_epoch(self, *, time, trigger, families, samples, r2, clamped):
        epoch = ModelEpoch(
            version=len(self.epochs),
            time=time,
            trigger=trigger,
            families=tuple(families),
            samples=MappingProxyType(dict(samples)),
            r2=MappingProxyType(dict(r2)),
            clamped=tuple(clamped),
            coefficients=MappingProxyType(
                flatten_coefficients(self._estimator.models())
            ),
        )
        self.epochs.append(epoch)
        for publish in self._subscribers.on_epoch:
            publish(epoch, time)

    # -- observation entry points (fired under the engine lock) ------------

    def note_estimate(self, query) -> None:
        """Cache the query's model features for later sample routing."""
        sc_mb, frac, terms = self._estimator.features(query)
        work = float(sum(nlit * d_l for nlit, d_l in terms))
        qid = query.query_id
        if qid not in self._pending:
            self._pending_order.append(qid)
            if len(self._pending_order) > self._pending_cap:
                evicted = self._pending_order.popleft()
                self._pending.pop(evicted, None)
        self._pending[qid] = (sc_mb, frac, work)

    def note_decision(self, decision) -> None:
        """Count the decision against the current epoch; learn queue SMs."""
        target = decision.target
        if target.n_sm is not None:
            self._queue_sm[target.name] = target.n_sm
        v = self.version
        self.decisions_by_epoch[v] = self.decisions_by_epoch.get(v, 0) + 1
        self.total_decisions += 1

    def ingest(
        self,
        queue_name: str,
        query_id: int | None,
        measured: float,
        estimated: float,
        now: float,
    ) -> None:
        """Route one realised latency into its family window.

        Non-finite or non-positive measurements are rejected at the
        door (the estimate-poisoning defence): they are counted in
        :attr:`poisoned` and never reach a window.
        """
        if (
            not math.isfinite(measured)
            or measured <= 0.0
            or not math.isfinite(estimated)
        ):
            self.poisoned += 1
            return
        feats = self._pending.get(query_id) if query_id is not None else None
        if queue_name == "Q_TRANS":
            if feats is None or feats[2] <= 0.0:
                return
            self._dict_window.append((feats[2], measured))
        elif queue_name == "Q_CPU":
            if feats is None or feats[0] is None or feats[0] <= 0.0:
                return
            self._cpu_window.append((feats[0], measured))
        else:
            n_sm = self._queue_sm.get(queue_name)
            if n_sm is None or feats is None or feats[1] <= 0.0:
                return
            window = self._gpu_windows.get(n_sm)
            if window is None:
                window = deque(maxlen=self.guards.window)
                self._gpu_windows[n_sm] = window
            window.append((feats[1], measured))
        self.samples_ingested += 1
        self._accepted += 1
        if self._accepted % self.guards.refit_interval == 0:
            self.refit(now)

    # -- refitting ---------------------------------------------------------

    def _clamp(self, old: float, new: float) -> tuple[float, bool]:
        limit = self.guards.max_step * max(abs(old), _EPS)
        delta = new - old
        if delta > limit:
            return old + limit, True
        if delta < -limit:
            return old - limit, True
        return new, False

    def _emit(self, family: str, outcome: str, now: float) -> None:
        for publish in self._subscribers.on_refit:
            publish(family, outcome, now)

    def refit(self, now: float) -> ModelEpoch | None:
        """Attempt one refit pass over every family with enough samples.

        Families that clear all guards are installed together as one new
        epoch (a partial bundle carries the untouched families forward);
        returns the new :class:`ModelEpoch`, or ``None`` when nothing
        was installed.
        """
        bundle = self._estimator.models()
        families: list[str] = []
        samples: dict[str, int] = {}
        r2s: dict[str, float] = {}
        clamped: list[str] = []
        new_cpu = new_gpu = new_dict = None

        if len(self._cpu_window) >= self.guards.min_samples:
            outcome, new_cpu, r2, hits = self._refit_cpu(bundle.cpu)
            self._emit("cpu", outcome, now)
            if new_cpu is not None:
                families.append("cpu")
                samples["cpu"] = len(self._cpu_window)
                r2s["cpu"] = r2
                clamped.extend(hits)

        outcome, new_gpu, gpu_r2, gpu_n, hits = self._refit_gpu(bundle.gpu)
        if outcome is not None:
            self._emit("gpu", outcome, now)
        if new_gpu is not None:
            families.append("gpu")
            samples["gpu"] = gpu_n
            r2s["gpu"] = gpu_r2
            clamped.extend(hits)

        if len(self._dict_window) >= self.guards.min_samples:
            outcome, new_dict, r2, hits = self._refit_dict(bundle.dict_model)
            self._emit("dict", outcome, now)
            if new_dict is not None:
                families.append("dict")
                samples["dict"] = len(self._dict_window)
                r2s["dict"] = r2
                clamped.extend(hits)

        if not families:
            return None
        self._estimator.install(
            ModelBundle(
                cpu=new_cpu if new_cpu is not None else bundle.cpu,
                dict_model=new_dict if new_dict is not None else bundle.dict_model,
                gpu=new_gpu if new_gpu is not None else bundle.gpu,
            )
        )
        self._record_epoch(
            time=now,
            trigger="refit",
            families=families,
            samples=samples,
            r2=r2s,
            clamped=clamped,
        )
        return self.epochs[-1]

    def _refit_cpu(self, cur: CPUPerfModel):
        model = cur.model
        if not (
            isinstance(model, PiecewiseModel)
            and isinstance(model.below, PowerLawModel)
            and isinstance(model.above, LinearModel)
        ):
            return "unsupported", None, 0.0, []
        xs = np.array([x for x, _ in self._cpu_window])
        ys = np.array([y for _, y in self._cpu_window])
        # the window holds end-to-end service times; the model covers the
        # streaming part only, so strip the fixed dispatch overhead
        ys = ys - cur.dispatch_overhead
        keep = ys > 0.0
        xs, ys = xs[keep], ys[keep]
        below = xs < model.breakpoint
        above = ~below
        if len(xs) < self.guards.min_samples:
            return "rejected_fit", None, 0.0, []
        # a workload may live entirely on one side of the breakpoint
        # (the paper's in-memory tables are all far below 512 MB); refit
        # only the populated segment and keep the other side frozen
        fit_below = int(below.sum()) >= 3
        fit_above = int(above.sum()) >= 2
        if not fit_below and not fit_above:
            return "rejected_fit", None, 0.0, []
        try:
            fa = fit_power_law(xs[below], ys[below]) if fit_below else None
            fb = fit_linear(xs[above], ys[above]) if fit_above else None
        except CalibrationError:
            return "rejected_fit", None, 0.0, []
        obs: list[np.ndarray] = []
        preds: list[np.ndarray] = []
        if fa is not None:
            obs.append(ys[below])
            preds.append(fa.model.time_many(xs[below]))
        if fb is not None:
            obs.append(ys[above])
            preds.append(fb.model.time_many(xs[above]))
        r2 = r_squared(np.concatenate(obs), np.concatenate(preds))
        if r2 < self.guards.min_r2:
            return "low_r2", None, r2, []
        hits = []
        ba, bp = model.below.a, model.below.p
        if fa is not None:
            ba, c = self._clamp(model.below.a, fa.model.a)
            if c:
                hits.append("cpu.below.a")
            bp, c = self._clamp(model.below.p, fa.model.p)
            if c:
                hits.append("cpu.below.p")
        aa, ab = model.above.a, model.above.b
        if fb is not None:
            aa, c = self._clamp(model.above.a, fb.model.a)
            if c:
                hits.append("cpu.above.a")
            ab, c = self._clamp(model.above.b, fb.model.b)
            if c:
                hits.append("cpu.above.b")
        new = CPUPerfModel(
            model=PiecewiseModel(
                breakpoint=model.breakpoint,
                below=PowerLawModel(a=ba, p=bp),
                above=LinearModel(a=aa, b=max(ab, 0.0)),
            ),
            threads=cur.threads,
            dispatch_overhead=cur.dispatch_overhead,
        )
        return "installed", new, r2, hits

    def _refit_gpu(self, cur):
        """Refit per-SM lines; first install needs every routed SM class.

        Returns ``(outcome, model, worst_r2, total_samples, clamped)``;
        outcome is ``None`` when there was nothing to attempt (too few
        samples everywhere), so no counter noise accrues between real
        attempts.
        """
        if cur is not None and not isinstance(cur, LinearColumnTiming):
            if any(
                len(w) >= self.guards.min_samples
                for w in self._gpu_windows.values()
            ):
                return "unsupported", None, 0.0, 0, []
            return None, None, 0.0, 0, []
        ready = {
            n_sm: w
            for n_sm, w in self._gpu_windows.items()
            if len(w) >= self.guards.min_samples
        }
        if not ready:
            return None, None, 0.0, 0, []
        if cur is None:
            # no baseline to clamp against: require full coverage of every
            # SM class the scheduler has routed to before the first install
            required = set(self._queue_sm.values())
            if not required or not required.issubset(ready):
                return "rejected_fit", None, 0.0, 0, []
        coeffs = dict(cur.coefficients) if cur is not None else {}
        worst_r2 = 1.0
        total = 0
        hits: list[str] = []
        fitted: dict[int, tuple[float, float]] = {}
        for n_sm, window in sorted(ready.items()):
            xs = np.array([x for x, _ in window])
            ys = np.array([y for _, y in window])
            try:
                fit = fit_linear(xs, ys)
            except CalibrationError:
                return "rejected_fit", None, 0.0, 0, []
            if fit.r2 < self.guards.min_r2:
                return "low_r2", None, fit.r2, 0, []
            a, b = max(fit.model.a, 0.0), max(fit.model.b, 0.0)
            old = coeffs.get(n_sm)
            if old is not None:
                a, c = self._clamp(old[0], a)
                if c:
                    hits.append(f"gpu.{n_sm}.a")
                b, c = self._clamp(old[1], b)
                if c:
                    hits.append(f"gpu.{n_sm}.b")
            fitted[n_sm] = (max(a, 0.0), max(b, 0.0))
            worst_r2 = min(worst_r2, fit.r2)
            total += len(window)
        coeffs.update(fitted)
        return "installed", LinearColumnTiming(coefficients=coeffs), worst_r2, total, hits

    def _refit_dict(self, cur: DictPerfModel):
        xs = np.array([x for x, _ in self._dict_window])
        ys = np.array([y for _, y in self._dict_window])
        try:
            fit = fit_linear(xs, ys, through_origin=True)
        except CalibrationError:
            return "rejected_fit", None, 0.0, []
        if fit.model.a < 0:
            return "rejected_fit", None, 0.0, []
        if fit.r2 < self.guards.min_r2:
            return "low_r2", None, fit.r2, []
        hits = []
        a, c = self._clamp(cur.cost_per_entry, fit.model.a)
        if c:
            hits.append("dict.cost_per_entry")
        return "installed", DictPerfModel(cost_per_entry=max(a, 0.0)), fit.r2, hits
