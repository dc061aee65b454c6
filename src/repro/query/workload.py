"""Synthetic query workloads.

The paper evaluates its system with a stream of queries of mixed
resolution and selectivity (Section IV): some answerable from tiny
cubes, some sweeping the ~500 MB or ~32 GB cubes, some requiring the
GPU's raw fact table, and a fraction carrying string parameters that
must be dictionary-translated.  The exact mix is not published, so the
workload is parameterised by :class:`QueryClass` weights and reverse-
engineered per experiment (see EXPERIMENTS.md).

A :class:`WorkloadSpec` draws queries from weighted classes; an
:class:`ArrivalProcess` assigns submission times (closed/saturated,
Poisson, or uniform-rate), producing a :class:`QueryStream` the
discrete-event system consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.olap.hierarchy import DimensionHierarchy
from repro.query.model import Condition, Query, dimension_column

__all__ = ["QueryClass", "WorkloadSpec", "ArrivalProcess", "QueryStream", "TimedQuery"]


@dataclass(frozen=True)
class QueryClass:
    """One stratum of the query mix.

    Attributes
    ----------
    name:
        Label for reporting (per-class throughput breakdowns).
    weight:
        Relative frequency of this class in the mix.
    resolution:
        Resolution of the finest condition the class generates — this
        is what eq. 2 evaluates to and thus which pyramid level (or the
        GPU) answers the query.
    dims_constrained:
        ``(min, max)`` number of dimensions to constrain (inclusive).
    coverage:
        ``(lo, hi)`` fraction of each constrained axis covered by the
        condition's range; drawn uniformly per condition.  Coverage 1.0
        with all dims constrained is a full-cube scan.
    text_prob:
        Probability that the query carries an *additional* condition on
        a text level (an IN-list of string literals).  Text predicates
        model filters on string attributes — city names, item names,
        customer names — and are what forces GPU-bound queries through
        the translation partition.  When the text level's dimension is
        absent from the CPU's cube pyramid (e.g. a customer attribute
        the cube does not materialise), such queries become GPU-only.
    text_values_per_condition:
        Number of literals in a generated text condition (an IN-list).
    text_as_codes:
        Emit text conditions as pre-translated integer code sets instead
        of raw strings.  Used by the translation-overhead experiment to
        compare identical query geometry with and without translation
        work (Section IV's ~64 vs ~69 q/s measurement).
    aggs:
        Aggregate operators to draw from, uniformly.
    """

    name: str
    weight: float
    resolution: int
    dims_constrained: tuple[int, int] = (1, 3)
    coverage: tuple[float, float] = (0.1, 0.5)
    text_prob: float = 0.0
    text_values_per_condition: int = 1
    text_as_codes: bool = False
    aggs: tuple[str, ...] = ("sum",)

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise WorkloadError(f"class {self.name!r}: weight must be >= 0")
        if self.resolution < 0:
            raise WorkloadError(f"class {self.name!r}: resolution must be >= 0")
        lo, hi = self.dims_constrained
        if not (0 <= lo <= hi):
            raise WorkloadError(f"class {self.name!r}: bad dims_constrained {self.dims_constrained}")
        clo, chi = self.coverage
        if not (0.0 < clo <= chi <= 1.0):
            raise WorkloadError(f"class {self.name!r}: coverage must be in (0, 1], got {self.coverage}")
        if not 0.0 <= self.text_prob <= 1.0:
            raise WorkloadError(f"class {self.name!r}: text_prob must be in [0, 1]")
        if self.text_values_per_condition < 1:
            raise WorkloadError(f"class {self.name!r}: need >= 1 text value per condition")


class TimedQuery(NamedTuple):
    """A query with its submission time (seconds from stream start)."""

    time: float
    query: Query
    query_class: str


@dataclass(frozen=True)
class ArrivalProcess:
    """Submission-time process for a query stream.

    ``kind``:

    * ``"closed"`` — all queries available at t=0 (saturation test; the
      throughput of a saturated system is what Tables 1-3 report);
    * ``"poisson"`` — Poisson arrivals at ``rate`` queries/second;
    * ``"uniform"`` — deterministic arrivals every ``1/rate`` seconds.
    """

    kind: str = "closed"
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("closed", "poisson", "uniform"):
            raise WorkloadError(f"unknown arrival kind {self.kind!r}")
        if self.kind != "closed" and self.rate <= 0:
            raise WorkloadError(f"{self.kind} arrivals need a positive rate")

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise WorkloadError("n must be >= 0")
        if self.kind == "closed":
            return np.zeros(n)
        if self.kind == "uniform":
            return np.arange(n) / self.rate
        gaps = rng.exponential(1.0 / self.rate, size=n)
        return np.cumsum(gaps) - gaps[0] if n else np.zeros(0)


class QueryStream:
    """A materialised sequence of :class:`TimedQuery`."""

    def __init__(self, entries: Sequence[TimedQuery]):
        self._entries = tuple(sorted(entries, key=lambda e: e.time))

    def __iter__(self) -> Iterator[TimedQuery]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i: int) -> TimedQuery:
        return self._entries[i]

    @property
    def queries(self) -> tuple[Query, ...]:
        return tuple(e.query for e in self._entries)


class WorkloadSpec:
    """Weighted-mix query generator.

    Parameters
    ----------
    dimensions:
        The dimension hierarchies queries range over.
    classes:
        The strata of the mix (weights need not sum to 1).
    measures:
        Measure names to aggregate (one drawn per query).
    text_levels:
        ``(dimension, level_name)`` pairs that may carry string literals.
    vocabularies:
        ``column -> vocabulary`` for generating *valid* string literals
        (keys follow :func:`~repro.query.model.dimension_column`).
        Classes with ``text_prob > 0`` require vocabularies for at least
        one text level.
    range_dimensions:
        Dimension names eligible for range conditions; defaults to all.
        Restricting this keeps text-only attributes (e.g. a customer
        dimension absent from the cube pyramid) out of the structural
        part of the mix.
    seed:
        RNG seed; streams are fully deterministic given (spec, n, seed).
    """

    def __init__(
        self,
        dimensions: Sequence[DimensionHierarchy],
        classes: Sequence[QueryClass],
        measures: Sequence[str] = ("value",),
        text_levels: Sequence[tuple[str, str]] = (),
        vocabularies: Mapping[str, Sequence[str]] | None = None,
        range_dimensions: Sequence[str] | None = None,
        seed: int = 2012,
    ):
        if not dimensions:
            raise WorkloadError("workload needs at least one dimension")
        if not classes:
            raise WorkloadError("workload needs at least one query class")
        total_weight = sum(c.weight for c in classes)
        if total_weight <= 0:
            raise WorkloadError("query class weights must sum to > 0")
        if not measures:
            raise WorkloadError("workload needs at least one measure")
        self.dimensions = tuple(dimensions)
        self._by_name = {d.name: d for d in dimensions}
        self.classes = tuple(classes)
        self.measures = tuple(measures)
        self.text_levels = tuple(text_levels)
        self.vocabularies = dict(vocabularies or {})
        self.seed = seed
        self._probs = np.array([c.weight for c in classes], dtype=float) / total_weight
        if range_dimensions is None:
            self.range_dimensions: tuple[DimensionHierarchy, ...] = self.dimensions
        else:
            unknown = [n for n in range_dimensions if n not in self._by_name]
            if unknown:
                raise WorkloadError(f"unknown range dimensions: {unknown}")
            self.range_dimensions = tuple(self._by_name[n] for n in range_dimensions)

        # (dimension, resolution, column) triples available for text
        # conditions: declared text levels that have a vocabulary.
        self._text_choices: list[tuple[str, int, str]] = []
        for dim_name, level_name in self.text_levels:
            d = self._by_name.get(dim_name)
            if d is None:
                continue
            column = dimension_column(dim_name, level_name)
            if column in self.vocabularies:
                self._text_choices.append((dim_name, d.resolution_of(level_name), column))

        for cls in classes:
            deep_enough = [
                d for d in self.range_dimensions if d.finest_resolution >= cls.resolution
            ]
            if cls.dims_constrained[0] > 0 and not deep_enough:
                raise WorkloadError(
                    f"class {cls.name!r} needs resolution {cls.resolution} but no "
                    "range dimension is that deep"
                )
            if cls.text_prob > 0 and not self._text_choices:
                raise WorkloadError(
                    f"class {cls.name!r} has text_prob > 0 but no text level has a "
                    "vocabulary"
                )

    def _range_condition(
        self, d: DimensionHierarchy, resolution: int, cls: QueryClass, rng: np.random.Generator
    ) -> Condition:
        card = d.cardinality(resolution)
        frac = rng.uniform(*cls.coverage)
        width = int(np.clip(round(frac * card), 1, card))
        lo = int(rng.integers(0, card - width + 1))
        return Condition(d.name, resolution, lo=lo, hi=lo + width)

    def _text_condition(
        self,
        dim_name: str,
        resolution: int,
        column: str,
        cls: QueryClass,
        rng: np.random.Generator,
    ) -> Condition:
        vocab = self.vocabularies[column]
        k = min(cls.text_values_per_condition, len(vocab))
        codes = rng.choice(len(vocab), size=k, replace=False)
        if cls.text_as_codes:
            return Condition(dim_name, resolution, codes=tuple(int(c) for c in codes))
        return Condition(
            dim_name, resolution, text_values=tuple(vocab[int(c)] for c in codes)
        )

    # -- generation -----------------------------------------------------------

    def make_query(self, cls: QueryClass, rng: np.random.Generator) -> Query:
        """Draw one query from a class.

        Range conditions: the first constrained dimension carries the
        class resolution (so eq. 2 yields exactly ``cls.resolution``),
        the rest draw a coarser-or-equal level.  With probability
        ``cls.text_prob`` an extra text condition is appended on a text
        level of a dimension not already constrained.
        """
        eligible = [
            d for d in self.range_dimensions if d.finest_resolution >= cls.resolution
        ]
        lo, hi = cls.dims_constrained
        hi = min(hi, len(self.range_dimensions))
        n_dims = int(rng.integers(lo, hi + 1)) if hi >= lo else lo
        n_dims = max(0, min(n_dims, len(self.range_dimensions)))

        conditions: list[Condition] = []
        constrained: set[str] = set()
        if n_dims:
            # first condition: a dimension deep enough for the class
            # resolution, carrying exactly that resolution
            first = eligible[int(rng.integers(len(eligible)))]
            conditions.append(self._range_condition(first, cls.resolution, cls, rng))
            constrained.add(first.name)
            remaining = [d for d in self.range_dimensions if d.name != first.name]
            if n_dims > 1 and remaining:
                picks = rng.choice(
                    len(remaining), size=min(n_dims - 1, len(remaining)), replace=False
                )
                for idx in picks:
                    d = remaining[int(idx)]
                    resolution = min(
                        int(rng.integers(0, cls.resolution + 1)), d.finest_resolution
                    )
                    conditions.append(self._range_condition(d, resolution, cls, rng))
                    constrained.add(d.name)

        if cls.text_prob > 0 and rng.random() < cls.text_prob:
            free = [
                (dn, res, col)
                for dn, res, col in self._text_choices
                if dn not in constrained
            ]
            if free:
                dn, res, col = free[int(rng.integers(len(free)))]
                conditions.append(self._text_condition(dn, res, col, cls, rng))

        agg = cls.aggs[int(rng.integers(len(cls.aggs)))]
        measure = self.measures[int(rng.integers(len(self.measures)))]
        measures = () if agg == "count" else (measure,)
        return Query(conditions=tuple(conditions), measures=measures, agg=agg)

    def generate(self, n: int, arrivals: ArrivalProcess | None = None) -> QueryStream:
        """Generate a deterministic stream of ``n`` timed queries."""
        if n < 0:
            raise WorkloadError("n must be >= 0")
        rng = np.random.default_rng(self.seed)
        arrivals = arrivals or ArrivalProcess("closed")
        times = arrivals.times(n, rng)
        class_idx = rng.choice(len(self.classes), size=n, p=self._probs)
        entries = []
        for t, ci in zip(times, class_idx):
            cls = self.classes[int(ci)]
            entries.append(TimedQuery(float(t), self.make_query(cls, rng), cls.name))
        return QueryStream(entries)
