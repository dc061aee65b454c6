"""Algebraic query model of the paper.

A query over an N-dimensional hybrid OLAP store is (eq. 1)::

    Q( C_1(f_1, t_1, r_1), ..., C_L(f_L, t_L, r_L), ..., C_N(f_N, t_N, r_N) )

where each *condition* :math:`C_L(f, t, r)` restricts dimension ``L`` to
the half-open coordinate range ``[f, t)`` at resolution ``r``.  Not every
dimension has to be constrained.  The cube resolution needed to answer
the query is :math:`R = \\max_i r_i` (eq. 2).

For GPU processing the query is *decomposed* (eq. 11) into per-column
predicates: the pair ``(dimension L, level K)`` of each condition selects
one column of the fact table (Figure 6).  The number of columns the GPU
must scan (eq. 12) is::

    C_QD = (# filtration conditions in Q_D) + (# data columns processed)

and the number of conditions whose parameters are text and must be
dictionary-translated before GPU submission is ``CDT_QD`` (eq. 16).

Conditions carry either integer coordinates (``lo``/``hi``) or string
literals (``text_values``) that the translation subsystem
(:mod:`repro.text.translator`) resolves to integer codes.  The CPU cube
path resolves strings directly against dimension member tables; only the
GPU path requires dictionary translation (Section III-F).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from repro.errors import DimensionError, QueryError, ResolutionError
from repro.olap.hierarchy import DimensionHierarchy

__all__ = [
    "Condition",
    "Query",
    "ColumnPredicate",
    "QueryDecomposition",
    "required_resolution",
    "dimension_column",
]

_query_counter = itertools.count(1)


def dimension_column(dimension: str, level_name: str) -> str:
    """Canonical fact-table column name for a (dimension, level) pair.

    The GPU fact table stores one column per dimension level (Figure 6);
    this helper fixes the naming convention used across the relational
    schema, the dictionaries and the query decomposition.
    """
    return f"{dimension}__{level_name}"


@dataclass(frozen=True)
class Condition:
    """One filtration condition :math:`C_L(f, t, r)`.

    Exactly one of the two parameter forms must be present:

    * numeric: ``lo``/``hi`` — a half-open integer coordinate range
      ``[lo, hi)`` at resolution ``resolution``;
    * textual: ``text_values`` — string literals that must be translated
      to integer codes before the condition can run on the GPU.  After
      translation the resolved codes live in ``codes``.

    ``codes`` may also be set directly for point/set predicates over
    dictionary-encoded columns.
    """

    dimension: str
    resolution: int
    lo: int | None = None
    hi: int | None = None
    text_values: tuple[str, ...] = ()
    codes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.dimension:
            raise QueryError("condition dimension must be non-empty")
        if self.resolution < 0:
            raise ResolutionError(f"condition resolution must be >= 0, got {self.resolution}")
        forms = sum(
            (
                self.lo is not None or self.hi is not None,
                bool(self.text_values),
                bool(self.codes),
            )
        )
        if forms == 0:
            raise QueryError(
                f"condition on {self.dimension!r} has no parameters "
                "(need lo/hi, text_values or codes)"
            )
        if forms > 1:
            raise QueryError(
                f"condition on {self.dimension!r} mixes parameter forms "
                "(numeric range, text values and codes are mutually exclusive)"
            )
        if self.lo is not None or self.hi is not None:
            if self.lo is None or self.hi is None:
                raise QueryError(
                    f"condition on {self.dimension!r} needs both lo and hi for a range"
                )
            if self.lo < 0 or self.hi <= self.lo:
                raise QueryError(
                    f"condition on {self.dimension!r}: invalid range [{self.lo}, {self.hi})"
                )
        # normalise mutable inputs
        if not isinstance(self.text_values, tuple):
            object.__setattr__(self, "text_values", tuple(self.text_values))
        if not isinstance(self.codes, tuple):
            object.__setattr__(self, "codes", tuple(self.codes))

    # -- predicate form -------------------------------------------------

    @property
    def is_range(self) -> bool:
        return self.lo is not None

    @property
    def is_text(self) -> bool:
        """True when the condition still carries untranslated strings (eq. 16)."""
        return bool(self.text_values)

    @property
    def is_codes(self) -> bool:
        return bool(self.codes)

    # -- geometry --------------------------------------------------------

    def width(self) -> int:
        """Number of selected coordinates at ``resolution``.

        This is the per-dimension factor of the sub-cube size law (eq. 3).
        Untranslated text conditions have no defined width; translating
        them first is the caller's job.
        """
        if self.is_range:
            assert self.lo is not None and self.hi is not None
            return self.hi - self.lo
        if self.is_codes:
            return len(set(self.codes))
        raise QueryError(
            f"condition on {self.dimension!r} is untranslated text; width is undefined"
        )

    def at_resolution(self, target: int, hierarchy: DimensionHierarchy) -> "Condition":
        """Re-express a numeric range condition at a finer resolution.

        The cube chosen to answer a query is at resolution
        ``R = max(r_i)``; conditions stated at coarser levels are refined
        to ``R`` so all conditions index the same cube (Section III-C).
        """
        if hierarchy.name != self.dimension:
            raise DimensionError(
                f"hierarchy {hierarchy.name!r} does not match condition dimension "
                f"{self.dimension!r}"
            )
        if target == self.resolution:
            return self
        if not self.is_range:
            raise QueryError(
                f"cannot refine non-range condition on {self.dimension!r}; "
                "translate text/code conditions before resolution conversion"
            )
        assert self.lo is not None and self.hi is not None
        lo, hi = hierarchy.refine_range(self.lo, self.hi, self.resolution, target)
        return replace(self, resolution=target, lo=lo, hi=hi)

    def translated(self, codes: Iterable[int]) -> "Condition":
        """Return the integer-code form of a text condition.

        Used by :class:`repro.text.translator.QueryTranslator` once the
        per-column dictionary has resolved every literal.
        """
        if not self.is_text:
            raise QueryError(f"condition on {self.dimension!r} is not a text condition")
        codes = tuple(sorted(set(codes)))
        if not codes:
            raise QueryError(
                f"translation of condition on {self.dimension!r} produced no codes"
            )
        return replace(self, text_values=(), codes=codes)

    def __str__(self) -> str:
        if self.is_range:
            param = f"[{self.lo}, {self.hi})"
        elif self.is_text:
            param = "{" + ", ".join(repr(t) for t in self.text_values) + "}"
        else:
            param = "codes{" + ", ".join(map(str, self.codes)) + "}"
        return f"C_{self.dimension}(r={self.resolution}, {param})"


def required_resolution(conditions: Iterable[Condition]) -> int:
    """Eq. 2: the cube resolution needed to answer a set of conditions.

    ``R = max(r_1, ..., r_N)``; an unconstrained query (no conditions)
    needs only the coarsest cube, resolution 0.
    """
    return max((c.resolution for c in conditions), default=0)


@dataclass(frozen=True)
class Query:
    """A complete OLAP query Q (eq. 1).

    Attributes
    ----------
    conditions:
        Filtration conditions, at most one per dimension (the paper's
        eq. 1 form).  Dimensions without a condition are unconstrained.
    measures:
        Names of the data columns to aggregate (eq. 12's
        "# of data columns processed by Q_D").
    agg:
        Aggregation operator name (``"sum"``, ``"count"``, ``"avg"``,
        ``"min"``, ``"max"``).
    group_by:
        ``(dimension, resolution)`` pairs to group the result by.  The
        paper's queries return a single aggregate (empty ``group_by``);
        grouped queries return one value per coordinate combination —
        the standard OLAP group-by this library supports as an
        extension.  A grouped dimension may also carry a condition
        (filter by month range, group by month).
    query_id:
        A unique identifier assigned at construction; used by the
        scheduler and the simulator to track queries through queues.
    """

    conditions: tuple[Condition, ...]
    measures: tuple[str, ...] = ("value",)
    agg: str = "sum"
    group_by: tuple[tuple[str, int], ...] = ()
    query_id: int = field(default_factory=lambda: next(_query_counter))

    _VALID_AGGS = frozenset({"sum", "count", "avg", "min", "max"})

    def __post_init__(self) -> None:
        if not isinstance(self.conditions, tuple):
            object.__setattr__(self, "conditions", tuple(self.conditions))
        if not isinstance(self.measures, tuple):
            object.__setattr__(self, "measures", tuple(self.measures))
        if not isinstance(self.group_by, tuple):
            object.__setattr__(self, "group_by", tuple(tuple(g) for g in self.group_by))
        if self.agg not in self._VALID_AGGS:
            raise QueryError(f"unknown aggregate {self.agg!r}; expected one of "
                             f"{sorted(self._VALID_AGGS)}")
        if not self.measures and self.agg != "count":
            raise QueryError("non-count queries must name at least one measure")
        dims = [c.dimension for c in self.conditions]
        if len(dims) != len(set(dims)):
            raise QueryError(
                "eq. 1 allows at most one condition per dimension; got duplicates in "
                f"{dims}"
            )
        group_dims = [g[0] for g in self.group_by]
        if len(group_dims) != len(set(group_dims)):
            raise QueryError(f"duplicate group-by dimensions in {group_dims}")
        for dim, res in self.group_by:
            if res < 0:
                raise ResolutionError(
                    f"group-by resolution must be >= 0, got {res} for {dim!r}"
                )

    # -- structure -------------------------------------------------------

    def condition_on(self, dimension: str) -> Condition | None:
        """The condition constraining ``dimension``, or None."""
        for c in self.conditions:
            if c.dimension == dimension:
                return c
        return None

    @property
    def required_resolution(self) -> int:
        """Eq. 2 applied to this query's conditions and group-by levels.

        Grouping by a level requires a cube at least that fine, exactly
        like filtering at it.
        """
        base = required_resolution(self.conditions)
        if self.group_by:
            base = max(base, max(res for _, res in self.group_by))
        return base

    @property
    def text_conditions(self) -> tuple[Condition, ...]:
        """Conditions still carrying string literals (the CDT set, eq. 16)."""
        return tuple(c for c in self.conditions if c.is_text)

    @property
    def needs_translation(self) -> bool:
        """True if the query cannot run on the GPU without translation."""
        return any(c.is_text for c in self.conditions)

    def answerable_from(self, measure: str) -> bool:
        """The measure rule: can aggregates of ``measure`` answer this query?

        A cube (pyramid, rollup catalog) pre-calculates one measure, so
        it answers queries on that measure only.  ``count`` is exempt:
        every cube carries the count component, identical across
        measures of one fact table.
        """
        return self.agg == "count" or not self.measures or measure in self.measures

    def with_conditions(self, conditions: Iterable[Condition]) -> "Query":
        """A copy of this query with replaced conditions (same identity)."""
        return replace(self, conditions=tuple(conditions))

    def __str__(self) -> str:
        conds = ", ".join(str(c) for c in self.conditions) or "ALL"
        return f"Q#{self.query_id}({self.agg} {','.join(self.measures)} | {conds})"


@dataclass(frozen=True)
class ColumnPredicate:
    """One entry of the decomposition Q_D (eq. 11).

    Binds a condition :math:`C_L(f, t, l_K)` to the fact-table column it
    scans.  ``is_text`` records whether the predicate's parameters need
    dictionary translation (this is what eq. 16 counts).
    """

    column: str
    condition: Condition

    @property
    def is_text(self) -> bool:
        return self.condition.is_text


@dataclass(frozen=True)
class QueryDecomposition:
    """The GPU-facing decomposition :math:`Q_D` of a query (eq. 11).

    Built by :meth:`decompose`.  Exposes exactly the quantities the
    paper's GPU performance model consumes:

    * :attr:`num_filtration_conditions` and :attr:`num_data_columns`,
      whose sum is :math:`C_{Q_D}` (eq. 12);
    * :attr:`num_text_conditions` = :math:`CDT_{Q_D}` (eq. 16);
    * :attr:`text_columns`, the per-column dictionary lookups needed for
      the :math:`T_{TRANS}` upper bound (eq. 18).
    """

    query: Query
    predicates: tuple[ColumnPredicate, ...]
    data_columns: tuple[str, ...]
    group_columns: tuple[str, ...] = ()

    @property
    def num_filtration_conditions(self) -> int:
        return len(self.predicates)

    @property
    def num_data_columns(self) -> int:
        return len(self.data_columns)

    @property
    def columns_accessed(self) -> int:
        """Eq. 12: total table columns the GPU must read for this query.

        Extended for grouped queries: group-by columns must also be
        streamed, but a column shared between a filter and a group is
        read once.
        """
        distinct = {p.column for p in self.predicates} | set(self.group_columns)
        return len(distinct) + self.num_data_columns

    @property
    def text_predicates(self) -> tuple[ColumnPredicate, ...]:
        return tuple(p for p in self.predicates if p.is_text)

    @property
    def num_text_conditions(self) -> int:
        """Eq. 16: :math:`CDT_{Q_D}`."""
        return len(self.text_predicates)

    @property
    def text_columns(self) -> tuple[str, ...]:
        """Fact-table columns whose dictionaries the translator must search."""
        return tuple(p.column for p in self.text_predicates)

    @property
    def needs_translation(self) -> bool:
        return self.num_text_conditions > 0

    def column_fraction(self, total_columns: int) -> float:
        """:math:`C_{Q_D} / C_{TOTAL}` — the abscissa of eq. 13/14."""
        if total_columns <= 0:
            raise QueryError("total_columns must be positive")
        return self.columns_accessed / total_columns


def decompose(
    query: Query,
    hierarchies: Mapping[str, DimensionHierarchy],
    data_columns: Sequence[str] | None = None,
) -> QueryDecomposition:
    """Decompose a query into per-column predicates (eq. 11).

    Parameters
    ----------
    query:
        The query to decompose.
    hierarchies:
        Dimension hierarchies of the fact table, keyed by dimension name.
        Each condition's ``(dimension, resolution)`` pair selects the
        fact-table column ``{dimension}__{level_name}``.
    data_columns:
        Measure columns the query aggregates; defaults to
        ``query.measures`` (for ``count`` queries with no measures, no
        data column is read).
    """
    predicates: list[ColumnPredicate] = []
    for cond in query.conditions:
        if cond.dimension not in hierarchies:
            raise DimensionError(
                f"query condition references unknown dimension {cond.dimension!r}; "
                f"known: {sorted(hierarchies)}"
            )
        hierarchy = hierarchies[cond.dimension]
        hierarchy.check_resolution(cond.resolution)
        level = hierarchy.level(cond.resolution)
        predicates.append(
            ColumnPredicate(column=dimension_column(cond.dimension, level.name), condition=cond)
        )
    group_columns: list[str] = []
    for dim, res in query.group_by:
        if dim not in hierarchies:
            raise DimensionError(
                f"group-by references unknown dimension {dim!r}; known: "
                f"{sorted(hierarchies)}"
            )
        hierarchy = hierarchies[dim]
        hierarchy.check_resolution(res)
        group_columns.append(dimension_column(dim, hierarchy.level(res).name))
    if data_columns is None:
        data_columns = query.measures if query.agg != "count" else ()
    return QueryDecomposition(
        query=query,
        predicates=tuple(predicates),
        data_columns=tuple(data_columns),
        group_columns=tuple(group_columns),
    )


# re-export decompose through QueryDecomposition for discoverability
QueryDecomposition.decompose = staticmethod(decompose)  # type: ignore[attr-defined]
