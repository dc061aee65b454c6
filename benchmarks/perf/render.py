"""`Query` -> the front door's query language (see `repro.query.parser`).

The HTTP workload has to send text, and the text has to mean the query
the oracle will check: `checked` renders and parses back, so a lossy
rendering stops the run instead of producing a wrong-answer report.
"""

from __future__ import annotations

from typing import Mapping

from repro.olap.hierarchy import DimensionHierarchy
from repro.query.model import Condition, Query
from repro.query.parser import parse_query


def _column(dimension: str, resolution: int, hierarchies) -> str:
    return f"{dimension}.{hierarchies[dimension].levels[resolution].name}"


def _condition(cond: Condition, hierarchies) -> str:
    column = _column(cond.dimension, cond.resolution, hierarchies)
    if cond.is_range:
        return f"{column} IN [{cond.lo}, {cond.hi})"
    if cond.is_codes:
        return f"{column} IN ({', '.join(str(c) for c in cond.codes)})"
    literals = ", ".join("'" + t.replace("'", "\\'") + "'" for t in cond.text_values)
    return f"{column} IN ({literals})"


def render(query: Query, hierarchies: Mapping[str, DimensionHierarchy]) -> str:
    text = f"SELECT {query.agg}({', '.join(query.measures) or '*'})"
    if query.group_by:
        text += " BY " + ", ".join(
            _column(dim, res, hierarchies) for dim, res in query.group_by
        )
    if query.conditions:
        text += " WHERE " + " AND ".join(
            _condition(c, hierarchies) for c in query.conditions
        )
    return text


def checked(query: Query, hierarchies: Mapping[str, DimensionHierarchy]) -> str:
    """`render`, refusing any text that does not parse back to the same query."""
    text = render(query, hierarchies)
    parsed = parse_query(text, hierarchies)
    same = (
        parsed.conditions == query.conditions
        and parsed.agg == query.agg
        and parsed.measures == query.measures
        and parsed.group_by == query.group_by
    )
    if not same:
        raise ValueError(f"rendering lost information: {query} -> {text!r} -> {parsed}")
    return text
