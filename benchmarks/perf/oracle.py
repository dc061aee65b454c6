"""An answer oracle that shares no code path with the system under test.

Boolean masks over the fact table's columns, summed with numpy.  The
row set is the base table plus whatever batches the writer has folded
in.  Text literals are resolved against the dataset's vocabularies (the
position of a string is its code), not through the TranslationService.
"""

from __future__ import annotations

import math

import numpy as np

from repro.query.model import Query


class Oracle:
    def __init__(self, table, vocabularies, exact: bool = True):
        self._schema = table.schema
        self._parts = [table]
        self._codes = {
            column: {token: code for code, token in enumerate(vocab)}
            for column, vocab in vocabularies.items()
        }
        #: integer-valued measures compare with ==; a float measure sums in
        #: another order here than in a cube, so it compares to 1e-9 relative
        self.exact = exact

    def add_rows(self, batch) -> None:
        self._parts.append(batch)

    def _mask(self, part, query: Query) -> np.ndarray:
        mask = np.ones(len(part), dtype=bool)
        for cond in query.conditions:
            level = self._schema.dimension(cond.dimension).levels[cond.resolution]
            name = f"{cond.dimension}__{level.name}"
            column = part.column(name)
            if cond.is_range:
                mask &= (column >= cond.lo) & (column < cond.hi)
            else:
                codes = cond.codes or [self._codes[name][t] for t in cond.text_values]
                mask &= np.isin(column, codes)
        return mask

    def answer(self, query: Query, base_only: bool = False) -> float:
        """sum / count over the matching rows (the aggregates the workloads use)."""
        if query.agg not in ("sum", "count") or query.group_by:
            raise ValueError(f"oracle does not cover {query}")
        total = 0.0
        for part in self._parts[:1] if base_only else self._parts:
            mask = self._mask(part, query)
            if query.agg == "count":
                total += float(np.count_nonzero(mask))
            else:
                # times-the-mask adds only zeros and is 4x faster than boolean
                # indexing on a million rows
                total += float((part.column(query.measures[0]) * mask).sum())
        return total

    def matches(self, answer, query: Query, base_only: bool = False) -> bool:
        if answer is None:
            return False
        expected = self.answer(query, base_only)
        if self.exact:
            return answer == expected
        return math.isclose(answer, expected, rel_tol=1e-9, abs_tol=1e-9)
