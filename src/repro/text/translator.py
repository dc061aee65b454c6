"""Query translation service — the CPU preprocessing partition's job.

Section III-F/III-G: every query scheduled to the GPU that carries text
parameters must first be translated on the CPU's *preprocessing
partition*.  :class:`TranslationService` owns the per-column
dictionaries, reports each one's length :math:`D_{L|i}` (eq. 16-17) and
performs the actual literal-to-code translation.

The translation-time upper bound of eq. 18 belongs to the estimator:
:class:`~repro.sim.system.SystemEstimator` evaluates the configured
:class:`~repro.core.perfmodel.DictPerfModel` over the dictionary lengths
this service reports, so the figure the scheduler books has one owner.

The service outlives any one run and keeps no per-run telemetry: the
translation stage's time and failures are the ``Q_TRANS`` station's,
published on the run's stage stream like every other stage's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import TranslationError
from repro.olap.hierarchy import DimensionHierarchy
from repro.query.model import Condition, Query, decompose
from repro.text.ahocorasick import AhoCorasick, Match
from repro.text.dictionary import ColumnDictionary

__all__ = ["TranslationService", "TranslationResult"]


@dataclass(frozen=True)
class TranslationResult:
    """A translated query plus the realised work of translating it.

    Attributes
    ----------
    query:
        The query with every text condition replaced by integer codes.
    parameters_translated:
        Number of string literals resolved (the realised workload of the
        translation partition).
    lookups:
        ``(column, token, code)`` per literal, in translation order.
    """

    query: Query
    parameters_translated: int
    lookups: tuple[tuple[str, str, int], ...]


class TranslationService:
    """Translates query text parameters to integer codes via dictionaries.

    Parameters
    ----------
    dictionaries:
        Per-column dictionaries, keyed by fact-table column name
        (``"store__city"``...).
    hierarchies:
        Dimension hierarchies of the fact table, used to resolve each
        condition's ``(dimension, resolution)`` pair to its column.
    """

    def __init__(
        self,
        dictionaries: Mapping[str, ColumnDictionary],
        hierarchies: Mapping[str, DimensionHierarchy],
    ):
        for column, dictionary in dictionaries.items():
            if dictionary.column != column:
                raise TranslationError(
                    f"dictionary registered under {column!r} claims column "
                    f"{dictionary.column!r}"
                )
        self._dictionaries = dict(dictionaries)
        self._hierarchies = dict(hierarchies)
        self._automaton: AhoCorasick | None = None

    # -- introspection -------------------------------------------------------

    @property
    def dictionaries(self) -> Mapping[str, ColumnDictionary]:
        return dict(self._dictionaries)

    def dictionary_for(self, column: str) -> ColumnDictionary:
        try:
            return self._dictionaries[column]
        except KeyError:
            raise TranslationError(
                f"no dictionary for column {column!r}; known: "
                f"{sorted(self._dictionaries)}"
            ) from None

    def dictionary_length(self, column: str) -> int:
        """:math:`D_{L|i}` for a column (eq. 17)."""
        return len(self.dictionary_for(column))

    # -- translation -------------------------------------------------------

    def translate(self, query: Query) -> TranslationResult:
        """Translate every text condition of ``query``.

        Raises :class:`UnknownTokenError` when a literal is absent from
        its column dictionary — the query cannot match any row, and the
        paper's system would reject it at preprocessing time rather than
        waste a GPU partition on it.
        """
        decomposition = decompose(query, self._hierarchies)
        if not decomposition.needs_translation:
            return TranslationResult(query=query, parameters_translated=0, lookups=())

        column_of = {id(p.condition): p.column for p in decomposition.predicates}
        lookups: list[tuple[str, str, int]] = []
        new_conditions: list[Condition] = []
        for cond in query.conditions:
            if not cond.is_text:
                new_conditions.append(cond)
                continue
            column = column_of[id(cond)]
            encode = self.dictionary_for(column).encode
            codes = []
            for token in cond.text_values:
                code = encode(token)  # may raise UnknownTokenError
                codes.append(code)
                lookups.append((column, token, code))
            new_conditions.append(cond.translated(codes))
        translated = query.with_conditions(new_conditions)
        return TranslationResult(
            query=translated,
            parameters_translated=len(lookups),
            lookups=tuple(lookups),
        )

    def translate_batch(self, queries: Sequence[Query]) -> list[TranslationResult]:
        """:meth:`translate` per query, in order (the first
        :class:`UnknownTokenError` propagates)."""
        return [self.translate(query) for query in queries]

    # -- free-text scanning (Aho-Corasick front-end) -----------------------

    def scan_text(self, text: str) -> list[tuple[str, Match]]:
        """Locate dictionary terms inside free-form query text.

        Uses an Aho–Corasick automaton over the union of all column
        vocabularies (the II-E machinery, built on first use) and returns
        leftmost-longest matches tagged with the column each term
        belongs to.  Terms appearing in several dictionaries are
        reported once per column.
        """
        if self._automaton is None:
            union = dict.fromkeys(tok for d in self._dictionaries.values() for tok in d.vocabulary)
            if not union:
                return []
            self._automaton = AhoCorasick(list(union))
        results: list[tuple[str, Match]] = []
        for match in self._automaton.longest_matches(text):
            for column, dictionary in self._dictionaries.items():
                if match.keyword in dictionary:
                    results.append((column, match))
        return results
