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

The literal rewrite is written once (:meth:`TranslationService.
_rewrite`, metered by one wrapper): :meth:`~TranslationService.
translate` and :meth:`~TranslationService.translate_batch` differ only
in the ``encode`` they hand it — a per-literal backend search, or cached
code maps behind one shared Aho–Corasick scan.  That union automaton is
built once and also serves :meth:`~TranslationService.scan_text`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import TranslationError, UnknownTokenError
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
        self._tables: tuple[AhoCorasick | None, bool, dict[str, dict[str, int]]] | None = None
        #: optional metrics hook, duck-typed so the text layer keeps no
        #: import on :mod:`repro.metrics` (see :class:`repro.metrics.
        #: instrument.TranslatorMetrics`): ``on_translated(lookups,
        #: seconds)`` per successful call, ``on_miss(seconds)`` per
        #: unknown-token rejection.  None-guarded: translation is
        #: timing-free when nothing is attached.
        self.metrics = None
        #: optional span hook (see :class:`repro.obs.hooks.
        #: TranslatorSpans`): ``on_translated(query_id, lookups,
        #: seconds)`` per successful call — a separate slot because the
        #: metrics protocol carries no query identity.
        self.spans = None

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
        return self._metered(query, lambda column: self.dictionary_for(column).encode)

    def _metered(self, query: Query, encoder_for) -> TranslationResult:
        """:meth:`_rewrite`, timed only when a metrics or span hook is attached."""
        metrics, spans = self.metrics, self.spans
        if metrics is None and spans is None:
            return self._rewrite(query, encoder_for)
        start = time.perf_counter()
        try:
            result = self._rewrite(query, encoder_for)
        except UnknownTokenError:
            if metrics is not None:
                metrics.on_miss(time.perf_counter() - start)
            raise
        elapsed = time.perf_counter() - start
        if metrics is not None:
            metrics.on_translated(result.parameters_translated, elapsed)
        if spans is not None:
            spans.on_translated(query.query_id, result.parameters_translated, elapsed)
        return result

    def _rewrite(self, query: Query, encoder_for) -> TranslationResult:
        """Replace every text literal of ``query`` by its code.

        ``encoder_for(column)`` returns that column's ``token -> code``
        function (raising :class:`TranslationError` for a column without
        a dictionary); the function raises :class:`UnknownTokenError`
        for a literal its dictionary does not hold.
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
            encode = encoder_for(column)
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

    # -- batch translation (amortised dictionary search) -------------------

    def _union_tables(self) -> tuple[AhoCorasick | None, bool, dict[str, dict[str, int]]]:
        """Lazily build the tables shared by batch translation and scanning.

        ``(automaton, separable, code_maps)``: one Aho–Corasick
        automaton over the union of all column vocabularies (the II-E
        machinery: one scan finds every known term; ``None`` when every
        vocabulary is empty), plus a token-to-code map per column for
        the authoritative per-column resolution.  ``separable`` is
        False when a vocabulary token contains the ``"\\x00"`` literal
        separator — the joined-text scan of :meth:`translate_batch`
        would be ambiguous, so its matching falls back to the code maps
        alone.
        """
        if self._tables is None:
            code_maps = {
                column: {tok: code for code, tok in enumerate(d.vocabulary)}
                for column, d in self._dictionaries.items()
            }
            union: dict[str, None] = {}
            for d in self._dictionaries.values():
                for tok in d.vocabulary:
                    union[tok] = None
            self._tables = (
                AhoCorasick(list(union)) if union else None,
                not any("\x00" in tok for tok in union),
                code_maps,
            )
        return self._tables

    @staticmethod
    def _known_literals(automaton: AhoCorasick | None, queries: Sequence[Query]):
        """One joined ``automaton`` scan over every literal of ``queries``.

        Returns an iterator of verdicts, one per literal in query,
        condition and literal order — True when the literal is a known
        term of the union vocabulary — or ``None`` when there is no
        automaton to scan with or nothing to scan.
        """
        literals = [
            lit for query in queries for cond in query.conditions for lit in cond.text_values
        ]
        if automaton is None or not literals:
            return None
        spans = {(m.start, m.end) for m in automaton.longest_matches("\x00".join(literals))}
        verdicts = []
        pos = 0
        for lit in literals:
            end = pos + len(lit)
            verdicts.append((pos, end) in spans)
            pos = end + 1  # skip the separator
        return iter(verdicts)

    def translate_batch(self, queries: Sequence[Query]) -> list[TranslationResult]:
        """Translate a batch of queries with one shared dictionary scan.

        Results — translated queries, lookup tuples, metrics events and
        the :class:`UnknownTokenError` raised at the first
        untranslatable literal — are identical to calling
        :meth:`translate` per query in order.  The work is amortised:
        every literal of every query is joined into one ``"\\x00"``-
        separated text and matched by a single Aho–Corasick pass over
        the union vocabulary (a literal is a known term iff its slot is
        covered by one leftmost-longest match — patterns cannot cross
        the separator), after which codes come from cached per-column
        token maps instead of per-literal backend searches.  Dictionary
        backends are therefore not consulted, so their ``probes``
        counters reflect the amortised cost, not the scalar path's.
        """
        queries = list(queries)
        automaton, separable, code_maps = self._union_tables()
        known = self._known_literals(automaton if separable else None, queries)

        def encoder_for(column: str):
            col_map = code_maps.get(column)
            if col_map is None:
                self.dictionary_for(column)  # raises TranslationError

            def encode(token: str) -> int:
                # the rewrite asks in scan order: one verdict per literal
                code = col_map.get(token) if known is None or next(known) else None
                if code is None:
                    raise UnknownTokenError(column, token)
                return code

            return encode

        return [self._metered(query, encoder_for) for query in queries]

    # -- free-text scanning (Aho-Corasick front-end) -----------------------

    def scan_text(self, text: str) -> list[tuple[str, Match]]:
        """Locate dictionary terms inside free-form query text.

        Uses the (lazily built, shared) Aho–Corasick automaton over the
        union of all column vocabularies and returns leftmost-longest
        matches tagged with the column each term belongs to.  Terms
        appearing in several dictionaries are reported once per column.
        """
        automaton, _, _ = self._union_tables()
        if automaton is None:
            return []
        results: list[tuple[str, Match]] = []
        for match in automaton.longest_matches(text):
            for column, dictionary in self._dictionaries.items():
                if match.keyword in dictionary:
                    results.append((column, match))
        return results
