"""Natural-language request parsing (text → query).

The deployed system relies on the Google Assistant framework, trained
with a few samples, to extract a target column and equality predicates
from the voice transcript (Section III).  This module provides the
offline equivalent: a lexicon-based extractor built from the table's
column metadata plus optional synonyms.  Its output contract matches
the original — a target column and a set of equality predicates — and
it additionally detects the request categories the deployment analysis
distinguishes (help, repeat, comparisons, extrema, other).

Parsing must stay cheap at serving time — the paper's run-time budget is
"near zero" (Figure 10) and the serving service parses on the event
loop — so the parser token-indexes its lexicons at construction time: a
word token → lexicon phrases map lets :meth:`parse` verify only the
phrases whose leading token actually occurs in the request, instead of
regex-probing the full vocabulary per request.  The index is purely a
candidate filter (every candidate still passes the original
word-boundary check), so parsed output is identical to the full scan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Sequence

from repro.system.config import SummarizationConfig
from repro.system.queries import DataQuery
from repro.relational.table import Table


class RequestKind(Enum):
    """Coarse categories of an incoming voice request."""

    HELP = "help"
    REPEAT = "repeat"
    QUERY = "query"
    COMPARISON = "comparison"
    EXTREMUM = "extremum"
    OTHER = "other"


@dataclass
class ParsedRequest:
    """Result of parsing one voice request.

    ``query`` is populated for data-access requests; comparisons and
    extrema also carry the extracted query skeleton when possible so the
    analysis can count them among data-access queries.
    ``value_mentions`` lists *every* recognised dimension value (possibly
    several for the same dimension, as in "between East and West") and
    ``mentioned_dimension`` records a dimension referenced by name
    ("which region ..."); both feed the comparison/extremum extension.
    """

    text: str
    kind: RequestKind
    query: DataQuery | None = None
    matched_values: dict[str, Any] = field(default_factory=dict)
    value_mentions: list[tuple[str, Any]] = field(default_factory=list)
    mentioned_dimension: str | None = None
    wants_minimum: bool = False


#: Word tokens used by the candidate index (mirrors the ``\b`` boundary
#: semantics of the phrase regexes: a phrase can only match when its
#: leading word token occurs in the text).
_WORD_TOKEN = re.compile(r"\w+")

_HELP_PATTERNS = ("help", "what can i ask", "what can you do", "how do i", "instructions")
_REPEAT_PATTERNS = ("repeat", "say that again", "once more", "come again")
_COMPARISON_PATTERNS = ("compare", "comparison", " versus ", " vs ", "difference between")
_EXTREMUM_PATTERNS = (
    "highest", "lowest", "most ", "least ", "maximum", "minimum", "worst", "best ",
    "which has the", "who has the",
)


class NaturalLanguageParser:
    """Lexicon-based extractor for target columns and equality predicates.

    Parameters
    ----------
    config:
        Summarization configuration (names the dimensions and targets).
    table:
        The data table; its distinct dimension values form the predicate
        lexicon.
    target_synonyms:
        Extra phrases that map to a target column, e.g.
        ``{"cancellation": ["cancellations", "cancelled flights"]}``.
    dimension_synonyms:
        Extra phrases that map a *value* to a (dimension, value) pair,
        e.g. ``{"nyc": ("borough", "Manhattan")}``.
    """

    def __init__(
        self,
        config: SummarizationConfig,
        table: Table,
        target_synonyms: Mapping[str, Sequence[str]] | None = None,
        dimension_synonyms: Mapping[str, tuple[str, Any]] | None = None,
    ):
        self._config = config
        self._target_lexicon = self._build_target_lexicon(config.targets, target_synonyms)
        self._value_lexicon = self._build_value_lexicon(config.dimensions, table)
        for phrase, (dimension, value) in (dimension_synonyms or {}).items():
            self._value_lexicon[phrase.lower()] = (dimension, value)
        # Phrase lists in the exact order the scan path visits them:
        # values longest-first (ties by insertion), targets in insertion
        # order.  The token index stores positions into these lists so
        # filtered candidates preserve the scan order — and with it the
        # first-match/containment tie-breaking — exactly.
        self._ranked_value_phrases = sorted(self._value_lexicon, key=len, reverse=True)
        self._value_index, self._unindexed_values = self._index_phrases(
            self._ranked_value_phrases
        )
        self._target_phrases = list(self._target_lexicon)
        self._target_index, self._unindexed_targets = self._index_phrases(
            self._target_phrases
        )
        # Dimension name phrases, precomputed once: (candidate, dimension)
        # pairs in configuration order, full name before head noun.
        self._dimension_phrases: list[tuple[str, str]] = []
        for dimension in config.dimensions:
            phrase = dimension.replace("_", " ").lower()
            self._dimension_phrases.append((phrase, dimension))
            if " " in phrase:
                self._dimension_phrases.append((phrase.split()[-1], dimension))

    # ------------------------------------------------------------------
    # Lexicon construction
    # ------------------------------------------------------------------
    @staticmethod
    def _build_target_lexicon(
        targets: Sequence[str],
        synonyms: Mapping[str, Sequence[str]] | None,
    ) -> dict[str, str]:
        lexicon: dict[str, str] = {}
        for target in targets:
            phrase = target.replace("_", " ").lower()
            lexicon[phrase] = target
            # Individual informative words of the column name also map to it.
            for word in phrase.split():
                if len(word) > 3:
                    lexicon.setdefault(word, target)
        for target, phrases in (synonyms or {}).items():
            for phrase in phrases:
                lexicon[phrase.lower()] = target
        return lexicon

    @staticmethod
    def _build_value_lexicon(
        dimensions: Sequence[str], table: Table
    ) -> dict[str, tuple[str, Any]]:
        lexicon: dict[str, tuple[str, Any]] = {}
        for dimension in dimensions:
            for value in table.column(dimension).distinct_values():
                phrase = str(value).lower()
                # Values shared by several dimensions keep the first
                # dimension (stable order); callers can disambiguate
                # through dimension_synonyms.
                lexicon.setdefault(phrase, (dimension, value))
        return lexicon

    @staticmethod
    def _index_phrases(
        phrases: Sequence[str],
    ) -> tuple[dict[str, list[int]], tuple[int, ...]]:
        """Map leading word token → positions of phrases starting with it.

        Positions index into ``phrases`` (whose order is the scan
        order).  Phrases without any word token cannot be pre-filtered
        by tokens and are returned separately as always-candidates.
        """
        index: dict[str, list[int]] = {}
        unindexed: list[int] = []
        for position, phrase in enumerate(phrases):
            tokens = _WORD_TOKEN.findall(phrase)
            if tokens:
                index.setdefault(tokens[0], []).append(position)
            else:
                unindexed.append(position)
        return index, tuple(unindexed)

    def _candidates(
        self,
        text: str,
        phrases: list[str],
        index: dict[str, list[int]],
        unindexed: tuple[int, ...],
    ) -> list[str]:
        """Phrases that can possibly match ``text``, in scan order.

        A ``\\b``-anchored phrase match implies the phrase's leading
        word token occurs as a token of the text, so filtering by the
        text's token set never drops a true match; sorting the surviving
        positions restores the scan order exactly.
        """
        positions = set(unindexed)
        for token in set(_WORD_TOKEN.findall(text)):
            positions.update(index.get(token, ()))
        if len(positions) == len(phrases):
            return phrases
        return [phrases[position] for position in sorted(positions)]

    def _candidate_value_phrases(self, text: str) -> list[str]:
        return self._candidates(
            text, self._ranked_value_phrases, self._value_index, self._unindexed_values
        )

    def _candidate_target_phrases(self, text: str) -> list[str]:
        return self._candidates(
            text, self._target_phrases, self._target_index, self._unindexed_targets
        )

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    def parse(self, text: str) -> ParsedRequest:
        """Parse one voice request into a :class:`ParsedRequest`."""
        normalised = f" {text.strip().lower()} "
        if self._matches_any(normalised, _HELP_PATTERNS):
            return ParsedRequest(text=text, kind=RequestKind.HELP)
        if self._matches_any(normalised, _REPEAT_PATTERNS):
            return ParsedRequest(text=text, kind=RequestKind.REPEAT)

        target = self._extract_target(normalised)
        predicates = self._extract_predicates(normalised)
        mentions = self.extract_value_mentions(normalised)
        dimension = self.extract_dimension_mention(normalised)

        if self._matches_any(normalised, _COMPARISON_PATTERNS):
            query = DataQuery.create(target, predicates) if target else None
            return ParsedRequest(
                text=text,
                kind=RequestKind.COMPARISON,
                query=query,
                matched_values=predicates,
                value_mentions=mentions,
                mentioned_dimension=dimension,
            )
        if self._matches_any(normalised, _EXTREMUM_PATTERNS):
            query = DataQuery.create(target, predicates) if target else None
            wants_minimum = self._matches_any(
                normalised, ("lowest", "least ", "minimum", "fewest", "smallest")
            )
            return ParsedRequest(
                text=text,
                kind=RequestKind.EXTREMUM,
                query=query,
                matched_values=predicates,
                value_mentions=mentions,
                mentioned_dimension=dimension,
                wants_minimum=wants_minimum,
            )
        if target is None:
            return ParsedRequest(text=text, kind=RequestKind.OTHER, matched_values=predicates)
        return ParsedRequest(
            text=text,
            kind=RequestKind.QUERY,
            query=DataQuery.create(target, predicates),
            matched_values=predicates,
            value_mentions=mentions,
        )

    # ------------------------------------------------------------------
    # Extraction internals
    # ------------------------------------------------------------------
    @staticmethod
    def _matches_any(text: str, patterns: Sequence[str]) -> bool:
        return any(pattern in text for pattern in patterns)

    def _extract_target(self, text: str) -> str | None:
        """The target column whose longest synonym appears in the text."""
        best: str | None = None
        best_length = 0
        for phrase in self._candidate_target_phrases(text):
            if len(phrase) > best_length and self._phrase_in_text(phrase, text):
                best = self._target_lexicon[phrase]
                best_length = len(phrase)
        return best

    def extract_value_mentions(self, text: str) -> list[tuple[str, Any]]:
        """Every recognised dimension value, in text order of first match.

        Unlike :meth:`_extract_predicates`, a dimension may contribute
        several values ("between East and West"); phrases contained in a
        longer matched phrase are still skipped.
        """
        normalised = f" {text.strip().lower()} "
        mentions: list[tuple[str, int]] = []
        matched_phrases: list[str] = []
        for phrase in self._candidate_value_phrases(normalised):
            match = re.search(r"\b" + re.escape(phrase) + r"\b", normalised)
            if not match:
                continue
            if any(phrase in longer for longer in matched_phrases):
                continue
            matched_phrases.append(phrase)
            mentions.append((phrase, match.start()))
        mentions.sort(key=lambda item: item[1])
        return [self._value_lexicon[phrase] for phrase, _ in mentions]

    def extract_dimension_mention(self, text: str) -> str | None:
        """A dimension column referenced by name in the text, if any.

        Candidate phrases (each dimension's full name plus, for
        multi-word names, its head noun — "region" for "origin region")
        are precomputed in ``__init__``; the longest matching phrase
        wins.
        """
        normalised = f" {text.strip().lower()} "
        best: str | None = None
        best_length = 0
        for candidate, dimension in self._dimension_phrases:
            if len(candidate) > best_length and self._phrase_in_text(candidate, normalised):
                best = dimension
                best_length = len(candidate)
        return best

    def _extract_predicates(self, text: str) -> dict[str, Any]:
        """Equality predicates for every dimension value mentioned in the text."""
        predicates: dict[str, Any] = {}
        matched_phrases: list[str] = []
        for phrase in self._candidate_value_phrases(text):
            if not self._phrase_in_text(phrase, text):
                continue
            # Skip phrases fully contained in an already matched longer phrase
            # (e.g. "north" inside "northeast").
            if any(phrase in longer for longer in matched_phrases):
                continue
            dimension, value = self._value_lexicon[phrase]
            if dimension not in predicates:
                predicates[dimension] = value
                matched_phrases.append(phrase)
        return predicates

    @staticmethod
    def _phrase_in_text(phrase: str, text: str) -> bool:
        pattern = r"\b" + re.escape(phrase) + r"\b"
        return re.search(pattern, text) is not None
