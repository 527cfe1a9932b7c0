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
loop — so all lexicon phrases (values, targets, dimension names) go into
one token trie at construction.  A request is tokenised once and walked
once from each token (Aho–Corasick restricted to token boundaries); the
target, predicates, value mentions and named dimension are all read off
the phrase occurrences that walk finds.

A phrase occurs in the lower-cased text where no word character stands
beside it (``(?<!\\w)phrase(?!\\w)``: "north" not in "northern", "5000+"
in "for 5000+"); whitespace inside a phrase matches only itself.  The
longest target phrase and the longest dimension name win, ties going to
lexicon or configuration order.  Values are taken longest first, and a
value counts only through an occurrence outside every occurrence of a
longer value already counted ("york" in "new york" is skipped, "ua"
beside "january" is not); its mention position is that first free
occurrence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
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


@dataclass(slots=True)
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


#: Texts and phrases split into the same tokens — runs of word
#: characters and single other characters — so every phrase occurrence
#: starts and ends on token boundaries.
_TOKEN = re.compile(r"\w+|\W")
_IS_WORD = re.compile(r"\w").match

#: Each request category's substring patterns as one alternation (plain
#: words and spaces, so nothing needs escaping).
_HELP = re.compile("help|what can i ask|what can you do|how do i|instructions")
_REPEAT = re.compile("repeat|say that again|once more|come again")
_COMPARISON = re.compile("compare|comparison| versus | vs |difference between")
_EXTREMUM = re.compile(
    "highest|lowest|most |least |maximum|minimum|worst|best |which has the|who has the"
)
_MINIMUM = re.compile("lowest|least |minimum|fewest|smallest")
#: Most requests hold no category pattern: one search rules out all four.
_ANY_CATEGORY = re.compile("|".join(p.pattern for p in (_HELP, _REPEAT, _COMPARISON, _EXTREMUM)))

#: Token spans of each matched phrase, in text order.
_Found = dict[str, list[tuple[int, int]]]
_FIRST = itemgetter(0)
_SECOND = itemgetter(1)


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
        # Nobody says an empty phrase.
        self._value_lexicon.pop("", None)
        # Dimension name phrases in configuration order, full name
        # before head noun.
        self._dimension_phrases: list[tuple[str, str]] = []
        for dimension in config.dimensions:
            phrase = dimension.replace("_", " ").lower()
            self._dimension_phrases.append((phrase, dimension))
            if " " in phrase:
                self._dimension_phrases.append((phrase.split()[-1], dimension))

        # Each lexicon ranked longest first; the sort is stable, so ties
        # keep lexicon (or configuration) order.  The lowest rank wins.
        values = sorted(self._value_lexicon, key=len, reverse=True)
        self._value_rank = {phrase: rank for rank, phrase in enumerate(values)}
        targets = sorted(self._target_lexicon, key=len, reverse=True)
        self._target_rank = {phrase: rank for rank, phrase in enumerate(targets)}
        self._targets = [self._target_lexicon[phrase] for phrase in targets]
        dimensions = sorted(self._dimension_phrases, key=lambda pair: len(pair[0]), reverse=True)
        self._dimension_rank: dict[str, int] = {}
        for rank, (phrase, _) in enumerate(dimensions):
            self._dimension_rank.setdefault(phrase, rank)
        self._dimensions = [dimension for _, dimension in dimensions]

        # One trie over all three lexicons.  A node maps the next token
        # to its child; key None holds the phrase that ends there and
        # whether it starts / ends with a non-word character (a token
        # boundary then does not rule out a word character beside it).
        self._trie: dict = {}
        for phrase in (*self._value_rank, *self._target_rank, *self._dimension_rank):
            tokens = _TOKEN.findall(phrase)
            if not tokens:
                continue
            node = self._trie
            for token in tokens:
                node = node.setdefault(token, {})
            node[None] = (phrase, not _IS_WORD(tokens[0]), not _IS_WORD(tokens[-1]))

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
    def _build_value_lexicon(dimensions: Sequence[str], table: Table) -> dict[str, tuple[str, Any]]:
        lexicon: dict[str, tuple[str, Any]] = {}
        for dimension in dimensions:
            for value in table.column(dimension).distinct_values():
                phrase = str(value).lower()
                # Values shared by several dimensions keep the first
                # dimension (stable order); callers can disambiguate
                # through dimension_synonyms.
                lexicon.setdefault(phrase, (dimension, value))
        return lexicon

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    def parse(self, text: str) -> ParsedRequest:
        """Parse one voice request into a :class:`ParsedRequest`."""
        normalised = f" {text.strip().lower()} "
        category = _ANY_CATEGORY.search(normalised) is not None
        if category and _HELP.search(normalised):
            return ParsedRequest(text=text, kind=RequestKind.HELP)
        if category and _REPEAT.search(normalised):
            return ParsedRequest(text=text, kind=RequestKind.REPEAT)

        found = self._scan(normalised)
        target = _lowest(found, self._target_rank, self._targets)
        predicates, mentions = self._values(found)

        comparison = category and _COMPARISON.search(normalised) is not None
        if comparison or (category and _EXTREMUM.search(normalised)):
            return ParsedRequest(
                text=text,
                kind=RequestKind.COMPARISON if comparison else RequestKind.EXTREMUM,
                query=DataQuery.create(target, predicates) if target else None,
                matched_values=predicates,
                value_mentions=mentions,
                mentioned_dimension=_lowest(found, self._dimension_rank, self._dimensions),
                wants_minimum=not comparison and _MINIMUM.search(normalised) is not None,
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
    def _scan(self, normalised: str) -> _Found:
        """Every lexicon phrase occurring in ``normalised``, with its token spans."""
        tokens = _TOKEN.findall(normalised)
        # Sentinel after the last token (and, as tokens[-1], before the
        # first): no trie edge, not a word.
        tokens.append("")
        found: _Found = {}
        trie = self._trie
        for start, token in enumerate(tokens):
            node = trie.get(token)
            end = start + 1
            while node is not None:
                ending = node.get(None)
                if ending is not None:
                    phrase, open_start, open_end = ending
                    clash = open_start and _IS_WORD(tokens[start - 1])
                    if not clash and not (open_end and _IS_WORD(tokens[end])):
                        found.setdefault(phrase, []).append((start, end))
                node = node.get(tokens[end])
                end += 1
        return found

    def _values(self, found: _Found) -> tuple[dict[str, Any], list[tuple[str, Any]]]:
        """The predicates and the value mentions, from value phrases longest first.

        A predicate is the first counted value of its dimension, and only
        values that became predicates hide shorter ones from later
        predicates; every counted mention hides shorter ones from later
        mentions.
        """
        value_rank = self._value_rank
        ranked = []
        for phrase, spans in found.items():
            rank = value_rank.get(phrase)
            if rank is not None:
                ranked.append((rank, phrase, spans))
        ranked.sort()
        predicates: dict[str, Any] = {}
        mentions: list[tuple[int, tuple[str, Any]]] = []
        in_predicates: list[tuple[int, int]] = []
        in_mentions: list[tuple[int, int]] = []
        for _, phrase, spans in ranked:
            entry = self._value_lexicon[phrase]
            dimension, value = entry
            if dimension not in predicates and _first_free(spans, in_predicates) is not None:
                predicates[dimension] = value
                in_predicates.extend(spans)
            start = _first_free(spans, in_mentions)
            if start is not None:
                in_mentions.extend(spans)
                mentions.append((start, entry))
        mentions.sort(key=_FIRST)
        return predicates, list(map(_SECOND, mentions))


def _lowest(found: _Found, ranks: dict[str, int], owners: list[str]) -> str | None:
    """The owner of ``found``'s lowest-ranked (longest) phrase; None when none is ranked."""
    best = len(owners)
    for phrase in found:
        rank = ranks.get(phrase)
        if rank is not None and rank < best:
            best = rank
    return owners[best] if best < len(owners) else None


def _first_free(spans: list[tuple[int, int]], counted: list[tuple[int, int]]) -> int | None:
    """Start of the first span inside no ``counted`` span (None: every one is)."""
    for start, end in spans:
        for low, high in counted:
            if low <= start and end <= high:
                break
        else:
            return start
    return None
