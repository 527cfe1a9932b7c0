"""Parity tests: token-indexed parser vs. the full-vocabulary scan.

The token index is a pure candidate filter, so the parsed output of
``NaturalLanguageParser`` must be identical — field by field — to
:class:`ScanParser`, which verifies every lexicon phrase, on every
input the engine/nlq suites exercise, and on arbitrary texts assembled
from (and around) the vocabulary.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system.config import SummarizationConfig
from repro.system.nlq import NaturalLanguageParser


class ScanParser(NaturalLanguageParser):
    """The full-vocabulary scan: every phrase is a candidate (the oracle)."""

    def _candidates(self, text, phrases, index, unindexed):
        return phrases


#: Every transcript the engine/nlq test suites feed the parser, plus
#: edge cases: punctuation, casing, numbers, unknown words, phrases
#: without word characters and multi-value mentions.
CORPUS = [
    "help",
    "What can I ask you?",
    "how do I use this",
    "instructions please",
    "repeat that",
    "can you say that again",
    "once more",
    "thanks",
    "play some music",
    "good morning",
    "what is the delay in Winter?",
    "delays for North in Winter",
    "how bad are late arrivals in Summer",
    "what is the average delay",
    "DELAYS IN WINTER",
    "delays for Northern airlines",
    "what about the East",
    "compare the delay between East and West",
    "which region has the highest delay",
    "delay in wintertime",
    "what is the delay in Winter",
    "repeat that please",
    "which season has the lowest delay",
    "difference between North and South delays",
    "delay for the South in Summer",
    "is winter worse than summer for delays",
    "delay!!! winter,,, east...",
    "  what   is the   delay  ",
    "",
    "delay delay delay winter winter",
    "what is the delay for 2020",
    "übermäßige delays in winter",
]


def make_parsers(token_index_table):
    config = SummarizationConfig.create(
        "flight_delays",
        dimensions=("region", "season"),
        targets=("delay",),
        max_query_length=2,
    )
    kwargs = dict(
        target_synonyms={"delay": ["delays", "late arrivals"]},
        dimension_synonyms={"nyc": ("region", "East")},
    )
    indexed = NaturalLanguageParser(config, token_index_table, **kwargs)
    scan = ScanParser(config, token_index_table, **kwargs)
    return indexed, scan


def assert_same_parse(indexed, scan, text):
    left = indexed.parse(text)
    right = scan.parse(text)
    assert left.kind is right.kind, text
    assert left.query == right.query, text
    assert left.matched_values == right.matched_values, text
    assert left.value_mentions == right.value_mentions, text
    assert left.mentioned_dimension == right.mentioned_dimension, text
    assert left.wants_minimum == right.wants_minimum, text


@pytest.fixture()
def parsers(example_table):
    return make_parsers(example_table)


class TestCorpusParity:
    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_identical(self, parsers, text):
        indexed, scan = parsers
        assert_same_parse(indexed, scan, text)

    @pytest.mark.parametrize("text", ["delays for nyc", "compare nyc and West delays"])
    def test_dimension_synonyms_identical(self, parsers, text):
        indexed, scan = parsers
        assert_same_parse(indexed, scan, text)

    def test_helper_outputs_identical(self, parsers):
        indexed, scan = parsers
        for text in CORPUS:
            assert indexed.extract_value_mentions(text) == scan.extract_value_mentions(text)
            assert indexed.extract_dimension_mention(text) == scan.extract_dimension_mention(
                text
            )


WORDS = st.sampled_from(
    [
        "delay",
        "delays",
        "late",
        "arrivals",
        "winter",
        "summer",
        "east",
        "west",
        "north",
        "south",
        "region",
        "season",
        "nyc",
        "the",
        "in",
        "for",
        "compare",
        "versus",
        "highest",
        "lowest",
        "help",
        "repeat",
        "zzz",
        "42",
        "?",
        "north-east",
        "wintertime",
    ]
)


class TestPropertyParity:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(WORDS, min_size=0, max_size=8))
    def test_random_texts_parse_identically(self, words):
        indexed, scan = make_parsers(_table())
        assert_same_parse(indexed, scan, " ".join(words))


def _table():
    from tests.conftest import build_example_table

    return build_example_table()
