"""Unit tests for the natural-language parser (repro.system.nlq)."""

import pytest

from repro.datasets import load_dataset
from repro.system.config import SummarizationConfig
from repro.system.nlq import NaturalLanguageParser, RequestKind


@pytest.fixture()
def parser(example_table) -> NaturalLanguageParser:
    config = SummarizationConfig.create(
        "flight_delays",
        dimensions=("region", "season"),
        targets=("delay",),
        max_query_length=2,
    )
    return NaturalLanguageParser(
        config,
        example_table,
        target_synonyms={"delay": ["delays", "late arrivals"]},
    )


class TestSpecialRequests:
    @pytest.mark.parametrize("text", ["help", "What can I ask you?", "how do I use this"])
    def test_help(self, parser, text):
        assert parser.parse(text).kind is RequestKind.HELP

    @pytest.mark.parametrize("text", ["repeat that", "can you say that again"])
    def test_repeat(self, parser, text):
        assert parser.parse(text).kind is RequestKind.REPEAT

    @pytest.mark.parametrize("text", ["thanks", "play some music", "good morning"])
    def test_other(self, parser, text):
        assert parser.parse(text).kind is RequestKind.OTHER


class TestQueryExtraction:
    def test_target_and_single_predicate(self, parser):
        parsed = parser.parse("what is the delay in Winter?")
        assert parsed.kind is RequestKind.QUERY
        assert parsed.query.target == "delay"
        assert parsed.query.predicate_map == {"season": "Winter"}

    def test_two_predicates(self, parser):
        parsed = parser.parse("delays for North in Winter")
        assert parsed.query.predicate_map == {"region": "North", "season": "Winter"}

    def test_target_synonym(self, parser):
        parsed = parser.parse("how bad are late arrivals in Summer")
        assert parsed.kind is RequestKind.QUERY
        assert parsed.query.target == "delay"

    def test_no_predicates_means_overall(self, parser):
        parsed = parser.parse("what is the average delay")
        assert parsed.kind is RequestKind.QUERY
        assert parsed.query.length == 0

    def test_case_insensitive_value_matching(self, parser):
        parsed = parser.parse("DELAYS IN WINTER")
        assert parsed.query.predicate_map == {"season": "Winter"}

    def test_values_require_word_boundaries(self, parser):
        # "Northern" must not match the region value "North".
        parsed = parser.parse("delays for Northern airlines")
        assert "region" not in parsed.query.predicate_map

    def test_no_target_is_other(self, parser):
        parsed = parser.parse("what about the East")
        assert parsed.kind is RequestKind.OTHER
        # The predicate is still extracted for diagnostics.
        assert parsed.matched_values == {"region": "East"}


class TestUnsupportedShapes:
    def test_comparison(self, parser):
        parsed = parser.parse("compare the delay between East and West")
        assert parsed.kind is RequestKind.COMPARISON
        assert parsed.query is not None
        assert parsed.query.target == "delay"

    def test_extremum(self, parser):
        parsed = parser.parse("which region has the highest delay")
        assert parsed.kind is RequestKind.EXTREMUM

    def test_dimension_synonyms(self, example_table):
        config = SummarizationConfig.create(
            "flight_delays",
            dimensions=("region", "season"),
            targets=("delay",),
        )
        parser = NaturalLanguageParser(
            config,
            example_table,
            dimension_synonyms={"wintertime": ("season", "Winter")},
        )
        parsed = parser.parse("delay in wintertime")
        assert parsed.query.predicate_map == {"season": "Winter"}


def dataset_parser(key: str) -> NaturalLanguageParser:
    dataset = load_dataset(key, num_rows=300)
    config = SummarizationConfig.create(
        key, dimensions=dataset.spec.dimensions, targets=dataset.spec.targets
    )
    return NaturalLanguageParser(config, dataset.table)


class TestMatchingRules:
    def test_value_ending_in_a_non_word_character_matches(self):
        # "\b" after "+" needs a word character next, so "5000+" never
        # matched in a padded text; no word character beside it is the rule.
        parser = dataset_parser("stackoverflow")
        parsed = parser.parse("what is the competence for 5000+")
        assert parsed.query.predicate_map == {"org_size": "5000+"}
        parsed = parser.parse("what is the competence for 20+ years and 5000+")
        assert parsed.query.predicate_map == {"experience": "20+ years", "org_size": "5000+"}
        assert parser.parse("what is the competence for 5000+x").matched_values == {}

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("what is the cancellation for UA and January", {"airline": "UA", "month": "January"}),
            (
                "what is the cancellation for AS and Northeast",
                {"airline": "AS", "origin_region": "Northeast"},
            ),
        ],
    )
    def test_value_inside_another_values_string_still_counts(self, text, expected):
        # "ua" is a substring of "january" and "as" of "northeast", but
        # neither occurrence lies inside the longer value's occurrence.
        parsed = dataset_parser("flights").parse(text)
        assert parsed.query.predicate_map == expected
        assert parsed.value_mentions == list(expected.items())

    def test_nested_value_counts_only_outside_the_longer_value(self, example_table):
        config = SummarizationConfig.create(
            "flight_delays", dimensions=("region", "season"), targets=("delay",)
        )
        parser = NaturalLanguageParser(
            config,
            example_table,
            dimension_synonyms={"new york": ("region", "East"), "york": ("season", "Winter")},
        )
        assert parser.parse("delay in new york").query.predicate_map == {"region": "East"}
        parsed = parser.parse("delay in new york and york")
        assert parsed.query.predicate_map == {"region": "East", "season": "Winter"}
        assert parser.parse("compare york and new york").value_mentions == [
            ("season", "Winter"),
            ("region", "East"),
        ]
