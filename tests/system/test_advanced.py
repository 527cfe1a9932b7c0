"""Unit tests for the comparison / extremum extension (repro.system.advanced)."""

import pytest

from repro.system.advanced import ComparisonAnswerer, ExtremumAnswerer
from repro.system.templates import SpeechRealizer, TargetPhrasing


@pytest.fixture()
def comparer(example_table) -> ComparisonAnswerer:
    return ComparisonAnswerer(example_table, ("region", "season"))


@pytest.fixture()
def extremer(example_table) -> ExtremumAnswerer:
    return ExtremumAnswerer(example_table, ("region", "season"))


class TestComparison:
    def test_compare_two_subsets(self, comparer):
        answer = comparer.compare("delay", {"season": "Winter"}, {"season": "Summer"})
        assert answer is not None
        assert answer.first.average == pytest.approx(15.0)
        # Summer: South 20, North 15, East/West 10 -> 13.75.
        assert answer.second.average == pytest.approx(13.75)
        assert answer.first.average - answer.second.average == pytest.approx(1.25)
        assert answer.ratio == pytest.approx(15.0 / 13.75)
        assert "higher than" in answer.text
        assert "season Winter" in answer.text

    def test_compare_against_overall(self, comparer):
        answer = comparer.compare("delay", {"region": "North"}, {})
        assert answer is not None
        assert answer.second.describe() == "overall"
        assert answer.second.support == 16

    def test_equal_subsets(self, comparer):
        answer = comparer.compare("delay", {"region": "East"}, {"region": "West"})
        assert answer is not None
        assert "the same as" in answer.text

    def test_empty_subset_returns_none(self, comparer):
        assert comparer.compare("delay", {"region": "Atlantis"}, {}) is None

    def test_custom_phrasing(self, example_table):
        realizer = SpeechRealizer(
            target_phrasings={"delay": TargetPhrasing(subject="the delay", unit=" minutes")}
        )
        comparer = ComparisonAnswerer(example_table, ("region", "season"), realizer=realizer)
        answer = comparer.compare("delay", {"season": "Winter"}, {"season": "Fall"})
        assert "minutes" in answer.text


class TestExtremum:
    def test_highest_by_region(self, extremer):
        answer = extremer.extremum("delay", "region", maximize=True)
        assert answer is not None
        assert answer.best_value == "North"
        assert answer.best_average == pytest.approx(15.0)
        assert answer.runner_up_value is not None
        assert "highest" in answer.text
        assert "North" in answer.text

    def test_lowest_by_region(self, extremer):
        answer = extremer.extremum("delay", "region", maximize=False)
        assert answer is not None
        # East and West tie at 11.25; either may be reported.
        assert answer.best_value in ("East", "West")
        assert answer.best_average == pytest.approx(11.25)
        assert "lowest" in answer.text

    def test_base_predicates_restrict_search(self, extremer):
        answer = extremer.extremum(
            "delay", "region", maximize=True, base_predicates={"season": "Summer"}
        )
        assert answer is not None
        assert answer.best_value == "South"
        assert answer.best_average == pytest.approx(20.0)

    def test_unknown_dimension_returns_none(self, extremer):
        assert extremer.extremum("delay", "airline") is None

    def test_min_support_filters_values(self, example_table):
        extremer = ExtremumAnswerer(example_table, ("region", "season"), min_support=5)
        # Every region has exactly 4 rows, below the support threshold.
        assert extremer.extremum("delay", "region") is None

    def test_single_value_has_no_runner_up(self):
        from repro.relational.column import Column
        from repro.relational.table import Table

        table = Table(
            "tiny",
            [
                Column.categorical("carrier", ["AA", "AA", "AA"]),
                Column.numeric("delay", [5.0, 7.0, 9.0]),
            ],
        )
        answer = ExtremumAnswerer(table, ("carrier",)).extremum("delay", "carrier")
        assert answer is not None
        assert answer.best_value == "AA"
        assert answer.runner_up_value is None
        assert answer.runner_up_average is None
