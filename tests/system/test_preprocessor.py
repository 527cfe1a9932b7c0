"""Unit tests for the pre-processing batch (repro.system.preprocessor)."""

import pytest

from repro.algorithms.greedy import GreedySummarizer
from repro.system.config import SummarizationConfig
from repro.system.preprocessor import Preprocessor
from repro.system.problem_generator import ProblemGenerator
from repro.system.queries import DataQuery


@pytest.fixture()
def config() -> SummarizationConfig:
    return SummarizationConfig.create(
        "flight_delays",
        dimensions=("region", "season"),
        targets=("delay",),
        max_query_length=1,
        max_facts_per_speech=2,
        max_fact_dimensions=1,
        algorithm="G-B",
    )


@pytest.fixture()
def generator(config, example_table) -> ProblemGenerator:
    return ProblemGenerator(config, example_table)


class TestPreprocessing:
    def test_generates_one_speech_per_viable_query(self, config, generator):
        store, report = Preprocessor(config).run(generator)
        assert report.queries_considered == 9
        assert report.speeches_generated == 9
        assert report.queries_skipped == 0
        assert len(store) == 9
        assert report.algorithm == "G-B"
        assert report.total_seconds > 0
        assert report.per_query_seconds > 0
        assert 0 < report.average_scaled_utility <= 1.0

    def test_stored_speech_metadata(self, config, generator):
        store, _ = Preprocessor(config).run(generator)
        stored = store.exact_match(DataQuery.create("delay", {"season": "Winter"}))
        assert stored is not None
        assert stored.algorithm == "G-B"
        assert stored.speech.length >= 1
        assert stored.text
        assert stored.utility >= 0.0

    def test_explicit_summarizer_overrides_config(self, config, generator):
        preprocessor = Preprocessor(config, summarizer=GreedySummarizer())
        assert isinstance(preprocessor.summarizer, GreedySummarizer)
        _, report = preprocessor.run(generator)
        assert report.algorithm == "G-B"

    def test_max_problems_caps_work(self, config, generator):
        store, report = Preprocessor(config).run(generator, max_problems=3)
        assert report.speeches_generated == 3
        assert len(store) == 3
        # All queries are still enumerated (for accounting).
        assert report.queries_considered == 9

    def test_lookup_helper(self, config, generator):
        store, _ = Preprocessor(config).run(generator)
        match = store.best_match(
            DataQuery.create("delay", {"region": "North", "season": "Winter"})
        )
        assert match is not None
        # The 1-predicate store answers the 2-predicate query with the most
        # specific containing subset.
        assert not match.exact
        assert match.stored.query.length == 1

    def test_report_handles_empty_run(self, config, generator):
        _, report = Preprocessor(config).run(generator, max_problems=0)
        assert report.speeches_generated == 0
        assert report.per_query_seconds == 0.0
        assert report.average_scaled_utility == 0.0
