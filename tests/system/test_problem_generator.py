"""Unit tests for repro.system.problem_generator."""

import pickle

import pytest

from repro.core.errors import InvalidProblemError
from repro.core.priors import ConstantPrior, ZeroPrior
from repro.system.config import SummarizationConfig
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
    )


@pytest.fixture()
def generator(config, example_table) -> ProblemGenerator:
    return ProblemGenerator(config, example_table)


class TestQueryEnumeration:
    def test_counts_queries(self, generator):
        # 1 overall + 4 regions + 4 seasons = 9 queries for the single target.
        assert generator.count_queries() == 9

    def test_query_length_two(self, example_table):
        config = SummarizationConfig.create(
            "flight_delays",
            dimensions=("region", "season"),
            targets=("delay",),
            max_query_length=2,
        )
        generator = ProblemGenerator(config, example_table)
        # 9 plus the 16 (region, season) combinations.
        assert generator.count_queries() == 25

    def test_multiple_targets_multiply_queries(self, example_table):
        table = example_table.with_column(
            example_table.column("delay").renamed("delay_copy")
        )
        config = SummarizationConfig.create(
            "flight_delays",
            dimensions=("region", "season"),
            targets=("delay", "delay_copy"),
            max_query_length=1,
        )
        generator = ProblemGenerator(config, table)
        assert generator.count_queries() == 18

    def test_queries_reference_existing_values(self, generator, example_table):
        regions = set(example_table.column("region").distinct_values())
        for query in generator.enumerate_queries():
            for column, value in query.predicates:
                if column == "region":
                    assert value in regions

    def test_missing_column_rejected(self, config):
        from repro.relational.column import Column
        from repro.relational.table import Table

        table = Table("t", [Column.numeric("delay", [1.0])])
        with pytest.raises(InvalidProblemError):
            ProblemGenerator(config, table)

    @pytest.mark.parametrize("max_query_length", [1, 2, 3])
    @pytest.mark.parametrize("dimensions", [("region",), ("region", "season")])
    def test_arithmetic_count_matches_enumeration(
        self, example_table, dimensions, max_query_length
    ):
        """count_queries is computed from domain sizes, not by exhausting
        the enumeration — the two must always agree."""
        config = SummarizationConfig.create(
            "flight_delays",
            dimensions=dimensions,
            targets=("delay",),
            max_query_length=max_query_length,
        )
        generator = ProblemGenerator(config, example_table)
        enumerated = sum(1 for _ in generator.enumerate_queries())
        assert generator.count_queries() == enumerated

    def test_arithmetic_count_matches_enumeration_multi_target(self, example_table):
        table = example_table.with_column(
            example_table.column("delay").renamed("delay_copy")
        )
        config = SummarizationConfig.create(
            "flight_delays",
            dimensions=("region", "season"),
            targets=("delay", "delay_copy"),
            max_query_length=2,
        )
        generator = ProblemGenerator(config, table)
        assert generator.count_queries() == sum(1 for _ in generator.enumerate_queries())


class TestQueryChunkStreaming:
    def test_chunks_concatenate_to_enumeration_order(self, generator):
        queries = list(generator.enumerate_queries())
        for size in (1, 2, 4, 100):
            chunks = list(generator.enumerate_query_chunks(size))
            flattened = [query for chunk in chunks for query in chunk]
            assert flattened == queries, f"size={size}"
            assert all(len(chunk) <= size for chunk in chunks)
            # Every chunk except the last is full.
            assert all(len(chunk) == size for chunk in chunks[:-1])

    def test_chunk_stream_is_lazy(self, generator):
        stream = generator.enumerate_query_chunks(2)
        first = next(stream)
        assert len(first) == 2
        assert first == list(generator.enumerate_queries())[:2]

    def test_invalid_chunk_size_rejected(self, generator):
        for size in (0, -3):
            with pytest.raises(ValueError, match="chunk size"):
                next(generator.enumerate_query_chunks(size))


class TestProblemConstruction:
    def test_build_problem_for_overall_query(self, generator):
        problem = generator.build_problem(DataQuery.create("delay", {}))
        assert problem is not None
        assert problem.num_rows == 16
        assert problem.max_facts == 2
        # max_fact_dimensions=1: overall + 4 regions + 4 seasons.
        assert problem.num_candidates == 9

    def test_build_problem_restricts_relation(self, generator):
        problem = generator.build_problem(DataQuery.create("delay", {"season": "Winter"}))
        assert problem is not None
        assert problem.num_rows == 4
        assert all(f.scope.restricts("season") for f in problem.candidate_facts)

    def test_default_prior_is_full_table_average(self, generator, example_relation):
        problem = generator.build_problem(DataQuery.create("delay", {"season": "Winter"}))
        prior = problem.prior
        assert isinstance(prior, ConstantPrior)
        assert prior.value == pytest.approx(float(example_relation.target_values.mean()))

    def test_prior_override(self, config, example_table):
        generator = ProblemGenerator(config, example_table, prior=ZeroPrior())
        problem = generator.build_problem(DataQuery.create("delay", {}))
        assert isinstance(problem.prior, ZeroPrior)

    def test_small_subsets_are_skipped(self, example_table):
        config = SummarizationConfig.create(
            "flight_delays",
            dimensions=("region", "season"),
            targets=("delay",),
            max_query_length=2,
        )
        generator = ProblemGenerator(config, example_table, min_subset_rows=2)
        # A (region, season) pair selects exactly one row -> skipped.
        problem = generator.build_problem(
            DataQuery.create("delay", {"region": "East", "season": "Winter"})
        )
        assert problem is None

    def test_unknown_value_yields_none(self, generator):
        assert generator.build_problem(DataQuery.create("delay", {"region": "Atlantis"})) is None

    def test_generate_yields_viable_problems(self, generator):
        generated = list(generator.generate())
        assert len(generated) == 9
        assert all(g.problem.num_candidates >= 1 for g in generated)
        assert all(g.query.target == "delay" for g in generated)

    def test_problem_label_describes_query(self, generator):
        problem = generator.build_problem(DataQuery.create("delay", {"region": "North"}))
        assert "region=North" in problem.label

    def test_pickled_after_building_is_no_larger_than_fresh(self, config, example_table):
        """Per-process caches (column codes, priors) never ride along in a pickle."""
        fresh = ProblemGenerator(config, example_table)
        used = ProblemGenerator(config, example_table)
        for query in used.enumerate_queries():
            used.build_problem(query)
        assert len(pickle.dumps(used)) <= len(pickle.dumps(fresh))
        clone = pickle.loads(pickle.dumps(used))
        query = DataQuery.create("delay", {"season": "Winter"})
        assert clone.build_problem(query).relation.num_rows == 4
