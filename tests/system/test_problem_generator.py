"""Unit tests for repro.system.problem_generator."""

import pickle

import numpy as np
import pytest

from repro.core.errors import InvalidProblemError
from repro.core.priors import ConstantPrior, ZeroPrior
from repro.relational.table import Table
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
        table = Table(
            example_table.name,
            example_table.columns + [example_table.column("delay").renamed("delay_copy")],
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

    def test_categorical_target_rejected(self, example_table):
        """No problem could ever be built for it, so the generator refuses it up front."""
        config = SummarizationConfig.create("flights", dimensions=("region",), targets=("season",))
        with pytest.raises(InvalidProblemError, match="must be numeric"):
            ProblemGenerator(config, example_table)

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
        table = Table(
            example_table.name,
            example_table.columns + [example_table.column("delay").renamed("delay_copy")],
        )
        config = SummarizationConfig.create(
            "flight_delays",
            dimensions=("region", "season"),
            targets=("delay", "delay_copy"),
            max_query_length=2,
        )
        generator = ProblemGenerator(config, table)
        assert generator.count_queries() == sum(1 for _ in generator.enumerate_queries())

    def test_enumeration_is_scope_major(self, example_table):
        """Each scope, in one-target order, is followed by every target in config order."""
        table = Table(
            example_table.name,
            example_table.columns + [example_table.column("delay").renamed("delay_copy")],
        )
        config = SummarizationConfig.create(
            "flight_delays",
            dimensions=("region", "season"),
            targets=("delay_copy", "delay"),
            max_query_length=2,
        )
        one_target = SummarizationConfig.create(
            "flight_delays",
            dimensions=("region", "season"),
            targets=("delay",),
            max_query_length=2,
        )
        scopes = [
            query.predicate_map
            for query in ProblemGenerator(one_target, table).enumerate_queries()
        ]
        queries = list(ProblemGenerator(config, table).enumerate_queries())
        assert queries == [
            DataQuery.create(target, scope) for scope in scopes for target in config.targets
        ]


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
        assert len(problem.candidate_facts) == 9

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
        assert all(len(g.problem.candidate_facts) >= 1 for g in generated)
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


class TestAppendedGenerator:
    """A generator extended batch by batch equals one built on the final table."""

    def test_parity_after_appends_with_an_unseen_value(self, config, example_table):
        rows = [
            [("North", "Winter", 12.0), ("East", "Summer", None)],
            # An unseen region and a NULL region.
            [("Midwest", "Winter", 3.0), (None, "Spring", 7.5), ("Midwest", "Fall", 9.0)],
            [("South", "Summer", 40.0)],
        ]
        names = example_table.column_names
        types = [column.ctype for column in example_table.columns]
        generator = ProblemGenerator(config, example_table, min_subset_rows=1)
        # Fill every cache the appends extend.
        generator.build_problem(DataQuery.create("delay", {"region": "East"}))
        table = example_table
        for batch_rows in rows:
            batch = Table.from_rows(example_table.name, names, types, batch_rows)
            table = table.concat(batch)
            generator = generator.appended(table, batch)
        fresh = ProblemGenerator(config, table, min_subset_rows=1)
        for column in config.dimensions:
            codes, decode, code_of = generator._column_codes(column)
            fresh_codes, fresh_decode, fresh_code_of = fresh._column_codes(column)
            np.testing.assert_array_equal(codes, fresh_codes)
            assert decode == fresh_decode and code_of == fresh_code_of
        np.testing.assert_array_equal(
            generator._target_floats("delay"), fresh._target_floats("delay")
        )
        assert generator._default_prior("delay").value == fresh._default_prior("delay").value
        for query in fresh.enumerate_queries():
            mine, theirs = generator.build_problem(query), fresh.build_problem(query)
            assert (mine is None) is (theirs is None)
            if mine is not None:
                assert list(mine.candidate_facts) == list(theirs.candidate_facts)
                assert mine.prior.value == theirs.prior.value
