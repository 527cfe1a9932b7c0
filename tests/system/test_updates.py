"""Unit tests for incremental speech-store maintenance (repro.system.updates)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.priors import ZeroPrior
from repro.relational.column import ColumnType
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.persistence import store_to_dict
from repro.system.preprocessor import Preprocessor
from repro.system.problem_generator import ProblemGenerator
from repro.system.queries import DataQuery
from repro.system.updates import IncrementalMaintainer
from repro.system.worker_pool import WorkerPool


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
def prepared(config, example_table):
    generator = ProblemGenerator(config, example_table, prior=ZeroPrior())
    store, _ = Preprocessor(config).run(generator)
    maintainer = IncrementalMaintainer(config, example_table, prior=ZeroPrior())
    return store, maintainer


def new_rows_table(rows) -> Table:
    return Table.from_rows(
        "flight_delays",
        ["region", "season", "delay"],
        [ColumnType.CATEGORICAL, ColumnType.CATEGORICAL, ColumnType.NUMERIC],
        rows,
    )


class TestAffectedQueries:
    def test_only_matching_subsets_are_affected(self, prepared):
        _, maintainer = prepared
        affected = maintainer.affected_queries(
            new_rows_table([("North", "Winter", 90.0)])
        )
        described = {query.describe() for query in affected}
        assert "delay overall" in described
        assert "delay for region=North" in described
        assert "delay for season=Winter" in described
        # Subsets that gained no rows are not affected.
        assert "delay for region=East" not in described
        assert len(affected) == 3

    def test_new_dimension_value_creates_new_query(self, prepared):
        _, maintainer = prepared
        affected = maintainer.affected_queries(
            new_rows_table([("Midwest", "Winter", 12.0)])
        )
        described = {query.describe() for query in affected}
        assert "delay for region=Midwest" in described


class TestApplyAppendedRows:
    def test_affected_speeches_are_rebuilt(self, prepared):
        store, maintainer = prepared
        winter_before = store.exact_match(DataQuery.create("delay", {"season": "Winter"}))
        east_before = store.exact_match(DataQuery.create("delay", {"region": "East"}))

        # A massive new delay in the North in Winter changes those subsets.
        report = maintainer.maintain(
            new_rows_table([("North", "Winter", 200.0)]), store
        )
        assert report.new_rows == 1
        assert report.affected_queries == 3
        assert report.rebuilt_speeches == 3
        assert report.total_seconds > 0

        winter_after = store.exact_match(DataQuery.create("delay", {"season": "Winter"}))
        east_after = store.exact_match(DataQuery.create("delay", {"region": "East"}))
        # Affected speech changed (the new outlier dominates the subset).
        assert winter_after.text != winter_before.text
        # Unaffected speech is untouched (same object content).
        assert east_after.text == east_before.text
        assert east_after.utility == pytest.approx(east_before.utility)

    def test_store_stays_consistent_with_full_rebuild(self, prepared, config):
        store, maintainer = prepared
        rows = [("South", "Summer", 55.0), ("West", "Fall", 5.0)]
        maintainer.maintain(new_rows_table(rows), store)

        # A full rebuild over the updated table gives the same utilities.
        generator = ProblemGenerator(config, maintainer.table, prior=ZeroPrior())
        full_store, _ = Preprocessor(config).run(generator)
        for stored in full_store:
            incremental = store.exact_match(stored.query)
            assert incremental is not None
            assert incremental.utility == pytest.approx(stored.utility)

    def test_new_value_speech_added(self, prepared):
        store, maintainer = prepared
        before = len(store)
        maintainer.maintain(
            new_rows_table([("Midwest", "Winter", 10.0), ("Midwest", "Summer", 12.0)]),
            store,
        )
        assert len(store) == before + 1
        assert store.exact_match(DataQuery.create("delay", {"region": "Midwest"})) is not None

    def test_report_counts_unchanged_speeches(self, prepared):
        store, maintainer = prepared
        report = maintainer.maintain(
            new_rows_table([("North", "Winter", 14.0)]), store
        )
        assert report.unchanged_speeches == len(store) - report.rebuilt_speeches
        assert set(report.rebuilt_labels) == {
            "delay overall",
            "delay for region=North",
            "delay for season=Winter",
        }

    def test_new_query_speeches_do_not_count_as_touched(self, prepared):
        """A brand-new query's speech is an *addition*: it must not be
        subtracted from the untouched pre-existing speeches."""
        store, maintainer = prepared
        before = len(store)
        report = maintainer.maintain(
            new_rows_table([("Midwest", "Winter", 10.0), ("Midwest", "Summer", 12.0)]),
            store,
        )
        # Rebuilt: overall, region=Midwest (new), season=Winter, season=Summer.
        assert report.rebuilt_speeches == 4
        assert "delay for region=Midwest" in report.rebuilt_labels
        # Only 3 of the rebuilds replaced existing speeches.
        assert report.unchanged_speeches == before - 3

    def test_maintain_is_the_primary_name(self, prepared):
        store, maintainer = prepared
        report = maintainer.maintain(new_rows_table([("North", "Winter", 14.0)]), store)
        assert report.rebuilt_speeches == 3
        assert report.workers == 0


def store_bytes(store) -> str:
    return json.dumps(store_to_dict(store), sort_keys=True)


def report_counts(report) -> tuple:
    return (
        report.new_rows,
        report.affected_queries,
        report.rebuilt_speeches,
        report.unchanged_speeches,
        report.rebuilt_labels,
    )


NEW_ROWS = [
    ("North", "Winter", 200.0),
    ("Midwest", "Summer", 3.0),
    ("Midwest", "Summer", 9.0),
    ("East", "Fall", 42.0),
]


class TestParallelMaintenance:
    """The pool path must be indistinguishable from the serial pass."""

    @pytest.fixture()
    def length_two_config(self) -> SummarizationConfig:
        return SummarizationConfig.create(
            "flight_delays",
            dimensions=("region", "season"),
            targets=("delay",),
            max_query_length=2,
            max_facts_per_speech=2,
            max_fact_dimensions=1,
            algorithm="G-B",
        )

    def run_maintenance(self, config, table, **kwargs):
        generator = ProblemGenerator(config, table, prior=ZeroPrior())
        store, _ = Preprocessor(config).run(generator)
        maintainer = IncrementalMaintainer(config, table, prior=ZeroPrior())
        report = maintainer.maintain(new_rows_table(NEW_ROWS), store, **kwargs)
        return store, report

    def test_worker_counts_match_serial(self, length_two_config, example_table):
        serial_store, serial_report = self.run_maintenance(
            length_two_config, example_table
        )
        for workers in (2, 3):
            store, report = self.run_maintenance(
                length_two_config, example_table, workers=workers
            )
            assert store_bytes(store) == store_bytes(serial_store), f"workers={workers}"
            assert report_counts(report) == report_counts(serial_report)
            assert report.workers == workers

    def test_chunk_sizes_match_serial(self, length_two_config, example_table):
        serial_store, _ = self.run_maintenance(length_two_config, example_table)
        for chunk_size in (1, 3, 100):
            store, _ = self.run_maintenance(
                length_two_config, example_table, workers=2, chunk_size=chunk_size
            )
            assert store_bytes(store) == store_bytes(serial_store)

    def test_shared_pool_across_passes_spawns_once(
        self, length_two_config, example_table
    ):
        serial_store, serial_report = self.run_maintenance(
            length_two_config, example_table
        )
        with WorkerPool(2) as pool:
            first_store, first_report = self.run_maintenance(
                length_two_config, example_table, pool=pool
            )
            second_store, second_report = self.run_maintenance(
                length_two_config, example_table, pool=pool
            )
            assert pool.spawn_count == 1
        for store, report in ((first_store, first_report), (second_store, second_report)):
            assert store_bytes(store) == store_bytes(serial_store)
            assert report_counts(report) == report_counts(serial_report)
            assert report.workers == 2

    def test_invalid_chunk_size_rejected(self, length_two_config, example_table):
        with pytest.raises(ValueError, match="chunk_size"):
            self.run_maintenance(
                length_two_config, example_table, workers=2, chunk_size=0
            )

    def test_stateful_summarizer_falls_back_to_serial(self, config, example_table):
        from repro.algorithms.random_baseline import RandomSummarizer

        def run(workers):
            generator = ProblemGenerator(config, example_table, prior=ZeroPrior())
            store, _ = Preprocessor(
                config, summarizer=RandomSummarizer(seed=7)
            ).run(generator)
            maintainer = IncrementalMaintainer(
                config, example_table, summarizer=RandomSummarizer(seed=7), prior=ZeroPrior()
            )
            report = maintainer.maintain(new_rows_table(NEW_ROWS), store, workers=workers)
            return store, report

        serial_store, _ = run(workers=0)
        with pytest.warns(UserWarning, match="carries state"):
            store, report = run(workers=2)
        assert report.workers == 0
        assert store_bytes(store) == store_bytes(serial_store)


class TestAffectedQueryProperties:
    """Membership-set discovery must equal the per-row reference scan."""

    CONFIG = SummarizationConfig.create(
        "flight_delays",
        dimensions=("region", "season"),
        targets=("delay",),
        max_query_length=2,
        max_facts_per_speech=2,
        max_fact_dimensions=1,
        algorithm="G-B",
    )

    @staticmethod
    def reference_affected(config, table, new_rows):
        """The seed implementation: probe every query against every row."""
        generator = ProblemGenerator(config, table.concat(new_rows))
        new_row_dicts = list(new_rows.iter_rows())
        affected = []
        for query in generator.enumerate_queries():
            scope = query.scope()
            if any(scope.contains_row(row) for row in new_row_dicts):
                affected.append(query)
        return affected

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["East", "South", "West", "North", "Midwest"]),
                st.sampled_from(["Spring", "Summer", "Fall", "Winter", "Monsoon"]),
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            ),
            min_size=0,
            max_size=6,
        )
    )
    def test_matches_reference_under_random_appends(self, rows):
        from tests.conftest import build_example_table

        table = build_example_table()
        new_rows = new_rows_table(rows)
        maintainer = IncrementalMaintainer(self.CONFIG, table)
        fast = maintainer.affected_queries(new_rows)
        assert fast == self.reference_affected(self.CONFIG, table, new_rows)

    def test_no_new_rows_affect_nothing(self, example_table):
        maintainer = IncrementalMaintainer(self.CONFIG, example_table)
        assert maintainer.affected_queries(new_rows_table([])) == []

    def test_unsorted_configured_dimensions(self, example_table):
        """Query predicates are column-sorted; configuration order is not.

        Regression test: with dimensions configured as ("season",
        "region") the pair combination key must still match the
        query's canonical ("region", "season") predicate order.
        """
        config = SummarizationConfig.create(
            "flight_delays",
            dimensions=("season", "region"),
            targets=("delay",),
            max_query_length=2,
            max_facts_per_speech=2,
            max_fact_dimensions=1,
            algorithm="G-B",
        )
        new_rows = new_rows_table([("North", "Winter", 99.0)])
        maintainer = IncrementalMaintainer(config, example_table)
        fast = maintainer.affected_queries(new_rows)
        assert fast == self.reference_affected(config, example_table, new_rows)
        described = {query.describe() for query in fast}
        assert "delay for region=North, season=Winter" in described
