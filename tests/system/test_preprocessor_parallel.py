"""Parity tests: parallel pre-processing must equal the serial batch.

The pool path chunks queries across worker processes and merges results
back in enumeration order, so the store — and its persisted JSON — must
be byte-identical to a serial run for any pool size, chunk size, or
``max_problems`` cap.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.relational.column import ColumnType
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.persistence import store_to_dict
from repro.system.preprocessor import Preprocessor, scope_chunk_size
from repro.system.problem_generator import ProblemGenerator
from repro.system.updates import IncrementalMaintainer
from repro.system.worker_pool import WorkerPool


@pytest.fixture()
def config() -> SummarizationConfig:
    return SummarizationConfig.create(
        "flight_delays",
        dimensions=("region", "season"),
        targets=("delay",),
        max_query_length=2,
        max_facts_per_speech=2,
        max_fact_dimensions=1,
        algorithm="G-B",
    )


def run_with_pool(config, table, workers, **kwargs):
    """One run on a fresh ``WorkerPool(workers)``; workers=None runs without a pool."""
    generator = ProblemGenerator(config, table)
    if workers is None:
        return Preprocessor(config).run(generator, **kwargs)
    with WorkerPool(workers) as pool:
        return Preprocessor(config).run(generator, pool=pool, **kwargs)


def store_bytes(store, config) -> str:
    """The persistence serialisation, as `save_store` would write it."""
    return json.dumps(store_to_dict(store, config), indent=2, sort_keys=True)


def report_fields(report) -> dict:
    """Report as a dict without the timing- and pool-dependent fields."""
    fields = dataclasses.asdict(report)
    fields.pop("total_seconds")
    fields.pop("workers")
    return fields


class TestParallelParity:
    def test_worker_counts_produce_identical_stores_and_reports(self, config, example_table):
        serial_store, serial_report = run_with_pool(config, example_table, None)
        expected = store_bytes(serial_store, config)
        assert serial_report.workers == 0
        for workers in (1, 2, 4):
            store, report = run_with_pool(config, example_table, workers)
            assert store_bytes(store, config) == expected, f"workers={workers}"
            assert report_fields(report) == report_fields(serial_report)
            # A one-process pool runs serially, and the report records that.
            assert report.workers == (workers if workers > 1 else 0)

    def test_chunk_size_does_not_affect_the_store(self, config, example_table):
        serial_store, _ = run_with_pool(config, example_table, None)
        expected = store_bytes(serial_store, config)
        for workers in (None, 2):
            for chunk_size in (1, 3, 100):
                store, _ = run_with_pool(config, example_table, workers, chunk_size=chunk_size)
                label = f"workers={workers} chunk_size={chunk_size}"
                assert store_bytes(store, config) == expected, label

    def test_invalid_chunk_size_rejected(self, config, example_table):
        for workers in (None, 2):
            for chunk_size in (0, -1):
                with pytest.raises(ValueError, match="chunk_size"):
                    run_with_pool(config, example_table, workers, chunk_size=chunk_size)

    def test_max_problems_cap_matches_serial(self, config, example_table):
        serial_store, serial_report = run_with_pool(
            config, example_table, None, max_problems=4
        )
        store, report = run_with_pool(config, example_table, 2, max_problems=4)
        assert store_bytes(store, config) == store_bytes(serial_store, config)
        assert report_fields(report) == report_fields(serial_report)
        assert report.speeches_generated == 4
        assert serial_report.speeches_generated == 4

    def test_parallel_run_time_fields_populated(self, config, example_table):
        _, report = run_with_pool(config, example_table, 2)
        assert report.total_seconds > 0
        assert report.per_query_seconds > 0
        assert 0 < report.average_scaled_utility <= 1.0

    @pytest.mark.parametrize("workers, expected", [(None, [1]), (2, [3])])
    def test_streamed_chunks_never_materialise_the_query_list(
        self, config, example_table, monkeypatch, workers, expected
    ):
        """Serial and pool runs consume the chunk stream, not list(queries)."""
        chunk_sizes = []
        original = ProblemGenerator.enumerate_query_chunks

        def spying(self, size):
            chunk_sizes.append(size)
            return original(self, size)

        monkeypatch.setattr(ProblemGenerator, "enumerate_query_chunks", spying)
        chunk_size = None if workers is None else 3
        run_with_pool(config, example_table, workers, chunk_size=chunk_size)
        assert chunk_sizes == expected

    def test_serial_cap_stops_solving_at_max_problems(self, config, example_table, monkeypatch):
        """A serial capped run builds no problem past the cap's chunk."""
        from repro.system import preprocessor

        solved = []
        original = preprocessor.solve_query_chunk

        def counting(context, chunk):
            solved.extend(chunk)
            return original(context, chunk)

        monkeypatch.setattr(preprocessor, "solve_query_chunk", counting)
        _, report = run_with_pool(config, example_table, None, max_problems=2)
        assert report.speeches_generated == 2
        assert len(solved) < report.queries_considered

    def test_stateful_summarizer_falls_back_to_serial(self, config, example_table):
        from repro.algorithms.random_baseline import RandomSummarizer

        def run_random(pool):
            generator = ProblemGenerator(config, example_table)
            preprocessor = Preprocessor(config, summarizer=RandomSummarizer(seed=42))
            return preprocessor.run(generator, pool=pool)

        serial_store, _ = run_random(None)
        with WorkerPool(2) as pool:
            with pytest.warns(UserWarning, match="carries state"):
                store, report = run_random(pool)
            assert pool._spawn_count == 0
        # The pool would shard the RNG stream; serial fallback keeps the
        # byte-identity guarantee for every algorithm.
        assert report.workers == 0
        assert store_bytes(store, config) == store_bytes(serial_store, config)


class TestPersistentPoolParity:
    """One caller-owned pool reused across runs: same bytes, one spawn."""

    def test_pool_reuse_matches_serial_for_all_combinations(
        self, config, example_table
    ):
        serial_store, serial_report = run_with_pool(config, example_table, None)
        expected = store_bytes(serial_store, config)

        with WorkerPool(2) as pool:
            for chunk_size in (None, 1, 4):
                for max_problems in (None, 4):
                    store, report = Preprocessor(config).run(
                        ProblemGenerator(config, example_table),
                        pool=pool,
                        chunk_size=chunk_size,
                        max_problems=max_problems,
                    )
                    label = f"chunk_size={chunk_size} max_problems={max_problems}"
                    if max_problems is None:
                        assert store_bytes(store, config) == expected, label
                        assert report_fields(report) == report_fields(serial_report)
                    else:
                        capped_store, capped_report = run_with_pool(
                            config, example_table, None, max_problems=max_problems
                        )
                        assert store_bytes(store, config) == store_bytes(
                            capped_store, config
                        ), label
                        assert report_fields(report) == report_fields(capped_report)
                    assert report.workers == 2
            assert pool._spawn_count == 1

    def test_engine_preprocess_accepts_a_shared_pool(self, config, example_table):
        from repro.system.engine import VoiceQueryEngine

        serial_engine = VoiceQueryEngine(config, example_table)
        serial_engine.preprocess()
        with WorkerPool(2) as pool:
            engine = VoiceQueryEngine(config, example_table)
            first = engine.preprocess(pool=pool)
            second = engine.preprocess(pool=pool)
            assert pool._spawn_count == 1
        assert first.workers == second.workers == 2
        assert store_bytes(engine.store, config) == store_bytes(
            serial_engine.store, config
        )


def with_cost_target(table: Table) -> Table:
    """``table`` with a second target column, so every scope holds two queries."""
    rows = [
        (row["region"], row["season"], row["delay"], 3 * row["delay"])
        for row in table.iter_rows()
    ]
    return Table.from_rows(
        table.name,
        ["region", "season", "delay", "cost"],
        [ColumnType.CATEGORICAL, ColumnType.CATEGORICAL, ColumnType.NUMERIC, ColumnType.NUMERIC],
        rows,
    )


class TestScopeChunks:
    """A pool task holds whole predicate scopes: no scope is built by two workers."""

    @pytest.fixture()
    def two_target_config(self) -> SummarizationConfig:
        return SummarizationConfig.create(
            "flight_delays",
            dimensions=("region", "season"),
            targets=("delay", "cost"),
            max_query_length=2,
            max_facts_per_speech=2,
            max_fact_dimensions=1,
            algorithm="G-B",
        )

    @staticmethod
    def record_chunks(monkeypatch) -> list[list]:
        """Every chunk handed to a pool's workers, in dispatch order."""
        chunks: list[list] = []
        original = WorkerPool.imap_chunks

        def recording(self, context, fn, stream):
            for chunk in stream:
                chunks.append(list(chunk))
            return original(self, context, fn, iter(chunks))

        monkeypatch.setattr(WorkerPool, "imap_chunks", recording)
        return chunks

    @staticmethod
    def assert_whole_scopes(chunks: list[list], targets: tuple[str, ...]) -> None:
        owner: dict[tuple, int] = {}
        for number, chunk in enumerate(chunks):
            assert len(chunk) % len(targets) == 0
            for query in chunk:
                assert owner.setdefault(query.predicates, number) == number, query
        assert sum(map(len, chunks)) == len(owner) * len(targets)

    def test_chunk_size_rounds_up_to_whole_scopes(self):
        assert scope_chunk_size(None, 100, 2, 1) == 13
        assert scope_chunk_size(None, 100, 2, 3) == 15
        assert scope_chunk_size(None, 0, 2, 2) == 2
        assert [scope_chunk_size(size, 100, 2, 4) for size in (1, 4, 5, 8)] == [4, 4, 8, 8]

    @pytest.mark.parametrize("chunk_size", [None, 1, 3, 5])
    def test_preprocess_chunks_never_split_a_scope(
        self, two_target_config, example_table, monkeypatch, chunk_size
    ):
        table = with_cost_target(example_table)
        serial_store, _ = run_with_pool(two_target_config, table, None)
        chunks = self.record_chunks(monkeypatch)
        store, _ = run_with_pool(two_target_config, table, 2, chunk_size=chunk_size)
        assert len(chunks) > 1
        self.assert_whole_scopes(chunks, two_target_config.targets)
        assert store_bytes(store, two_target_config) == store_bytes(
            serial_store, two_target_config
        )

    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    def test_maintain_chunks_never_split_a_scope(
        self, two_target_config, example_table, monkeypatch, chunk_size
    ):
        table = with_cost_target(example_table)
        new_rows = with_cost_target(example_table.take([0, 5]))
        store, _ = run_with_pool(two_target_config, table, None)
        maintainer = IncrementalMaintainer(two_target_config, table)
        chunks = self.record_chunks(monkeypatch)
        with WorkerPool(2) as pool:
            report = maintainer.maintain(new_rows, store, chunk_size=chunk_size, pool=pool)
        assert len(chunks) > 1
        assert sum(map(len, chunks)) == report.affected_queries
        self.assert_whole_scopes(chunks, two_target_config.targets)
