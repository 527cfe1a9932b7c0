"""Shared fixtures for the serving-layer tests."""

from __future__ import annotations

import asyncio

import pytest

from repro.relational.column import ColumnType
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.engine import VoiceQueryEngine

COLUMNS = ["region", "season", "delay"]
COLUMN_TYPES = [ColumnType.CATEGORICAL, ColumnType.CATEGORICAL, ColumnType.NUMERIC]


def make_config(max_query_length: int = 2) -> SummarizationConfig:
    return SummarizationConfig.create(
        "flight_delays",
        dimensions=("region", "season"),
        targets=("delay",),
        max_query_length=max_query_length,
        max_facts_per_speech=2,
        max_fact_dimensions=1,
        algorithm="G-B",
    )


def make_engine(
    table: Table, preprocess: bool = True, advanced: bool = False
) -> VoiceQueryEngine:
    engine = VoiceQueryEngine(
        make_config(),
        table,
        target_synonyms={"delay": ["delays"]},
        enable_advanced_queries=advanced,
    )
    if preprocess:
        engine.preprocess()
    return engine


def append_table(rows: list[tuple]) -> Table:
    """An append batch over the running-example schema."""
    return Table.from_rows("flight_delays", COLUMNS, COLUMN_TYPES, rows)


def gate_answers(service) -> asyncio.Event:
    """Make every answer of ``service`` wait until the returned event is set."""
    gate = asyncio.Event()
    inner_answer = service._answer

    async def gated_answer(request):
        await gate.wait()
        return await inner_answer(request)

    service._answer = gated_answer
    return gate


@pytest.fixture()
def engine(example_table) -> VoiceQueryEngine:
    """A pre-processed engine over the running-example table."""
    return make_engine(example_table)


@pytest.fixture()
def advanced_engine(example_table) -> VoiceQueryEngine:
    """The same engine with comparison/extremum answers enabled."""
    return make_engine(example_table, advanced=True)


@pytest.fixture()
def append_batches() -> list[Table]:
    """Two append batches touching distinct and overlapping subsets."""
    return [
        append_table([("East", "Winter", 55.0), ("North", "Summer", 44.0)]),
        append_table([("East", "Winter", 5.0), ("West", "Fall", 30.0)]),
    ]
