"""Unit tests for repro.relational.operators."""

import pytest

from repro.relational.column import Column, ColumnType
from repro.relational.errors import SchemaError
from repro.relational.operators import select
from repro.relational.table import Table
from tests.relational.predicates import (
    EqualsPredicate,
    TruePredicate,
    conjunction_of_equalities,
)


@pytest.fixture()
def flights() -> Table:
    return Table(
        "flights",
        [
            Column.categorical("region", ["East", "East", "North", "North"]),
            Column.categorical("season", ["Winter", "Summer", "Winter", "Summer"]),
            Column.numeric("delay", [15.0, 10.0, 15.0, 15.0]),
        ],
    )


class TestSelectProject:
    def test_select(self, flights):
        result = select(flights, EqualsPredicate("region", "East"))
        assert result.num_rows == 2
        assert result.column("season").values == ["Winter", "Summer"]

    def test_select_renames(self, flights):
        assert select(flights, EqualsPredicate("region", "East"), name="east").name == "east"


class TestSelectEdgeCases:
    def test_true_predicate_keeps_every_row_and_name(self, flights):
        result = select(flights, TruePredicate())
        assert result == flights
        assert result.name == "flights"

    def test_no_match_keeps_schema(self, flights):
        result = select(flights, EqualsPredicate("region", "South"))
        assert result.num_rows == 0
        assert result.column_names == ["region", "season", "delay"]
        assert result.column("delay").ctype is ColumnType.NUMERIC

    def test_conjunction(self, flights):
        predicate = conjunction_of_equalities({"season": "Summer", "delay": 15.0})
        assert select(flights, predicate).to_dicts() == [
            {"region": "North", "season": "Summer", "delay": 15.0}
        ]

    def test_source_unchanged(self, flights):
        select(flights, EqualsPredicate("region", "East"))
        assert flights.num_rows == 4

    def test_unknown_column_rejected(self, flights):
        with pytest.raises(SchemaError):
            select(flights, EqualsPredicate("carrier", "AA"))
