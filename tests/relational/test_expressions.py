"""Unit tests for the row-level predicates of ``tests.relational.predicates``."""

import pytest

from repro.relational.column import Column
from repro.relational.errors import SchemaError
from repro.relational.expressions import Predicate
from repro.relational.table import Table
from tests.relational.predicates import (
    AndPredicate,
    EqualsPredicate,
    TruePredicate,
    conjunction_of_equalities,
)


@pytest.fixture()
def table() -> Table:
    return Table(
        "flights",
        [
            Column.categorical("season", ["Winter", "Summer", None, "Winter"]),
            Column.numeric("delay", [15.0, 20.0, 5.0, None]),
        ],
    )


class TestEqualsPredicate:
    def test_evaluate(self, table):
        assert EqualsPredicate("season", "Winter").evaluate(table) == [True, False, False, True]

    def test_null_never_matches(self, table):
        assert EqualsPredicate("season", None).evaluate(table) == [False] * 4

    def test_unknown_column_rejected(self, table):
        with pytest.raises(SchemaError):
            EqualsPredicate("missing", 1).evaluate(table)

    def test_equality_and_hash(self):
        assert EqualsPredicate("a", 1) == EqualsPredicate("a", 1)
        assert hash(EqualsPredicate("a", 1)) == hash(EqualsPredicate("a", 1))
        assert EqualsPredicate("a", 1) != EqualsPredicate("a", 2)


class TestOtherPredicates:
    def test_true_predicate(self, table):
        assert TruePredicate().evaluate(table) == [True] * 4


class TestBooleanCombinations:
    def test_and(self, table):
        predicate = AndPredicate(
            [EqualsPredicate("season", "Winter"), EqualsPredicate("delay", 15.0)]
        )
        assert predicate.evaluate(table) == [True, False, False, False]

    def test_referenced_columns(self):
        predicate = AndPredicate(
            [EqualsPredicate("a", 1), AndPredicate([EqualsPredicate("b", 2), TruePredicate()])]
        )
        assert predicate.referenced_columns() == {"a", "b"}

    def test_empty_and(self, table):
        assert AndPredicate([]).evaluate(table) == [True] * 4


class TestConjunctionHelper:
    def test_empty_mapping_is_true(self, table):
        assert isinstance(conjunction_of_equalities({}), TruePredicate)

    def test_single_predicate(self):
        predicate = conjunction_of_equalities({"season": "Winter"})
        assert isinstance(predicate, EqualsPredicate)

    def test_multiple_predicates(self, table):
        predicate = conjunction_of_equalities({"season": "Winter", "delay": 15.0})
        assert predicate.evaluate(table) == [True, False, False, False]


class TestPredicateProtocol:
    def test_base_class_is_abstract(self):
        with pytest.raises(TypeError):
            Predicate()

    def test_true_predicate_equality_hash_and_repr(self):
        assert TruePredicate() == TruePredicate()
        assert hash(TruePredicate()) == hash(TruePredicate())
        assert TruePredicate() != EqualsPredicate("a", 1)
        assert repr(TruePredicate()) == "TRUE"

    def test_equals_repr(self):
        assert repr(EqualsPredicate("season", "Winter")) == "season = 'Winter'"

    def test_equals_not_equal_to_other_types(self):
        assert EqualsPredicate("a", 1) != ("a", 1)

    def test_equals_compares_numbers_by_value(self, table):
        assert EqualsPredicate("delay", 15).evaluate(table) == [True, False, False, False]

    def test_equals_on_empty_table(self):
        empty = Table("t", [Column.categorical("season", [])])
        assert EqualsPredicate("season", "Winter").evaluate(empty) == []

    def test_true_predicate_accepts_rows_of_nulls(self):
        nulls = Table("t", [Column.categorical("season", [None, None])])
        assert TruePredicate().evaluate(nulls) == [True, True]

    def test_evaluate_agrees_with_a_row_filter(self, table):
        """Each predicate selects exactly the rows whose non-NULL values
        equal every constant it names."""
        for assignments in (
            {"season": "Winter"},
            {"delay": 5.0},
            {"season": "Winter", "delay": 15.0},
            {},
        ):
            predicate = conjunction_of_equalities(assignments)
            rowwise = [
                all(row[col] is not None and row[col] == val for col, val in assignments.items())
                for row in table.iter_rows()
            ]
            assert predicate.evaluate(table) == rowwise


class TestAndPredicate:
    def test_row_failing_one_child_is_rejected(self):
        pairs = Table("t", [Column.integer("a", [1, 1, 2]), Column.integer("b", [2, 3, 2])])
        predicate = AndPredicate([EqualsPredicate("a", 1), EqualsPredicate("b", 2)])
        assert predicate.evaluate(pairs) == [True, False, False]

    def test_unknown_column_in_child_rejected(self, table):
        predicate = AndPredicate([EqualsPredicate("season", "Winter"), EqualsPredicate("x", 1)])
        with pytest.raises(SchemaError):
            predicate.evaluate(table)

    def test_repr(self):
        predicate = AndPredicate([EqualsPredicate("a", 1), TruePredicate()])
        assert repr(predicate) == "(a = 1 AND TRUE)"


class TestConjunctionOrder:
    def test_children_sorted_by_column(self):
        predicate = conjunction_of_equalities({"b": 2, "a": 1})
        assert predicate.children == [EqualsPredicate("a", 1), EqualsPredicate("b", 2)]
        assert predicate.referenced_columns() == {"a", "b"}
