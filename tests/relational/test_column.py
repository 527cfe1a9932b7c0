"""Unit tests for repro.relational.column."""

import math

import numpy as np
import pytest

from repro.relational.column import Column, ColumnType
from repro.relational.errors import SchemaError, TypeMismatchError


class TestConstruction:
    def test_categorical_values_are_strings(self):
        column = Column.categorical("city", ["NYC", 5, None])
        assert column.values == ["NYC", "5", None]

    def test_numeric_values_are_floats(self):
        column = Column.numeric("delay", [1, 2.5, None])
        assert column.values == [1.0, 2.5, None]

    def test_numeric_rejects_non_numeric(self):
        with pytest.raises(TypeMismatchError):
            Column.numeric("delay", ["many"])

    def test_integer_rejects_null(self):
        with pytest.raises(TypeMismatchError):
            Column.integer("count", [1, None])

    def test_integer_coerces_floats(self):
        column = Column.integer("count", [1.0, 2.0])
        assert column.values == [1, 2]

    @pytest.mark.parametrize(
        "value", [2.7, -0.5, np.float64(2.5), float("inf"), float("-inf")]
    )
    def test_integer_rejects_non_integral_values(self, value):
        with pytest.raises(TypeMismatchError):
            Column.integer("count", [1, value])

    def test_integer_accepts_integral_values_of_any_kind(self):
        column = Column.integer("count", [np.int64(3), np.float64(4.0), "5", True])
        assert column.values == [3, 4, 5, 1]
        assert all(type(v) is int for v in column)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column.numeric("", [1.0])

    def test_nan_becomes_null(self):
        column = Column.numeric("delay", [float("nan"), 1.0])
        assert column.values == [None, 1.0]

    def test_length_and_iteration(self):
        column = Column.categorical("c", ["a", "b", "c"])
        assert len(column) == 3
        assert list(column) == ["a", "b", "c"]
        assert column[1] == "b"


class TestDerivedViews:
    def test_renamed_preserves_values(self):
        column = Column.numeric("old", [1.0, 2.0])
        renamed = column.renamed("new")
        assert renamed.name == "new"
        assert renamed.values == column.values

    def test_take_reorders(self):
        column = Column.numeric("v", [1.0, 2.0, 3.0])
        assert column.take([2, 0]).values == [3.0, 1.0]

    def test_mask_filters(self):
        column = Column.categorical("c", ["a", "b", "c"])
        assert column.mask([True, False, True]).values == ["a", "c"]

    def test_mask_length_mismatch_rejected(self):
        column = Column.categorical("c", ["a", "b"])
        with pytest.raises(SchemaError):
            column.mask([True])

    def test_constructor_normalises_to_the_type(self):
        replacement = Column("v", Column.numeric("v", [1.0]).ctype, [3, 4])
        assert replacement.ctype is ColumnType.NUMERIC
        assert replacement.values == [3.0, 4.0]

    def test_equality(self):
        a = Column.numeric("v", [1.0, 2.0])
        b = Column.numeric("v", [1.0, 2.0])
        c = Column.numeric("v", [1.0, 3.0])
        assert a == b
        assert a != c


class TestStatistics:
    def test_nulls_are_none(self):
        column = Column.categorical("c", ["a", None, None])
        assert column.values.count(None) == 2
        assert column.values[1] is None
        assert column.values[0] is not None

    def test_distinct_values_order_and_count(self):
        column = Column.categorical("c", ["b", "a", "b", None])
        assert column.distinct_values() == ["b", "a"]
        assert column.distinct_count() == 2

    def test_to_numpy_null_becomes_nan(self):
        column = Column.numeric("v", [1.0, None])
        array = column.to_numpy()
        assert array[0] == 1.0
        assert math.isnan(array[1])

    def test_to_numpy_rejects_categorical(self):
        with pytest.raises(TypeMismatchError):
            Column.categorical("c", ["a"]).to_numpy()

    def test_numeric_summary(self):
        column = Column.numeric("v", [1.0, 3.0, None])
        summary = column.numeric_summary()
        assert summary["count"] == 2
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0

    def test_numeric_summary_empty(self):
        summary = Column.numeric("v", [None]).numeric_summary()
        assert summary["count"] == 0
        assert math.isnan(summary["mean"])


class TestNormalisation:
    def test_categorical_nan_becomes_null(self):
        assert Column.categorical("c", [float("nan"), "a"]).values == [None, "a"]

    def test_numeric_parses_numeric_strings(self):
        assert Column.numeric("v", ["2.5", "-1", "1e3"]).values == [2.5, -1.0, 1000.0]

    def test_numeric_rejects_unconvertible_objects(self):
        with pytest.raises(TypeMismatchError):
            Column.numeric("v", [object()])

    @pytest.mark.parametrize("value", ["abc", "2.5", float("nan"), object()])
    def test_integer_rejects_non_integers(self, value):
        with pytest.raises(TypeMismatchError):
            Column.integer("count", [value])

    def test_integer_accepts_signed_integral_strings(self):
        assert Column.integer("count", ["-7", "+3", " 4 "]).values == [-7, 3, 4]

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            Column("c", "text", ["a"])

    def test_error_names_the_column(self):
        with pytest.raises(TypeMismatchError, match="'delay'"):
            Column.numeric("delay", ["many"])


class TestAccessors:
    def test_values_is_a_copy(self):
        column = Column.numeric("v", [1.0, 2.0])
        column.values.append(3.0)
        assert column.values == [1.0, 2.0]
        assert len(column) == 2

    def test_first_index(self):
        column = Column.categorical("c", ["a", "b", "a"])
        assert column.first_index("a") == 0
        assert column.first_index("b") == 1

    def test_first_index_missing_raises(self):
        with pytest.raises(ValueError):
            Column.categorical("c", ["a"]).first_index("z")

    def test_name_and_type(self):
        column = Column.integer("n", [1])
        assert column.name == "n"
        assert column.ctype is ColumnType.INTEGER

    @pytest.mark.parametrize(
        "other",
        [
            Column.numeric("w", [1.0, 2.0]),
            Column.categorical("v", [1.0, 2.0]),
            Column.numeric("v", [1.0]),
        ],
    )
    def test_equality_compares_name_type_and_values(self, other):
        assert Column.numeric("v", [1.0, 2.0]) != other

    def test_not_equal_to_other_types(self):
        assert Column.numeric("v", [1.0]) != [1.0]


class TestDerivedViewsKeepValues:
    def test_take_repeats_and_keeps_type(self):
        column = Column.integer("n", [1, 2, 3])
        taken = column.take([1, 1, 0])
        assert taken.values == [2, 2, 1]
        assert taken.ctype is ColumnType.INTEGER
        assert taken.name == "n"

    def test_take_and_mask_leave_source_unchanged(self):
        column = Column.categorical("c", ["a", "b", "c"])
        column.take([0])
        column.mask([False, False, True])
        assert column.values == ["a", "b", "c"]

    def test_renamed_to_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column.numeric("v", [1.0]).renamed("")

    def test_constructor_rejects_values_of_another_type(self):
        with pytest.raises(TypeMismatchError):
            Column("n", ColumnType.INTEGER, [1.5])


class TestNumericAccess:
    def test_integer_to_numpy_gives_floats(self):
        array = Column.integer("n", [1, 2]).to_numpy()
        assert array.dtype == np.float64
        assert array.tolist() == [1.0, 2.0]

    def test_numeric_summary_rejects_categorical(self):
        with pytest.raises(TypeMismatchError):
            Column.categorical("c", ["a"]).numeric_summary()

    def test_integer_summary(self):
        summary = Column.integer("n", [4, 1, 7]).numeric_summary()
        assert summary == {"count": 3.0, "mean": 4.0, "min": 1.0, "max": 7.0}

    def test_distinct_count_of_numbers(self):
        column = Column.numeric("v", [1, 1.0, 2, None])
        assert column.distinct_values() == [1.0, 2.0]
        assert column.distinct_count() == 2
