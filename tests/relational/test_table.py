"""Unit tests for repro.relational.table."""

import numpy as np
import pytest

from repro.relational.column import Column, ColumnType
from repro.relational.errors import SchemaError
from repro.relational.table import Table


def make_table() -> Table:
    return Table(
        "people",
        [
            Column.categorical("city", ["NYC", "LA", "NYC"]),
            Column.numeric("age", [30.0, 40.0, 50.0]),
        ],
    )


class TestConstruction:
    def test_basic_properties(self):
        table = make_table()
        assert table.name == "people"
        assert table.num_rows == 3
        assert table.column_names == ["city", "age"]
        assert len(table) == 3

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column.numeric("a", [1]), Column.numeric("a", [2])])

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column.numeric("a", [1]), Column.numeric("b", [1, 2])])

    def test_from_rows(self):
        table = Table.from_rows(
            "t",
            ["c", "v"],
            [ColumnType.CATEGORICAL, ColumnType.NUMERIC],
            [("a", 1), ("b", 2)],
        )
        assert table.num_rows == 2
        assert table.value(1, "v") == 2.0

    def test_from_rows_wrong_width_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_rows("t", ["c"], [ColumnType.CATEGORICAL], [("a", 1)])

    def test_from_dict_infers_types(self):
        table = Table.from_dict("t", {"c": ["a", "b"], "v": [1, 2]})
        assert table.column("c").ctype is ColumnType.CATEGORICAL
        assert table.column("v").ctype is ColumnType.NUMERIC

    def test_from_dict_infers_numpy_numbers_as_numeric(self):
        table = Table.from_dict(
            "t",
            {
                "i": np.array([1, 2, 3]),
                "f": np.array([1.5, 2.0, 3.0]),
                "b": np.array([True, False, True]),
                "pb": [True, False, True],
            },
        )
        assert table.column("i").ctype is ColumnType.NUMERIC
        assert table.column("i").values == [1.0, 2.0, 3.0]
        assert table.column("f").ctype is ColumnType.NUMERIC
        assert table.column("b").ctype is ColumnType.CATEGORICAL
        assert table.column("pb").ctype is ColumnType.CATEGORICAL


class TestAccess:
    def test_column_lookup_and_error(self):
        table = make_table()
        assert table.column("city").values[0] == "NYC"
        with pytest.raises(SchemaError):
            table.column("missing")

    def test_row_and_iteration(self):
        table = make_table()
        assert table.row(0) == {"city": "NYC", "age": 30.0}
        assert len(table.to_dicts()) == 3

    def test_has_column(self):
        table = make_table()
        assert table.has_column("age")
        assert not table.has_column("salary")


class TestTransformations:
    def test_take_and_mask(self):
        table = make_table()
        assert table.take([2, 0]).column("age").values == [50.0, 30.0]
        assert table.mask([False, True, False]).column("city").values == ["LA"]

    def test_concat(self):
        table = make_table()
        combined = table.concat(table)
        assert combined.num_rows == 6

    def test_concat_schema_mismatch(self):
        other = Table("o", [Column.numeric("age", [1.0])])
        with pytest.raises(SchemaError):
            make_table().concat(other)

    @staticmethod
    def typed_table(rows) -> Table:
        return Table.from_rows(
            "t",
            ["c", "n", "i"],
            [ColumnType.CATEGORICAL, ColumnType.NUMERIC, ColumnType.INTEGER],
            rows,
        )

    def test_concat_equals_renormalising_every_value(self):
        base = self.typed_table([("a", 1, 2), (None, None, 3), (7, float("nan"), 4.0)])
        new = self.typed_table([(None, 2.5, True), ("b", 3, 5)])
        combined = base.concat(new)
        for mine, theirs, got in zip(base.columns, new.columns, combined.columns):
            expected = Column(mine.name, mine.ctype, list(mine) + list(theirs))
            assert got == expected
            assert [type(v) for v in got] == [type(v) for v in expected]
        assert combined.column("c").values == ["a", None, "7", None, "b"]
        assert combined.column("n").values == [1.0, None, None, 2.5, 3.0]
        assert combined.column("i").values == [2, 3, 4, 1, 5]
        assert all(type(v) is int for v in combined.column("i"))

    def test_concat_does_not_renormalise(self, monkeypatch):
        base = self.typed_table([("a", 1.0, 2)] * 50)
        new = self.typed_table([("b", 2.0, 3)])
        normalised = []
        real = Column._normalise

        def counting(column, raw):
            normalised.append(len(raw))
            return real(column, raw)

        monkeypatch.setattr(Column, "_normalise", counting)
        combined = base.concat(new)
        assert combined.num_rows == 51
        assert normalised == []

    def test_concat_of_several_equals_the_pairwise_fold(self):
        base = self.typed_table([("a", 1, 2), (None, None, 3)])
        batches = [
            self.typed_table([("b", 2.5, 4)]),
            self.typed_table([]),
            self.typed_table([(None, 3, 5), ("c", None, 6)]),
        ]
        folded = base
        for batch in batches:
            folded = folded.concat(batch)
        combined = base.concat(*batches)
        assert combined.name == folded.name
        assert combined == folded
        for got, expected in zip(combined.columns, folded.columns):
            assert got.ctype is expected.ctype
            assert [type(v) for v in got] == [type(v) for v in expected]
        # The base is untouched: tables are immutable.
        assert base.num_rows == 2

    def test_concat_of_nothing_is_the_table(self):
        table = make_table()
        assert table.concat() is table

    def test_concat_checks_every_batch(self):
        good = self.typed_table([("a", 1.0, 2)])
        bad = Table.from_rows(
            "t",
            ["c", "n", "i"],
            [ColumnType.CATEGORICAL, ColumnType.NUMERIC, ColumnType.NUMERIC],
            [("b", 2.0, 3.0)],
        )
        with pytest.raises(SchemaError, match="types differ"):
            good.concat(good, bad)

    def test_renamed(self):
        assert make_table().renamed("other").name == "other"

    def test_equality_ignores_name(self):
        assert make_table() == make_table().renamed("other")


class TestTypeInference:
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1, 2.5, None], ColumnType.NUMERIC),
            ([np.int32(1), np.float32(2.0)], ColumnType.NUMERIC),
            ([1, "a"], ColumnType.CATEGORICAL),
            (["1", "2"], ColumnType.CATEGORICAL),
            ([None, None], ColumnType.CATEGORICAL),
            ([], ColumnType.CATEGORICAL),
            ([1, True], ColumnType.CATEGORICAL),
            ([np.bool_(False)], ColumnType.CATEGORICAL),
        ],
    )
    def test_from_dict_inference(self, values, expected):
        table = Table.from_dict("t", {"x": values})
        assert table.column("x").ctype is expected

    def test_from_dict_explicit_types_win(self):
        table = Table.from_dict(
            "t", {"code": [1, 2], "n": [3, 4]}, types={"code": ColumnType.CATEGORICAL}
        )
        assert table.column("code").values == ["1", "2"]
        assert table.column("n").ctype is ColumnType.NUMERIC


class TestShape:
    def test_table_without_columns_is_empty(self):
        table = Table("t", [])
        assert table.num_rows == 0
        assert table.column_names == []
        assert table.to_dicts() == []

    def test_from_rows_schema_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_rows("t", ["a", "b"], [ColumnType.NUMERIC], [])

    def test_from_rows_without_rows(self):
        table = Table.from_rows("t", ["a"], [ColumnType.NUMERIC], [])
        assert table.num_rows == 0
        assert table.column("a").ctype is ColumnType.NUMERIC

    def test_columns_is_a_copy(self):
        table = make_table()
        table.columns.append(Column.numeric("x", [1.0, 2.0, 3.0]))
        assert table.column_names == ["city", "age"]


class TestRowAccess:
    def test_value(self):
        assert make_table().value(1, "city") == "LA"

    def test_value_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            make_table().value(0, "salary")

    def test_iter_rows_in_order(self):
        rows = list(make_table().iter_rows())
        assert [r["age"] for r in rows] == [30.0, 40.0, 50.0]
        assert list(rows[0]) == ["city", "age"]

    def test_unknown_column_error_lists_available(self):
        with pytest.raises(SchemaError, match="city"):
            make_table().column("missing")


class TestImmutability:
    def test_take_and_mask_keep_name_and_schema(self):
        table = make_table()
        for derived in (table.take([1]), table.mask([True, False, False])):
            assert derived.name == "people"
            assert derived.column_names == ["city", "age"]
        assert table.num_rows == 3

    def test_renamed_leaves_source_unchanged(self):
        table = make_table()
        renamed = table.renamed("cities")
        assert (renamed.name, table.name) == ("cities", "people")
        assert renamed == table

    def test_concat_leaves_both_sources_unchanged(self):
        table, other = make_table(), make_table().take([0])
        combined = table.concat(other)
        assert combined.num_rows == 4
        assert (table.num_rows, other.num_rows) == (3, 1)
        assert table.column("age").values == [30.0, 40.0, 50.0]

    def test_take_of_no_rows_keeps_the_schema(self):
        empty = make_table().take([])
        assert empty.num_rows == 0
        assert empty.column_names == ["city", "age"]
        assert [c.ctype for c in empty.columns] == [c.ctype for c in make_table().columns]

    def test_mask_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            make_table().mask([True])

    def test_concat_keeps_left_name_and_inputs(self):
        table = make_table()
        combined = table.concat(make_table().renamed("other"))
        assert combined.name == "people"
        assert table.num_rows == 3
        assert combined.column("city").values == ["NYC", "LA", "NYC"] * 2

    def test_concat_type_mismatch_rejected(self):
        other = Table(
            "o",
            [Column.categorical("city", ["SF"]), Column.categorical("age", ["old"])],
        )
        with pytest.raises(SchemaError):
            make_table().concat(other)

    def test_concat_column_order_matters(self):
        other = Table("o", [Column.numeric("age", [1.0]), Column.categorical("city", ["SF"])])
        with pytest.raises(SchemaError):
            make_table().concat(other)


class TestEquality:
    def test_column_order_matters(self):
        table = make_table()
        swapped = Table("people", list(reversed(table.columns)))
        assert table != swapped

    def test_values_matter(self):
        assert make_table() != make_table().take([0, 1, 1])

    def test_not_equal_to_other_types(self):
        assert make_table() != make_table().to_dicts()
