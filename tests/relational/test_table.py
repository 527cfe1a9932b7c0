"""Unit tests for repro.relational.table."""

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
        assert table.num_columns == 2
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

    def test_empty_table(self):
        table = Table.empty("t", [("a", ColumnType.NUMERIC)])
        assert table.num_rows == 0
        assert table.column_names == ["a"]


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
    def test_with_column_appends(self):
        table = make_table().with_column(Column.numeric("height", [1.0, 2.0, 3.0]))
        assert table.column_names == ["city", "age", "height"]

    def test_with_column_replaces(self):
        table = make_table().with_column(Column.numeric("age", [0.0, 0.0, 0.0]))
        assert table.column("age").values == [0.0, 0.0, 0.0]
        assert table.num_columns == 2

    def test_with_column_length_mismatch(self):
        with pytest.raises(SchemaError):
            make_table().with_column(Column.numeric("x", [1.0]))

    def test_select_and_drop_columns(self):
        table = make_table()
        assert table.select_columns(["age"]).column_names == ["age"]
        assert table.without_columns(["age"]).column_names == ["city"]

    def test_take_and_mask(self):
        table = make_table()
        assert table.take([2, 0]).column("age").values == [50.0, 30.0]
        assert table.mask([False, True, False]).column("city").values == ["LA"]

    def test_head(self):
        assert make_table().head(2).num_rows == 2
        assert make_table().head(10).num_rows == 3

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
            expected = mine.with_values(list(mine) + list(theirs))
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

    def test_sorted_by_ascending_and_descending(self):
        table = make_table()
        ascending = table.sorted_by("age")
        assert ascending.column("age").values == [30.0, 40.0, 50.0]
        descending = table.sorted_by("age", descending=True)
        assert descending.column("age").values == [50.0, 40.0, 30.0]

    def test_sorted_by_nulls_last(self):
        table = Table("t", [Column.numeric("v", [None, 2.0, 1.0])])
        assert table.sorted_by("v").column("v").values == [1.0, 2.0, None]
        assert table.sorted_by("v", descending=True).column("v").values == [2.0, 1.0, None]

    def test_renamed(self):
        assert make_table().renamed("other").name == "other"

    def test_equality_ignores_name(self):
        assert make_table() == make_table().renamed("other")
