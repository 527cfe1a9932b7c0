"""Unit tests for repro.relational.csvio."""

import pytest

from repro.relational.column import ColumnType
from repro.relational.csvio import read_csv, write_csv
from repro.relational.errors import SchemaError, TypeMismatchError
from repro.relational.table import Table
from repro.relational.column import Column


class TestReadCsv:
    def test_round_trip(self, tmp_path):
        table = Table(
            "flights",
            [
                Column.categorical("region", ["East", "North", None]),
                Column.numeric("delay", [1.5, None, 3.0]),
            ],
        )
        path = tmp_path / "flights.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.column("region").values == ["East", "North", None]
        assert loaded.column("delay").values == [1.5, None, 3.0]

    def test_type_inference(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("name,score\nalice,1.5\nbob,2\n")
        table = read_csv(path)
        assert table.column("name").ctype is ColumnType.CATEGORICAL
        assert table.column("score").ctype is ColumnType.NUMERIC

    def test_explicit_types(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("code,value\n001,2\n002,3\n")
        table = read_csv(path, types={"code": ColumnType.CATEGORICAL})
        assert table.column("code").values == ["001", "002"]

    def test_limit(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v\n1\n2\n3\n")
        assert read_csv(path, limit=2).num_rows == 2

    def test_default_name_is_file_stem(self, tmp_path):
        path = tmp_path / "primaries.csv"
        path.write_text("v\n1\n")
        assert read_csv(path).name == "primaries"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(SchemaError):
            read_csv(path)


class TestExplicitTypeErrors:
    """A cell that does not fit its declared type raises a
    TypeMismatchError naming the file, the 1-based line and the column."""

    @pytest.mark.parametrize(
        "cell, ctype",
        [
            ("2.7", ColumnType.INTEGER),
            ("inf", ColumnType.INTEGER),
            ("nan", ColumnType.INTEGER),
            ("abc", ColumnType.INTEGER),
            ("abc", ColumnType.NUMERIC),
        ],
    )
    def test_bad_cell_is_named(self, tmp_path, cell, ctype):
        path = tmp_path / "data.csv"
        path.write_text(f"name,x\na,1\nb,{cell}\n")
        with pytest.raises(TypeMismatchError) as excinfo:
            read_csv(path, types={"x": ctype})
        message = str(excinfo.value)
        assert str(path) in message
        assert "line 3" in message
        assert "'x'" in message
        assert repr(cell) in message

    def test_integral_cells_load_as_integers(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x\n2.0\n1e3\n-4\n12345678901234567890\n")
        values = read_csv(path, types={"x": ColumnType.INTEGER}).column("x").values
        assert values == [2, 1000, -4, 12345678901234567890]


class TestWriteCsv:
    def test_creates_parent_directories(self, tmp_path):
        table = Table("t", [Column.numeric("v", [1.0])])
        path = tmp_path / "nested" / "dir" / "out.csv"
        write_csv(table, path)
        assert path.exists()

    def test_null_round_trips_as_empty_cell(self, tmp_path):
        table = Table("t", [Column.categorical("c", [None, "x"])])
        path = tmp_path / "out.csv"
        write_csv(table, path)
        # The second data cell is empty on disk and reads back as NULL.
        assert read_csv(path).column("c").values == [None, "x"]


class TestReadCsvOptions:
    def test_explicit_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v\n1\n")
        assert read_csv(path, name="other").name == "other"

    def test_limit_zero_keeps_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        table = read_csv(path, limit=0)
        assert table.num_rows == 0
        assert table.column_names == ["a", "b"]

    def test_rows_past_the_limit_are_not_checked(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3\n")
        assert read_csv(path, limit=1).to_dicts() == [{"a": 1.0, "b": 2.0}]

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n")
        table = read_csv(path)
        assert table.num_rows == 0
        assert table.column("a").ctype is ColumnType.CATEGORICAL

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,4,5\n")
        with pytest.raises(SchemaError, match="row 3"):
            read_csv(path)


class TestCellValues:
    def test_empty_cells_are_null_and_do_not_block_inference(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v,c\n1,\n,x\n")
        table = read_csv(path)
        assert table.column("v").ctype is ColumnType.NUMERIC
        assert table.column("v").values == [1.0, None]
        assert table.column("c").values == [None, "x"]

    def test_all_empty_column_is_categorical(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v,w\n,1\n,2\n")
        column = read_csv(path).column("v")
        assert column.ctype is ColumnType.CATEGORICAL
        assert column.values == [None, None]

    def test_numeric_nan_is_null_and_inf_is_kept(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x\nnan\ninf\n")
        values = read_csv(path, types={"x": ColumnType.NUMERIC}).column("x").values
        assert values == [None, float("inf")]

    def test_empty_integer_cell_is_named(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,a\n,b\n")
        with pytest.raises(TypeMismatchError, match="line 3, column 'x'"):
            read_csv(path, types={"x": ColumnType.INTEGER})

    def test_quoted_cells_round_trip(self, tmp_path):
        table = Table("t", [Column.categorical("c", ['a, "b"', "line\nbreak"])])
        path = tmp_path / "out.csv"
        write_csv(table, path)
        assert read_csv(path).column("c").values == ['a, "b"', "line\nbreak"]

    def test_integer_column_round_trips_with_types(self, tmp_path):
        table = Table("t", [Column.integer("n", [3, -1]), Column.categorical("c", ["x", "y"])])
        path = tmp_path / "out.csv"
        write_csv(table, path)
        loaded = read_csv(path, name="t", types={"n": ColumnType.INTEGER})
        assert loaded == table
