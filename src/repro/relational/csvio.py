"""CSV import/export for tables.

The original evaluation loads public CSV data sets (flight delays,
developer survey, ACS, primaries) into Postgres.  These helpers load
such a file into an in-memory :class:`Table`, plus export for
inspecting intermediate results.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence

from repro.relational.column import Column, ColumnType
from repro.relational.errors import SchemaError, TypeMismatchError
from repro.relational.table import Table


def _parse_cell(raw: str, ctype: ColumnType):
    """Convert a CSV cell to the column's value domain ('' -> NULL).

    Raises ``ValueError`` for a cell that is not a number in a NUMERIC
    column, or not an integral one in an INTEGER column (which holds no
    NULLs, so an empty cell there is an error too).
    """
    if raw == "":
        if ctype is ColumnType.INTEGER:
            raise ValueError("NULL in an integer column")
        return None
    if ctype is ColumnType.NUMERIC:
        return float(raw)
    if ctype is ColumnType.INTEGER:
        try:
            return int(raw)
        except ValueError:
            value = float(raw)  # "2.0" and "1e3" are integers too
        if not value.is_integer():
            raise ValueError(f"{raw!r} is not an integer")
        return int(value)
    return raw


def read_csv(
    path: str | Path,
    name: str | None = None,
    types: Mapping[str, ColumnType] | None = None,
    limit: int | None = None,
) -> Table:
    """Read a CSV file into a :class:`Table`.

    Parameters
    ----------
    path:
        File to read; the first row must contain column names.
    name:
        Table name (defaults to the file stem).
    types:
        Optional per-column types; unlisted columns default to
        CATEGORICAL unless every value parses as a float, in which case
        they become NUMERIC.
    limit:
        Optional cap on the number of data rows read.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"CSV file {path} is empty") from None
        rows: list[list[str]] = []
        for i, row in enumerate(reader):
            if limit is not None and i >= limit:
                break
            if len(row) != len(header):
                raise SchemaError(
                    f"CSV file {path}: row {i + 2} has {len(row)} cells, expected {len(header)}"
                )
            rows.append(row)

    resolved_types: dict[str, ColumnType] = {}
    for pos, cname in enumerate(header):
        if types is not None and cname in types:
            resolved_types[cname] = types[cname]
            continue
        resolved_types[cname] = _infer_csv_type([r[pos] for r in rows])

    columns = []
    for pos, cname in enumerate(header):
        ctype = resolved_types[cname]
        values = []
        for line, row in enumerate(rows, start=2):
            try:
                values.append(_parse_cell(row[pos], ctype))
            except ValueError:
                raise TypeMismatchError(
                    f"CSV file {path}: line {line}, column {cname!r}: "
                    f"cannot read {row[pos]!r} as {ctype.value}"
                ) from None
        columns.append(Column(cname, ctype, values))
    return Table(name or path.stem, columns)


def _infer_csv_type(raw_values: Sequence[str]) -> ColumnType:
    """Infer NUMERIC when every non-empty cell parses as a float."""
    saw_value = False
    for raw in raw_values:
        if raw == "":
            continue
        saw_value = True
        try:
            float(raw)
        except ValueError:
            return ColumnType.CATEGORICAL
    return ColumnType.NUMERIC if saw_value else ColumnType.CATEGORICAL


def write_csv(table: Table, path: str | Path) -> None:
    """Write a table to a CSV file (NULL -> empty cell)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        for row in table.iter_rows():
            writer.writerow(
                ["" if row[c] is None else row[c] for c in table.column_names]
            )
