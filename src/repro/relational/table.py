"""Row/column table abstraction used throughout the reproduction.

A :class:`Table` is an ordered collection of named, typed columns of
equal length.  Tables are immutable: every transformation returns a new
table, so a selection or an appended batch never aliases its input,
mirroring how each SQL statement in the paper's implementation produces
a fresh result relation.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.relational.column import Column, ColumnType
from repro.relational.errors import SchemaError


class Table:
    """An immutable relational table.

    Parameters
    ----------
    name:
        Table name (used in error messages).
    columns:
        Columns, all of the same length, with unique names.
    """

    __slots__ = ("_name", "_columns", "_by_name", "_nrows")

    def __init__(self, name: str, columns: Sequence[Column]):
        self._name = str(name)
        cols = list(columns)
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r}: duplicate column names in {names}")
        lengths = {len(c) for c in cols}
        if len(lengths) > 1:
            raise SchemaError(
                f"table {name!r}: columns have inconsistent lengths {sorted(lengths)}"
            )
        self._columns = cols
        self._by_name = {c.name: c for c in cols}
        self._nrows = lengths.pop() if lengths else 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        name: str,
        column_names: Sequence[str],
        column_types: Sequence[ColumnType],
        rows: Iterable[Sequence[Any]],
    ) -> "Table":
        """Build a table from row tuples.

        ``column_names`` and ``column_types`` define the schema; ``rows``
        is an iterable of sequences with one entry per column.
        """
        if len(column_names) != len(column_types):
            raise SchemaError("column_names and column_types must have equal length")
        materialised = [list(r) for r in rows]
        for r in materialised:
            if len(r) != len(column_names):
                raise SchemaError(
                    f"row {r!r} has {len(r)} values, expected {len(column_names)}"
                )
        columns = [
            Column(cname, ctype, [r[i] for r in materialised])
            for i, (cname, ctype) in enumerate(zip(column_names, column_types))
        ]
        return cls(name, columns)

    @classmethod
    def from_dict(
        cls,
        name: str,
        data: Mapping[str, Sequence[Any]],
        types: Mapping[str, ColumnType] | None = None,
    ) -> "Table":
        """Build a table from a mapping of column name to values.

        When ``types`` is omitted, column types are inferred: a column
        whose non-NULL values are all ints/floats becomes NUMERIC,
        otherwise CATEGORICAL.
        """
        columns = []
        for cname, values in data.items():
            if types is not None and cname in types:
                ctype = types[cname]
            else:
                ctype = _infer_type(values)
            columns.append(Column(cname, ctype, values))
        return cls(name, columns)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Table name."""
        return self._name

    @property
    def columns(self) -> list[Column]:
        """The table's columns (copy of the list; columns are immutable)."""
        return list(self._columns)

    @property
    def column_names(self) -> list[str]:
        """Names of all columns, in schema order."""
        return [c.name for c in self._columns]

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._nrows

    def __len__(self) -> int:
        return self._nrows

    def has_column(self, name: str) -> bool:
        """Return True when a column with ``name`` exists."""
        return name in self._by_name

    def column(self, name: str) -> Column:
        """Return the column with ``name``.

        Raises :class:`SchemaError` when the column does not exist.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"table {self._name!r} has no column {name!r}; "
                f"available: {self.column_names}"
            ) from None

    def value(self, row_index: int, column_name: str) -> Any:
        """Return the value at (``row_index``, ``column_name``)."""
        return self.column(column_name)[row_index]

    def row(self, index: int) -> dict[str, Any]:
        """Return row ``index`` as a dict from column name to value."""
        return {c.name: c[index] for c in self._columns}

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over rows as dicts."""
        for i in range(self._nrows):
            yield self.row(i)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Materialise all rows as a list of dicts."""
        return list(self.iter_rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self._columns == other._columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self._name!r}, rows={self._nrows}, cols={self.column_names})"

    # ------------------------------------------------------------------
    # Transformations (all return new tables)
    # ------------------------------------------------------------------
    def renamed(self, new_name: str) -> "Table":
        """Return the same table under a different name."""
        return Table(new_name, self._columns)

    def take(self, indices: Sequence[int]) -> "Table":
        """Return a new table with rows at ``indices`` (in order)."""
        return Table(self._name, [c.take(indices) for c in self._columns])

    def mask(self, keep: Sequence[bool]) -> "Table":
        """Return a new table keeping rows where ``keep`` is True."""
        return Table(self._name, [c.mask(keep) for c in self._columns])

    def concat(self, *others: "Table") -> "Table":
        """Append the rows of ``others``, in order, to this table.

        Schemas (names and types, in order) must match exactly.  Every
        side's values are already normalised for their (equal) column
        types, so nothing is normalised again: appending a few rows to
        a large table costs a list copy, not a pass over every value.
        Folding k batches in one call copies each column once, where k
        pairwise calls would copy the growing table k times.  With no
        ``others`` the table itself is returned (tables are immutable).
        """
        if not others:
            return self
        for other in others:
            if self.column_names != other.column_names:
                raise SchemaError(
                    f"cannot concat: schemas differ ({self.column_names} vs {other.column_names})"
                )
            for mine, theirs in zip(self._columns, other._columns):
                if mine.ctype is not theirs.ctype:
                    raise SchemaError(
                        f"cannot concat: column {mine.name!r} types differ "
                        f"({mine.ctype} vs {theirs.ctype})"
                    )
        cols = []
        for index, mine in enumerate(self._columns):
            values = list(mine._values)
            for other in others:
                values.extend(other._columns[index]._values)
            cols.append(mine._derived(values))
        return Table(self._name, cols)


def _infer_type(values: Sequence[Any]) -> ColumnType:
    """Infer a column type from raw values (numbers -> NUMERIC, else CATEGORICAL).

    NumPy integer and floating scalars count as numbers; booleans,
    Python's and NumPy's, do not.
    """
    saw_value = False
    for v in values:
        if v is None:
            continue
        saw_value = True
        if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
            return ColumnType.CATEGORICAL
    return ColumnType.NUMERIC if saw_value else ColumnType.CATEGORICAL
