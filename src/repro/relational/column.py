"""Typed columns backing the in-memory tables.

A column stores a homogeneous sequence of values.  Dimension columns in
the paper hold categorical values (strings) and may contain NULLs (used
by fact tables, where an unrestricted dimension is represented as NULL).
Target columns hold numeric values.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.relational.errors import SchemaError, TypeMismatchError


class ColumnType(enum.Enum):
    """Supported column types.

    ``CATEGORICAL`` columns hold strings (or None for NULL), ``NUMERIC``
    columns hold floats (NaN represents NULL), and ``INTEGER`` columns
    hold integers (None is not allowed).
    """

    CATEGORICAL = "categorical"
    NUMERIC = "numeric"
    INTEGER = "integer"


_NULL_SENTINEL = None


def _is_null(value: Any) -> bool:
    """Return True when ``value`` represents a NULL."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


class Column:
    """An immutable, named, typed sequence of values.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    ctype:
        One of :class:`ColumnType`.
    values:
        The column contents.  Values are validated and normalised on
        construction (numeric values become ``float``, integer values
        ``int``, categorical values ``str`` or ``None``).
    """

    __slots__ = ("_name", "_ctype", "_values")

    def __init__(self, name: str, ctype: ColumnType, values: Iterable[Any]):
        if not name:
            raise SchemaError("column name must be a non-empty string")
        self._name = str(name)
        self._ctype = ctype
        self._values = self._normalise(list(values))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _normalise(self, raw: list[Any]) -> list[Any]:
        """Validate and coerce raw values according to the column type."""
        if self._ctype is ColumnType.CATEGORICAL:
            return [None if _is_null(v) else str(v) for v in raw]
        if self._ctype is ColumnType.NUMERIC:
            out: list[Any] = []
            for v in raw:
                if _is_null(v):
                    out.append(None)
                    continue
                try:
                    out.append(float(v))
                except (TypeError, ValueError) as exc:
                    raise TypeMismatchError(
                        f"column {self._name!r}: cannot interpret {v!r} as numeric"
                    ) from exc
            return out
        if self._ctype is ColumnType.INTEGER:
            out = []
            for v in raw:
                if _is_null(v):
                    raise TypeMismatchError(
                        f"column {self._name!r}: NULL not allowed in integer column"
                    )
                try:
                    out.append(int(v))
                except (TypeError, ValueError) as exc:
                    raise TypeMismatchError(
                        f"column {self._name!r}: cannot interpret {v!r} as integer"
                    ) from exc
            return out
        raise SchemaError(f"unknown column type {self._ctype!r}")

    def _derived(self, values: list[Any]) -> "Column":
        """A column of this name/type over values taken from this column.

        The values are already normalised, so validation is skipped:
        row slicing is on the pre-processing hot path.
        """
        column = Column.__new__(Column)
        column._name = self._name
        column._ctype = self._ctype
        column._values = values
        return column

    @classmethod
    def categorical(cls, name: str, values: Iterable[Any]) -> "Column":
        """Create a categorical (string) column."""
        return cls(name, ColumnType.CATEGORICAL, values)

    @classmethod
    def numeric(cls, name: str, values: Iterable[Any]) -> "Column":
        """Create a numeric (float) column."""
        return cls(name, ColumnType.NUMERIC, values)

    @classmethod
    def integer(cls, name: str, values: Iterable[Any]) -> "Column":
        """Create an integer column."""
        return cls(name, ColumnType.INTEGER, values)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The column name."""
        return self._name

    @property
    def ctype(self) -> ColumnType:
        """The column type."""
        return self._ctype

    @property
    def values(self) -> list[Any]:
        """A copy of the column contents."""
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __getitem__(self, index: int) -> Any:
        return self._values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self._name == other._name
            and self._ctype is other._ctype
            and self._values == other._values
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({self._name!r}, {self._ctype.value}, n={len(self._values)})"

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def renamed(self, new_name: str) -> "Column":
        """Return a copy of this column under a different name."""
        return Column(new_name, self._ctype, self._values)

    def take(self, indices: Sequence[int]) -> "Column":
        """Return a new column with the rows at ``indices`` (in order)."""
        vals = self._values
        return self._derived([vals[i] for i in indices])

    def mask(self, keep: Sequence[bool]) -> "Column":
        """Return a new column containing rows where ``keep`` is True."""
        if len(keep) != len(self._values):
            raise SchemaError(
                f"mask length {len(keep)} does not match column length {len(self._values)}"
            )
        return self._derived([v for v, k in zip(self._values, keep) if k])

    def with_values(self, values: Iterable[Any]) -> "Column":
        """Return a new column with the same name/type but new values."""
        return Column(self._name, self._ctype, values)

    # ------------------------------------------------------------------
    # Statistics and numeric access
    # ------------------------------------------------------------------
    def is_null(self, index: int) -> bool:
        """Return True when the value at ``index`` is NULL."""
        return self._values[index] is None

    def null_count(self) -> int:
        """Number of NULL entries."""
        return sum(1 for v in self._values if v is None)

    def distinct_values(self) -> list[Any]:
        """Distinct non-NULL values, in first-appearance order."""
        seen: dict[Any, None] = {}
        for v in self._values:
            if v is not None and v not in seen:
                seen[v] = None
        return list(seen)

    def distinct_count(self) -> int:
        """Number of distinct non-NULL values."""
        return len(set(v for v in self._values if v is not None))

    def to_numpy(self) -> np.ndarray:
        """Return numeric contents as a float numpy array (NULL -> NaN).

        Only valid for numeric and integer columns.
        """
        if self._ctype is ColumnType.CATEGORICAL:
            raise TypeMismatchError(
                f"column {self._name!r} is categorical; cannot convert to numpy floats"
            )
        return np.array(
            [float("nan") if v is None else float(v) for v in self._values],
            dtype=float,
        )

    def numeric_summary(self) -> dict[str, float]:
        """Return count / mean / min / max over non-NULL numeric values."""
        if self._ctype is ColumnType.CATEGORICAL:
            raise TypeMismatchError(
                f"column {self._name!r} is categorical; no numeric summary"
            )
        present = [float(v) for v in self._values if v is not None]
        if not present:
            return {"count": 0.0, "mean": float("nan"), "min": float("nan"), "max": float("nan")}
        return {
            "count": float(len(present)),
            "mean": float(sum(present) / len(present)),
            "min": float(min(present)),
            "max": float(max(present)),
        }
