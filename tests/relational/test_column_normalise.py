"""``Column`` normalises cells exactly as the per-cell rule does.

Exact ``str`` cells of categorical columns and non-NaN exact ``float``
cells of numeric columns skip the NULL check; every other cell goes
through it.  ``reference`` is the per-cell rule, each cell checked on
its own: the column must give the same values, of the same types, and
reject the same cells.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
import pytest

from repro.relational.column import Column, ColumnType
from repro.relational.errors import TypeMismatchError


class Label(str):
    """A ``str`` subclass: normalised to a plain ``str``."""


def is_null(value: Any) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def reference(ctype: ColumnType, value: Any) -> Any:
    """One cell's normal form, or the exception type it raises."""
    if ctype is ColumnType.CATEGORICAL:
        return None if is_null(value) else str(value)
    if is_null(value):
        return None if ctype is ColumnType.NUMERIC else TypeMismatchError
    convert = float if ctype is ColumnType.NUMERIC else int
    try:
        result = convert(value)
    except (TypeError, ValueError, OverflowError):
        return TypeMismatchError
    if ctype is ColumnType.INTEGER and result != value and not isinstance(value, str):
        return TypeMismatchError
    return result


CELLS = [
    "East",
    "",
    "2.5",
    "7",
    Label("West"),
    Label("3"),
    True,
    False,
    0,
    7,
    -3,
    2**53 + 1,
    1.5,
    2.0,
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    math.nan,
    None,
    np.float64(2.5),
    np.float64(4.0),
    np.float64("nan"),
    np.int64(9),
    "abc",
    object(),
    [1],
]


def same(got: Any, expected: Any) -> bool:
    """Equal value and type; NaN equals NaN, and ``-0.0`` keeps its sign."""
    if type(got) is not type(expected):
        return False
    if isinstance(got, float):
        return repr(got) == repr(expected)
    return got == expected


@pytest.mark.parametrize("ctype", list(ColumnType))
@pytest.mark.parametrize("cell", CELLS, ids=repr)
def test_each_cell_follows_the_per_cell_rule(ctype, cell):
    expected = reference(ctype, cell)
    if expected is TypeMismatchError:
        with pytest.raises(TypeMismatchError, match="'c'"):
            Column("c", ctype, [cell])
        return
    (got,) = Column("c", ctype, [cell]).values
    assert same(got, expected), (got, expected)


@pytest.mark.parametrize("ctype", list(ColumnType))
def test_a_mixed_column_follows_the_per_cell_rule(ctype):
    cells = [cell for cell in CELLS if reference(ctype, cell) is not TypeMismatchError]
    got = Column("c", ctype, cells).values
    expected = [reference(ctype, cell) for cell in cells]
    assert len(got) == len(expected)
    assert all(same(g, e) for g, e in zip(got, expected)), (got, expected)


def test_exact_cells_are_kept_as_they_are():
    label, number = "East", 1.5
    assert Column.categorical("c", [label]).values[0] is label
    assert Column.numeric("c", [number]).values[0] is number
