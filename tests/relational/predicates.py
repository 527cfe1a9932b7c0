"""Test helpers: equality predicates and a WHERE clause of them as one predicate.

Production selects scope rows on cached column codes; these row-level
predicates, run through :func:`repro.relational.operators.select`, are
the reference that code is checked against.
"""

from __future__ import annotations

import abc
from typing import Any, Mapping, Sequence

from repro.relational.errors import SchemaError
from repro.relational.expressions import Predicate
from repro.relational.table import Table


class ColumnPredicate(Predicate):
    """A predicate that names the columns it reads."""

    @abc.abstractmethod
    def referenced_columns(self) -> set[str]:
        """Names of all columns this predicate reads."""

    def _check_schema(self, table: Table) -> None:
        missing = self.referenced_columns() - set(table.column_names)
        if missing:
            raise SchemaError(
                f"predicate references unknown columns {sorted(missing)} "
                f"on table {table.name!r}"
            )


class TruePredicate(ColumnPredicate):
    """A predicate that accepts every row."""

    def referenced_columns(self) -> set[str]:
        return set()

    def evaluate(self, table: Table) -> list[bool]:
        return [True] * table.num_rows

    def __repr__(self) -> str:
        return "TRUE"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruePredicate)

    def __hash__(self) -> int:
        return hash("TruePredicate")


class EqualsPredicate(ColumnPredicate):
    """``column = value`` (NULL never matches)."""

    def __init__(self, column: str, value: Any):
        self.column = column
        self.value = value

    def referenced_columns(self) -> set[str]:
        return {self.column}

    def evaluate(self, table: Table) -> list[bool]:
        self._check_schema(table)
        col = table.column(self.column)
        target = self.value
        return [v is not None and v == target for v in col]

    def __repr__(self) -> str:
        return f"{self.column} = {self.value!r}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EqualsPredicate):
            return NotImplemented
        return self.column == other.column and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.column, self.value))


class AndPredicate(ColumnPredicate):
    """Conjunction of predicates."""

    def __init__(self, children: Sequence[ColumnPredicate]):
        self.children = list(children)

    def referenced_columns(self) -> set[str]:
        cols: set[str] = set()
        for child in self.children:
            cols |= child.referenced_columns()
        return cols

    def evaluate(self, table: Table) -> list[bool]:
        if not self.children:
            return [True] * table.num_rows
        result = self.children[0].evaluate(table)
        for child in self.children[1:]:
            mask = child.evaluate(table)
            result = [a and b for a, b in zip(result, mask)]
        return result

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(c) for c in self.children) + ")"


def conjunction_of_equalities(assignments: Mapping[str, Any]) -> ColumnPredicate:
    """Build ``col1 = v1 AND col2 = v2 AND ...`` from a mapping.

    An empty mapping yields :class:`TruePredicate` (no restriction),
    matching how an empty query scope selects the whole relation.
    """
    if not assignments:
        return TruePredicate()
    children = [EqualsPredicate(col, val) for col, val in sorted(assignments.items())]
    if len(children) == 1:
        return children[0]
    return AndPredicate(children)
