"""The predicate interface of :func:`~repro.relational.operators.select`.

Predicates model the WHERE clause of a query scope in the paper's SQL
implementation: a conjunction of ``column = value`` equalities on
dimension columns (NULL never matches).  A predicate evaluates a whole
table at once (``evaluate``), returning a boolean mask.
"""

from __future__ import annotations

import abc

from repro.relational.table import Table


class Predicate(abc.ABC):
    """Base class for boolean expressions over table rows."""

    @abc.abstractmethod
    def evaluate(self, table: Table) -> list[bool]:
        """Evaluate the predicate against every row of ``table`` (a boolean mask)."""
