"""In-memory relational substrate used by the speech summarizer.

The paper executes its algorithms as a series of SQL queries against
Postgres.  Pre-processing here works on cached column codes instead, so
this package keeps only what that needs: typed columns and immutable
tables, and the predicate interface with one ``select`` (the row-level
reference for subset selection).
"""

from repro.relational.column import Column, ColumnType
from repro.relational.table import Table
from repro.relational.expressions import Predicate
from repro.relational.operators import select

__all__ = [
    "Column",
    "ColumnType",
    "Table",
    "Predicate",
    "select",
]
