"""Table statistics for the plan optimizer's cost model.

The paper's cost model (Section VI-C) consumes "query optimizer
statistics": the number of distinct value combinations in subsets of
dimension columns and table cardinalities.  :class:`TableStatistics`
collects those statistics from an in-memory table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.relational.table import Table


def combination_estimate(distinct_counts: Iterable[int], row_count: int) -> int:
    """Estimated number of value combinations of columns with ``distinct_counts``.

    The standard independence assumption: the product of the per-column
    distinct counts (each at least 1), capped by the row count (at
    least 1).  No columns give exactly one combination.
    """
    estimate = 1
    for distinct in distinct_counts:
        estimate *= max(1, distinct)
    return min(estimate, max(1, row_count))


@dataclass
class TableStatistics:
    """Statistics collected for one table.

    Attributes
    ----------
    row_count:
        Number of rows.
    distinct_counts:
        Per-column count of distinct non-NULL values.
    null_counts:
        Per-column count of NULL values.
    """

    row_count: int
    distinct_counts: dict[str, int] = field(default_factory=dict)
    null_counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_table(cls, table: Table) -> "TableStatistics":
        """Collect statistics from ``table``."""
        distinct = {c.name: c.distinct_count() for c in table.columns}
        nulls = {c.name: c.null_count() for c in table.columns}
        return cls(row_count=table.num_rows, distinct_counts=distinct, null_counts=nulls)

    def distinct_count(self, column: str) -> int:
        """Distinct count for a single column (0 when unknown)."""
        return self.distinct_counts.get(column, 0)

    def combination_count(self, columns: Sequence[str]) -> int:
        """Estimated number of distinct value combinations over ``columns``.

        See :func:`combination_estimate`; the empty column set has
        exactly one combination (the unrestricted scope).
        """
        return combination_estimate(map(self.distinct_count, columns), self.row_count)

    def selectivity(self, columns: Sequence[str]) -> float:
        """Estimated fraction of rows matching one value combination."""
        combos = self.combination_count(columns)
        return 1.0 / combos if combos else 1.0

