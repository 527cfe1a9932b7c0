"""The combination-count estimate of the plan optimizer's cost model.

The paper's cost model (Section VI-C) consumes "query optimizer
statistics": the number of distinct value combinations in subsets of
dimension columns and table cardinalities.  :func:`combination_estimate`
derives the first from per-column distinct counts and the row count.
"""

from __future__ import annotations

from typing import Iterable


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
