"""Cost estimation for the operations the pruning optimizer plans.

Section VI-C of the paper uses two cost estimates obtained from the
query-optimizer cost model:

* ``C_U(g)`` — cost of calculating utility for every fact in group
  ``g``; this requires a scope-match join between facts and data rows
  followed by aggregation.
* ``C_D(g)`` — cost of calculating per-group deviation bounds; this is
  a group-by over the data table without any join.

The estimator below mirrors a textbook cost model: joins cost
(left cardinality x matching right cardinality) row visits plus the
aggregation pass, group-bys cost one pass over the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.relational.catalog import TableStatistics


def join_costs(row_count: int, facts: int, tuple_cost: float = 1.0) -> tuple[float, float]:
    """``(C_U(g), C_D(g))`` for a fact group of ``facts`` facts over ``row_count`` rows.

    Every data row joins exactly one fact of the group (the fact whose
    scope values equal the row's values), so the utility join outputs
    ``row_count`` rows: C_U charges the scan of the data table, the
    probe work against the fact table and the aggregation pass.  The
    deviation bound query is a group-by without a join: C_D charges the
    scan and the groups.
    """
    join_output = row_count  # each row falls in exactly one scope of the group
    return tuple_cost * (row_count + facts + 2 * join_output), tuple_cost * (row_count + facts)


@dataclass(frozen=True)
class CostEstimate:
    """A cost estimate, expressed in abstract row-visit units."""

    rows_processed: float
    description: str = ""

    def __add__(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(self.rows_processed + other.rows_processed, "combined")

    def __float__(self) -> float:
        return float(self.rows_processed)


class CostEstimator:
    """Estimate the cost of the utility / deviation queries of Algorithm 3.

    Parameters
    ----------
    data_stats:
        Statistics of the relation to summarize.
    tuple_cost:
        Cost charged per row visited (scale factor only; relative costs
        drive plan choice).
    """

    def __init__(self, data_stats: TableStatistics, tuple_cost: float = 1.0):
        self._stats = data_stats
        self._tuple_cost = float(tuple_cost)

    @property
    def data_row_count(self) -> int:
        """Number of rows in the data relation."""
        return self._stats.row_count

    def fact_count(self, group_columns: Sequence[str]) -> int:
        """Estimated number of facts in a fact group.

        A fact group is identified by the set of dimension columns it
        restricts; the number of facts equals the number of distinct
        value combinations in those columns (paper, Section VI-C).
        """
        return self._stats.combination_count(group_columns)

    def group_costs(self, group_columns: Sequence[str]) -> tuple[float, float]:
        """``(C_U(g), C_D(g))`` from one fact-count estimate (see :func:`join_costs`)."""
        return join_costs(self._stats.row_count, self.fact_count(group_columns), self._tuple_cost)

    def utility_cost(self, group_columns: Sequence[str]) -> CostEstimate:
        """C_U(g): cost of the utility join + aggregation for group ``g``."""
        cost = self.group_costs(group_columns)[0]
        return CostEstimate(cost, f"utility join for group {tuple(group_columns)}")

    def deviation_cost(self, group_columns: Sequence[str]) -> CostEstimate:
        """C_D(g): cost of the per-group deviation bound query (no join)."""
        cost = self.group_costs(group_columns)[1]
        return CostEstimate(cost, f"deviation group-by for group {tuple(group_columns)}")
