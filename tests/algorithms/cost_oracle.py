"""Test-only oracle: the Section VI-C cost model, one group at a time.

Production plan choice reads a problem's cost components as flat lists
by lattice id (:func:`repro.algorithms.cost_model.lattice_costs`).
This module is the group-at-a-time model those lists are checked
against: table statistics collected from a :class:`Table`
(:class:`TableStatistics`), C_U / C_D estimates from them
(:class:`CostEstimator`), and the pruning probabilities over
:class:`FactGroup` objects (:class:`PruningCostModel`).  The plan
oracle (:mod:`tests.algorithms.plan_oracle`) costs plans with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.algorithms.cost_model import checked_sigma
from repro.facts.groups import FactGroup
from repro.relational.catalog import combination_estimate
from repro.relational.planner import join_costs
from repro.relational.table import Table

_SQRT2 = math.sqrt(2.0)


def standard_normal_cdf(x: float) -> float:
    """Φ(x) for the standard normal distribution."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


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
        nulls = {c.name: sum(value is None for value in c) for c in table.columns}
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
    """Estimate the cost of the utility / deviation queries of Algorithm 3."""

    def __init__(self, data_stats: TableStatistics):
        self._stats = data_stats

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
        return join_costs(self._stats.row_count, self.fact_count(group_columns))

    def utility_cost(self, group_columns: Sequence[str]) -> CostEstimate:
        """C_U(g): cost of the utility join + aggregation for group ``g``."""
        cost = self.group_costs(group_columns)[0]
        return CostEstimate(cost, f"utility join for group {tuple(group_columns)}")

    def deviation_cost(self, group_columns: Sequence[str]) -> CostEstimate:
        """C_D(g): cost of the per-group deviation bound query (no join)."""
        cost = self.group_costs(group_columns)[1]
        return CostEstimate(cost, f"deviation group-by for group {tuple(group_columns)}")


class PruningCostModel:
    """The cost model's components for any fact group.

    Parameters
    ----------
    fact_counts:
        Number of candidate facts per fact group (M(g) in the paper).
    cost_estimator:
        Provides C_U / C_D estimates from relation statistics, and M(g)
        for a group missing from ``fact_counts``.
    sigma:
        Standard deviation of the per-fact utility distribution;
        finite and positive.

    M(g) is memoized per model instance.
    """

    def __init__(
        self,
        fact_counts: Mapping[FactGroup, int],
        cost_estimator: CostEstimator,
        sigma: float = 0.25,
    ):
        self.sigma = checked_sigma(sigma)
        self._fact_counts = dict(fact_counts)
        self._estimator = cost_estimator
        self._fact_count_memo: dict[FactGroup, int] = {}

    def fact_count(self, group: FactGroup) -> int:
        """M(g): number of facts in the group (≥ 1)."""
        count = self._fact_count_memo.get(group)
        if count is None:
            count = self._fact_counts.get(group)
            if count is None:
                count = self._estimator.fact_count(group.dimensions)
            count = self._fact_count_memo[group] = max(1, count)
        return count

    def group_costs(self, group: FactGroup) -> tuple[float, float]:
        """``(C_U(g), C_D(g))``: the utility join's and the bound query's cost."""
        return self._estimator.group_costs(group.dimensions)

    def utility_cost(self, group: FactGroup) -> float:
        """C_U(g): cost of computing utility gains for all facts of ``g``."""
        return self.group_costs(group)[0]

    def deviation_cost(self, group: FactGroup) -> float:
        """C_D(g): cost of computing the per-scope bounds of ``g``."""
        return self.group_costs(group)[1]

    def prune_probability(self, source: FactGroup, target: FactGroup) -> float:
        """Pr(P_{s→t}): probability the source's best gain dominates the target bound.

        Production's :func:`repro.algorithms.cost_model.keep_row` gives
        1 minus this for many targets.
        """
        z = (1.0 / self.fact_count(source) - 1.0 / self.fact_count(target)) / (self.sigma * _SQRT2)
        return standard_normal_cdf(z)
