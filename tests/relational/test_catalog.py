"""Unit tests for the table statistics and cost estimates of the cost oracle.

They are the group-at-a-time reference (:mod:`tests.algorithms.cost_oracle`)
over :func:`repro.relational.catalog.combination_estimate` and
:func:`repro.relational.planner.join_costs`.
"""

import pytest

from repro.relational.column import Column
from repro.relational.table import Table
from tests.algorithms.cost_oracle import CostEstimate, CostEstimator, TableStatistics


@pytest.fixture()
def table() -> Table:
    return Table(
        "flights",
        [
            Column.categorical("region", ["E", "E", "N", "S"]),
            Column.categorical("season", ["W", "S", "W", None]),
            Column.numeric("delay", [1.0, 2.0, 3.0, 4.0]),
        ],
    )


class TestTableStatistics:
    def test_from_table(self, table):
        stats = TableStatistics.from_table(table)
        assert stats.row_count == 4
        assert stats.distinct_count("region") == 3
        assert stats.distinct_count("season") == 2
        assert stats.null_counts["season"] == 1

    def test_combination_count_capped_by_rows(self, table):
        stats = TableStatistics.from_table(table)
        assert stats.combination_count(["region"]) == 3
        # 3 * 2 = 6 would exceed the row count, so the estimate is capped.
        assert stats.combination_count(["region", "season"]) == 4
        assert stats.combination_count([]) == 1

    def test_selectivity(self, table):
        stats = TableStatistics.from_table(table)
        assert stats.selectivity(["region"]) == pytest.approx(1 / 3)


class TestCostEstimator:
    def test_costs_scale_with_group_size(self, table):
        estimator = CostEstimator(TableStatistics.from_table(table))
        small = estimator.utility_cost(["region"])
        large = estimator.utility_cost(["region", "season"])
        assert float(large) >= float(small)

    def test_deviation_cheaper_than_utility(self, table):
        estimator = CostEstimator(TableStatistics.from_table(table))
        group = ["region"]
        assert float(estimator.deviation_cost(group)) < float(estimator.utility_cost(group))

    def test_fact_count(self, table):
        estimator = CostEstimator(TableStatistics.from_table(table))
        assert estimator.fact_count(["region"]) == 3
        assert estimator.fact_count([]) == 1

    def test_cost_estimate_addition(self, table):
        estimator = CostEstimator(TableStatistics.from_table(table))
        total = estimator.utility_cost(["region"]) + estimator.deviation_cost(["region"])
        assert float(total) == pytest.approx(
            float(estimator.utility_cost(["region"])) + float(estimator.deviation_cost(["region"]))
        )

    def test_data_row_count(self, table):
        estimator = CostEstimator(TableStatistics.from_table(table))
        assert estimator.data_row_count == 4

    def test_group_costs_follow_the_formulas(self):
        """C_U = n + M + 2n and C_D = n + M, with M the capped product of
        distinct counts; the estimates carry the same numbers."""
        statistics = TableStatistics(row_count=1033, distinct_counts={"a": 28, "b": 11, "c": 0})
        estimator = CostEstimator(statistics)
        for columns, facts in ((["a"], 28), (["a", "b"], 308), (["a", "b", "c"], 308), ([], 1)):
            utility, deviation = estimator.group_costs(columns)
            assert utility.hex() == float(1033 + facts + 2 * 1033).hex()
            assert deviation.hex() == float(1033 + facts).hex()
            assert float(estimator.utility_cost(columns)) == utility
            assert float(estimator.deviation_cost(columns)) == deviation
        capped = TableStatistics(row_count=50, distinct_counts={"a": 28, "b": 11})
        assert CostEstimator(capped).group_costs(["a", "b"]) == (200.0, 100.0)


class TestStatisticsEdgeCases:
    def test_from_empty_table(self):
        stats = TableStatistics.from_table(Table("t", [Column.categorical("a", [])]))
        assert stats.row_count == 0
        assert stats.distinct_counts == {"a": 0}
        assert stats.combination_count(["a"]) == 1

    def test_unknown_column_counts_as_one_value(self, table):
        stats = TableStatistics.from_table(table)
        assert stats.distinct_count("carrier") == 0
        assert stats.combination_count(["region", "carrier"]) == 3

    def test_null_counts_cover_every_column(self, table):
        stats = TableStatistics.from_table(table)
        assert stats.null_counts == {"region": 0, "season": 1, "delay": 0}

    def test_selectivity_of_empty_scope(self, table):
        assert TableStatistics.from_table(table).selectivity([]) == 1.0


class TestCostEstimates:
    def test_sum_is_combined(self):
        total = CostEstimate(2.0, "a") + CostEstimate(3.5, "b")
        assert total == CostEstimate(5.5, "combined")
        assert float(total) == 5.5

    def test_descriptions_name_the_group(self, table):
        estimator = CostEstimator(TableStatistics.from_table(table))
        assert "('region', 'season')" in estimator.utility_cost(["region", "season"]).description
        assert "('region',)" in estimator.deviation_cost(["region"]).description

    def test_fact_count_capped_by_rows(self, table):
        estimator = CostEstimator(TableStatistics.from_table(table))
        assert estimator.fact_count(["region", "season", "delay"]) == 4
