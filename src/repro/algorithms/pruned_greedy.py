"""Greedy summarization with fact-group pruning ("G-P" and "G-O").

Both variants run the greedy loop of Algorithm 2 but replace the
compute-all-gains step with Algorithm 3: compute gains for a pruning
source, discard dominated target groups, then compute gains for the
survivors.  They differ only in how the pruning plan is chosen:

* ``PrunedGreedySummarizer`` ("G-P") uses the naive plan — all groups
  participate, in the order Algorithm 4 would consider them.
* ``OptimizedGreedySummarizer`` ("G-O") asks the cost-based optimizer
  (Section VI-C/D) for the cheapest candidate plan, which may be the
  trivial no-pruning plan when bounds are unlikely to pay off.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Summarizer, SummarizerStatistics
from repro.algorithms.cost_model import PruningCostModel, PruningPlan
from repro.algorithms.plan_optimizer import PruningPlanOptimizer
from repro.algorithms.pruning import FactGroupPruner
from repro.core.model import Fact, Speech
from repro.core.problem import SummarizationProblem
from repro.relational.catalog import TableStatistics
from repro.relational.planner import CostEstimator


class _PrunedGreedyBase(Summarizer):
    """Shared greedy-with-pruning loop; subclasses pick the plan."""

    def __init__(self, sigma: float = 0.25):
        self._sigma = sigma

    def _choose_plan(
        self,
        optimizer: PruningPlanOptimizer,
        groups,
        fact_counts,
    ) -> PruningPlan:
        raise NotImplementedError

    def _solve(self, problem: SummarizationProblem) -> tuple[Speech, SummarizerStatistics]:
        evaluator = problem.evaluator()
        stats = SummarizerStatistics()
        state = evaluator.initial_state()

        index = problem.index()
        pruner = FactGroupPruner(index, evaluator)
        fact_counts = pruner.fact_counts
        groups = list(fact_counts)

        statistics = TableStatistics.from_table(problem.relation.table)
        cost_model = PruningCostModel(
            fact_counts,
            CostEstimator(statistics),
            sigma=self._sigma,
        )
        optimizer = PruningPlanOptimizer(cost_model)
        plan = self._choose_plan(optimizer, groups, fact_counts)

        selected: list[Fact] = []
        active = np.ones(index.num_facts, dtype=bool)

        for _ in range(problem.max_facts):
            outcome = pruner.compute_gains(state, plan, stats, active)
            best, best_gain = outcome.best_fact()
            if best is None:
                break
            if best_gain <= 0.0 and selected:
                break
            index.apply_fact(best, state)
            selected.append(index.facts[best])
            active[index.copies_of(best)] = False
            stats.speeches_considered += 1

        return Speech(selected), stats


class PrunedGreedySummarizer(_PrunedGreedyBase):
    """Greedy with the naive (fixed) pruning strategy — "G-P"."""

    name = "G-P"

    def _choose_plan(self, optimizer, groups, fact_counts) -> PruningPlan:
        return optimizer.naive_plan(groups, fact_counts)


class OptimizedGreedySummarizer(_PrunedGreedyBase):
    """Greedy with the cost-optimized pruning strategy — "G-O"."""

    name = "G-O"

    def _choose_plan(self, optimizer, groups, fact_counts) -> PruningPlan:
        return optimizer.choose_plan(groups, fact_counts)
