"""Test-only oracle: Algorithm 3 keyed by ``Fact`` objects.

This is the pruned-greedy loop as it stood before the pruner tracked
facts by id: gains live in a ``dict[Fact, float]`` filled source facts
first, the best fact is the first maximum in that dict's insertion
order, already-selected facts sit in an ``excluded`` set, and a chosen
fact is applied through :meth:`UtilityEvaluator.apply_fact`.  The
id-based production pruner must select the same speech with the same
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.algorithms.base import SummarizerStatistics
from repro.algorithms.cost_model import PruningCostModel, PruningPlan
from repro.algorithms.plan_optimizer import PruningPlanOptimizer
from repro.algorithms.pruned_greedy import _PrunedGreedyBase
from repro.core.kernel import FactScopeIndex
from repro.core.model import Fact, Speech
from repro.core.problem import SummarizationProblem
from repro.core.utility import ExpectationState, UtilityEvaluator
from repro.facts.groups import FactGroup
from repro.relational.catalog import TableStatistics
from repro.relational.planner import CostEstimator


def group_facts(facts: Sequence[Fact]) -> dict[FactGroup, list[Fact]]:
    """Partition candidate facts into fact groups, by first appearance."""
    by_group: dict[FactGroup, list[Fact]] = {}
    for fact in facts:
        by_group.setdefault(FactGroup(fact.scope.columns), []).append(fact)
    return by_group


@dataclass
class DictPruningOutcome:
    gains: dict[Fact, float] = field(default_factory=dict)
    pruned_groups: list[FactGroup] = field(default_factory=list)

    def best_fact(self) -> tuple[Fact | None, float]:
        best: Fact | None = None
        best_gain = float("-inf")
        for fact, gain in self.gains.items():
            if gain > best_gain:
                best, best_gain = fact, gain
        if best is None:
            return None, 0.0
        return best, best_gain


class DictFactGroupPruner:
    """Algorithm 3 over a group-flattened fact list, gains keyed by fact."""

    def __init__(self, by_group: Mapping[FactGroup, Sequence[Fact]], evaluator: UtilityEvaluator):
        self._by_group = {group: list(facts) for group, facts in by_group.items()}
        self._evaluator = evaluator
        self._facts: list[Fact] = []
        self._ids_by_group: dict[FactGroup, np.ndarray] = {}
        for group, facts in self._by_group.items():
            start = len(self._facts)
            self._facts.extend(facts)
            self._ids_by_group[group] = np.arange(start, len(self._facts))
        self._index = FactScopeIndex.build(evaluator.relation, self._facts)

    def compute_gains(
        self,
        state: ExpectationState,
        plan: PruningPlan,
        stats: SummarizerStatistics,
        excluded: set[Fact] | None = None,
    ) -> DictPruningOutcome:
        excluded = excluded or set()
        outcome = DictPruningOutcome()
        remaining = set(self._by_group)

        active = np.ones(self._index.num_facts, dtype=bool)
        if excluded:
            for i, fact in enumerate(self._facts):
                if fact in excluded:
                    active[i] = False

        source_mask = np.zeros(self._index.num_facts, dtype=bool)
        for source in plan.sources:
            ids = self._ids_by_group.get(source)
            if ids is not None:
                source_mask[ids] = True
        source_mask &= active
        max_source_gain = float("-inf")
        if source_mask.any():
            gains = self._index.subset_gains(source_mask, state.error)
            stats.fact_evaluations += int(source_mask.sum())
            for i in np.flatnonzero(source_mask):
                outcome.gains[self._facts[i]] = float(gains[i])
            max_source_gain = float(gains[source_mask].max())

        if plan.sources and max_source_gain > float("-inf"):
            for target in plan.targets:
                if target not in remaining:
                    continue
                bound = self._evaluator.max_group_bound(list(target.dimensions), state)
                stats.bound_evaluations += 1
                if max_source_gain > bound:
                    for group in list(remaining):
                        if group.is_specialization_of(target):
                            remaining.discard(group)
                            outcome.pruned_groups.append(group)
                            stats.groups_pruned += 1

        source_set = set(plan.sources)
        survivor_mask = np.zeros(self._index.num_facts, dtype=bool)
        for group in self._by_group:
            if group in remaining and group not in source_set:
                survivor_mask[self._ids_by_group[group]] = True
        survivor_mask &= active & ~source_mask
        if survivor_mask.any():
            gains = self._index.subset_gains(survivor_mask, state.error)
            stats.fact_evaluations += int(survivor_mask.sum())
            for i in np.flatnonzero(survivor_mask):
                fact = self._facts[i]
                if fact not in outcome.gains:
                    outcome.gains[fact] = float(gains[i])
        return outcome


def dict_pruned_solve(
    summarizer: _PrunedGreedyBase, problem: SummarizationProblem
) -> tuple[Speech, SummarizerStatistics]:
    """``summarizer``'s greedy-with-pruning loop on the dict-based pruner."""
    evaluator = problem.evaluator()
    stats = SummarizerStatistics()
    state = evaluator.initial_state()

    by_group = group_facts(problem.candidate_facts)
    fact_counts = {group: len(facts) for group, facts in by_group.items()}
    groups = list(by_group)
    cost_model = PruningCostModel(
        fact_counts,
        CostEstimator(TableStatistics.from_table(problem.relation.table)),
        sigma=summarizer._sigma,
    )
    plan = summarizer._choose_plan(PruningPlanOptimizer(cost_model), groups, fact_counts)

    pruner = DictFactGroupPruner(by_group, evaluator)
    selected: list[Fact] = []
    excluded: set[Fact] = set()
    for _ in range(problem.max_facts):
        outcome = pruner.compute_gains(state, plan, stats, excluded=excluded)
        best_fact, best_gain = outcome.best_fact()
        if best_fact is None:
            break
        if best_gain <= 0.0 and selected:
            break
        evaluator.apply_fact(best_fact, state)
        selected.append(best_fact)
        excluded.add(best_fact)
        stats.speeches_considered += 1
    return Speech(selected), stats
