"""Test-only oracle: Algorithm 3 keyed by ``Fact`` objects.

This is the pruned-greedy loop as it stood before the pruner tracked
facts by id: gains live in a ``dict[Fact, float]`` filled source facts
first, the best fact is the maximum that comes first among the
problem's candidates (G-B's rule), already-selected facts sit in an
``excluded`` set, and a chosen fact is applied through
:meth:`UtilityEvaluator.apply_fact`.  The id-based production pruner
must select the same speech with the same counters under G-P's plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.algorithms.base import SummarizerStatistics
from repro.algorithms.cost_model import PruningPlan
from repro.algorithms.plan_optimizer import naive_plan
from repro.algorithms.pruned_greedy import PrunedGreedySummarizer
from repro.core.kernel import FactScopeIndex
from repro.core.model import Fact, Speech
from repro.core.problem import SummarizationProblem
from repro.core.utility import ExpectationState, UtilityEvaluator
from repro.facts.groups import FactGroup, GroupLattice
from tests.algorithms import plan_oracle
from tests.algorithms.cost_oracle import CostEstimator, PruningCostModel, TableStatistics


def masked_gains(index: FactScopeIndex, fact_mask: np.ndarray, error: np.ndarray) -> np.ndarray:
    """Gains of the facts ``fact_mask`` selects (others 0), from their entries alone.

    The pass the pruner made per phase before it read every phase's
    gains from one pass over all entries.
    """
    selected = fact_mask[index.fact_ids]
    deltas = error[index.row_indices[selected]] - index.fact_errors[selected]
    np.maximum(deltas, 0.0, out=deltas)
    return np.bincount(index.fact_ids[selected], weights=deltas, minlength=index.num_facts)


def max_split_bound(
    evaluator: UtilityEvaluator, columns: Sequence[str], state: ExpectationState | None = None
) -> float:
    """The largest summed deviation of one value combination of ``columns``.

    ``columns`` are those :meth:`UtilityEvaluator.split_columns` chose;
    the deviation is ``state``'s (the prior's when None), added in row
    order per group.
    """
    error = (state or evaluator.initial_state()).error
    inverse, _, offsets = evaluator.relation.group_layout(columns)
    if offsets.size == 1:
        return 0.0
    sums = np.bincount(inverse, weights=error, minlength=offsets.size - 1)
    return float(sums.max())


def max_group_bound(
    evaluator: UtilityEvaluator,
    group_columns: Sequence[str],
    state: ExpectationState | None = None,
) -> float:
    """The largest per-scope utility bound of a fact group (0.0 when empty)."""
    return max_split_bound(evaluator, evaluator.split_columns(group_columns), state)


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

    def best_fact(self, rank: Mapping[Fact, int]) -> tuple[Fact | None, float]:
        """The fact of maximal gain, ties to the lowest ``rank``."""
        best: Fact | None = None
        best_gain = float("-inf")
        for fact, gain in self.gains.items():
            if gain > best_gain or (gain == best_gain and rank[fact] < rank[best]):
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
            gains = masked_gains(self._index, source_mask, state.error)
            stats.fact_evaluations += int(source_mask.sum())
            for i in np.flatnonzero(source_mask):
                outcome.gains[self._facts[i]] = float(gains[i])
            max_source_gain = float(gains[source_mask].max())

        if plan.sources and max_source_gain > float("-inf"):
            for target in plan.targets:
                if target not in remaining:
                    continue
                bound = max_group_bound(self._evaluator, list(target.dimensions), state)
                stats.bound_evaluations += 1
                if max_source_gain > bound:
                    for group in self._by_group:
                        if group in remaining and group.is_specialization_of(target):
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
            gains = masked_gains(self._index, survivor_mask, state.error)
            stats.fact_evaluations += int(survivor_mask.sum())
            for i in np.flatnonzero(survivor_mask):
                fact = self._facts[i]
                if fact not in outcome.gains:
                    outcome.gains[fact] = float(gains[i])
        return outcome


def dict_pruned_solve(
    summarizer: PrunedGreedySummarizer, problem: SummarizationProblem, oracle_plans: bool = False
) -> tuple[Speech, SummarizerStatistics]:
    """G-P's greedy-with-pruning loop on the dict-based pruner, with ``summarizer``'s σ.

    With ``oracle_plans`` the naive plan, too, comes from the test
    oracle (:func:`plan_oracle.naive_plan`) instead of production's.
    """
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
    if oracle_plans:
        plan = plan_oracle.naive_plan(groups, fact_counts, cost_model)
    else:
        lattice = GroupLattice(groups)
        costs = plan_oracle.model_costs(cost_model, lattice, fact_counts)
        plan = naive_plan(lattice, costs, summarizer._sigma)
    rank: dict[Fact, int] = {}
    for position, fact in enumerate(problem.candidate_facts):
        rank.setdefault(fact, position)

    pruner = DictFactGroupPruner(by_group, evaluator)
    selected: list[Fact] = []
    excluded: set[Fact] = set()
    for _ in range(problem.max_facts):
        outcome = pruner.compute_gains(state, plan, stats, excluded=excluded)
        best_fact, best_gain = outcome.best_fact(rank)
        if best_fact is None:
            break
        if best_gain <= 0.0 and selected:
            break
        evaluator.apply_fact(best_fact, state)
        selected.append(best_fact)
        excluded.add(best_fact)
        stats.speeches_considered += 1
    return Speech(selected), stats
