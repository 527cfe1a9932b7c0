"""Fact-group pruning for greedy speech construction (Algorithm 3).

In every greedy iteration the fact with maximal utility gain must be
identified.  Computing the gain of every candidate fact requires the
expensive fact/data join; Algorithm 3 avoids part of that work by
first computing gains only for *source* groups and then discarding
*target* groups (plus their specializations) whose per-scope deviation
bound is dominated by the best source gain.  The globally best fact is
never discarded, so the greedy guarantee is preserved.

Gain evaluation runs on the problem's
:class:`repro.core.kernel.FactScopeIndex`: facts are tracked by id, the
index supplies each group's ids, and each phase (sources, then
surviving groups) is a single masked batch pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import SummarizerStatistics
from repro.algorithms.cost_model import PruningPlan
from repro.core.kernel import FactScopeIndex
from repro.core.utility import ExpectationState, UtilityEvaluator
from repro.facts.groups import FactGroup


@dataclass
class PruningOutcome:
    """Result of one pruned gain-computation pass.

    ``fact_ids`` lists every fact whose gain was actually computed
    (facts of pruned groups are absent): source facts first, then
    survivors, each in group order.  ``gains[k]`` is the gain of
    ``fact_ids[k]``; ``pruned_groups`` lists the discarded groups.
    """

    fact_ids: np.ndarray
    gains: np.ndarray
    pruned_groups: list[FactGroup]

    def best_fact(self) -> tuple[int | None, float]:
        """Id and gain of the first computed fact with maximal gain.

        ``(None, 0.0)`` when no gain was computed.
        """
        if not self.fact_ids.size:
            return None, 0.0
        best = int(np.argmax(self.gains))
        return int(self.fact_ids[best]), float(self.gains[best])


class FactGroupPruner:
    """Executes Algorithm 3 for one greedy iteration.

    Parameters
    ----------
    index:
        The problem's scope index; its ``groups`` partition the fact ids
        into fact groups (the columns each fact's scope restricts).
    evaluator:
        Utility evaluator for the problem's relation.
    """

    def __init__(self, index: FactScopeIndex, evaluator: UtilityEvaluator):
        self._index = index
        self._evaluator = evaluator
        self._ids_by_group = {FactGroup(columns): ids for columns, ids in index.groups.items()}
        # Fact ids group by group: the order outcomes list gains in.
        self._group_order = np.concatenate(list(self._ids_by_group.values()))

    @property
    def fact_counts(self) -> dict[FactGroup, int]:
        """Number of candidate facts per fact group, in group order."""
        return {group: int(ids.size) for group, ids in self._ids_by_group.items()}

    def compute_gains(
        self,
        state: ExpectationState,
        plan: PruningPlan,
        stats: SummarizerStatistics,
        active: np.ndarray | None = None,
    ) -> PruningOutcome:
        """Compute utility gains for all facts that survive pruning.

        Facts whose ``active`` entry is False (already part of the
        speech) are skipped.  The facts of every source group are always
        evaluated; target groups whose bound is dominated by the best
        source gain are discarded together with their specializations
        (Alg. 3, Line 19).
        """
        num_facts = self._index.num_facts
        if active is None:
            active = np.ones(num_facts, dtype=bool)
        pruned_groups: list[FactGroup] = []
        remaining = set(self._ids_by_group)
        gains = np.zeros(num_facts)

        # Line 9: utility gains for the pruning sources (one batch pass).
        source_mask = np.zeros(num_facts, dtype=bool)
        for source in plan.sources:
            ids = self._ids_by_group.get(source)
            if ids is not None:
                source_mask[ids] = True
        source_mask &= active
        max_source_gain = float("-inf")
        if source_mask.any():
            source_gains = self._index.subset_gains(source_mask, state.error)
            stats.fact_evaluations += int(source_mask.sum())
            gains[source_mask] = source_gains[source_mask]
            max_source_gain = float(source_gains[source_mask].max())

        # Lines 11-22: prune dominated targets and their specializations.
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
                            pruned_groups.append(group)
                            stats.groups_pruned += 1

        # Line 24: gains for the facts of all surviving groups (second batch).
        source_set = set(plan.sources)
        survivor_mask = np.zeros(num_facts, dtype=bool)
        for group, ids in self._ids_by_group.items():
            if group in remaining and group not in source_set:
                survivor_mask[ids] = True
        survivor_mask &= active & ~source_mask
        if survivor_mask.any():
            survivor_gains = self._index.subset_gains(survivor_mask, state.error)
            stats.fact_evaluations += int(survivor_mask.sum())
            gains[survivor_mask] = survivor_gains[survivor_mask]

        order = self._group_order
        fact_ids = np.concatenate((order[source_mask[order]], order[survivor_mask[order]]))
        return PruningOutcome(fact_ids, gains[fact_ids], pruned_groups)
