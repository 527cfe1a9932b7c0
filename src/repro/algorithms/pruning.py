"""Fact-group pruning for greedy speech construction (Algorithm 3).

In every greedy iteration the fact with maximal utility gain must be
identified.  Computing the gain of every candidate fact requires the
expensive fact/data join; Algorithm 3 avoids part of that work by
first computing gains only for *source* groups and then discarding
*target* groups (plus their specializations) whose per-scope deviation
bound is dominated by the best source gain.  A discarded fact's gain is
strictly below the best source gain, so every fact of maximal gain
survives and the greedy guarantee is preserved.

Gain evaluation runs on the problem's
:class:`repro.core.kernel.FactScopeIndex`: facts are tracked by id and
the index supplies each group's ids.  Each greedy step makes one batch
pass over the whole CSR, and each phase (sources, then surviving
groups) reads the gains it consumes from that pass.  The pass also
sums the facts of pruned groups, which are few, and costs less than
the two restricted passes it replaces; a fact's gain sums the same
entries in the same order whatever else a pass covers, so it is the
same bits.  The statistics count the gains the phases consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import SummarizerStatistics
from repro.algorithms.cost_model import PruningPlan
from repro.core.kernel import FactScopeIndex
from repro.core.utility import ExpectationState, UtilityEvaluator
from repro.facts.groups import FactGroup, GroupLattice


@dataclass
class PruningOutcome:
    """Result of one pruned gain-computation pass.

    ``fact_ids`` lists every fact whose gain Algorithm 3 evaluates
    (facts of pruned groups are absent): source facts first, then
    survivors, each in group order.  ``gains[k]`` is the gain of
    ``fact_ids[k]``; ``pruned_groups`` lists the discarded groups, target
    by target, each target's in index group order.
    """

    fact_ids: np.ndarray
    gains: np.ndarray
    pruned_groups: list[FactGroup]

    def best_fact(self) -> tuple[int | None, float]:
        """Id and gain of the listed fact with maximal gain, ties to the lowest id.

        That is G-B's ``argmax`` rule.  ``(None, 0.0)`` when no fact is listed.
        """
        if not self.fact_ids.size:
            return None, 0.0
        best_gain = self.gains.max()
        return int(self.fact_ids[self.gains == best_gain].min()), float(best_gain)


class FactGroupPruner:
    """Executes Algorithm 3 for one greedy iteration.

    Parameters
    ----------
    index:
        The problem's scope index; its ``groups`` partition the fact ids
        into fact groups (the columns each fact's scope restricts).
    evaluator:
        Utility evaluator for the problem's relation.
    lattice:
        The :class:`~repro.facts.groups.GroupLattice` of ``index.groups``,
        read and never changed, so a summarizer may share one between
        every problem over the same group set; built when not given.

    A plan is prepared once, when :meth:`compute_gains` first sees it:
    its source and other fact ids in group order, per target its lattice
    id and the bitset of groups it prunes, and the targets' stacked
    bound groups.  Each iteration then makes one gain pass, evaluates
    every target's bound in one pass, and reads each phase's gains
    through the prepared ids.  The group order and the prepared plans
    depend only on the fact structure and the relation's codes, so they
    live in the index's :attr:`~repro.core.kernel.FactScopeIndex.cache`,
    shared by the problems of every target of a predicate scope.
    """

    def __init__(
        self,
        index: FactScopeIndex,
        evaluator: UtilityEvaluator,
        lattice: GroupLattice | None = None,
    ):
        self._index = index
        self._evaluator = evaluator
        if lattice is None:
            lattice = GroupLattice(FactGroup(columns) for columns in index.groups)
        self._lattice = lattice
        layout = index.cache.get(FactGroupPruner)
        if layout is None:
            ids_by_group = list(index.groups.values())
            # Fact ids group by group (the order outcomes list gains in),
            # and the lattice id of each.
            group_order = np.concatenate(ids_by_group)
            group_of_order = np.repeat(
                np.arange(len(ids_by_group)), [ids.size for ids in ids_by_group]
            )
            layout = index.cache[FactGroupPruner] = group_order, group_of_order, {}
        self._group_order, self._group_of_order, self._prepared = layout

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
        source_ids, other_ids, other_groups, targets, stacked, starts = self._prepare(plan)
        if active is None:
            active = np.ones(self._index.num_facts, dtype=bool)
        # One batch pass gives every fact's gain; each phase reads its own.
        gains = self._index.batch_gains(state.error)

        # Line 9: utility gains for the pruning sources.
        source_ids = source_ids[active[source_ids]]
        stats.fact_evaluations += source_ids.size
        max_source_gain = float(gains[source_ids].max()) if source_ids.size else float("-inf")

        # Lines 11-22: prune dominated targets and their specializations,
        # listed in index group order (a set's order would follow the
        # groups' string hashes, which differ per process).
        groups = self._lattice.groups
        pruned_groups: list[FactGroup] = []
        remaining = (1 << len(groups)) - 1
        if plan.sources and max_source_gain > float("-inf") and targets:
            # Every target's bound from one bincount over the error
            # vector tiled once per target (see :meth:`_prepare`).
            sums = np.bincount(stacked, weights=np.concatenate((state.error,) * len(targets)))
            bounds = np.maximum.reduceat(sums, starts).tolist()
            for (target, prunes), bound in zip(targets, bounds):
                if not remaining >> target & 1:
                    continue
                stats.bound_evaluations += 1
                if max_source_gain > bound:
                    pruned = remaining & prunes
                    remaining ^= pruned
                    while pruned:
                        low = pruned & -pruned
                        pruned ^= low
                        pruned_groups.append(groups[low.bit_length() - 1])
        stats.groups_pruned += len(pruned_groups)

        # Line 24: gains for the facts of all surviving groups.
        survives = active[other_ids]
        if pruned_groups:
            alive = np.array([remaining >> g & 1 for g in range(len(groups))], dtype=bool)
            survives &= alive[other_groups]
        survivor_ids = other_ids[survives]
        stats.fact_evaluations += survivor_ids.size

        fact_ids = np.concatenate((source_ids, survivor_ids))
        return PruningOutcome(fact_ids, gains[fact_ids], pruned_groups)

    def _prepare(self, plan: PruningPlan) -> tuple:
        """``(source ids, other ids, their groups, targets, stacked ids, starts)`` for ``plan``.

        Kept per plan.  The source ids are the source groups' fact ids
        and the other ids every other fact id, each in group order;
        ``their groups`` holds each other id's lattice id.  Each target
        is ``(group id, bitset of the groups it prunes)``; a target
        outside the index has no facts and is never evaluated.  Target
        ``k``'s bound groups the rows on the columns of its group that
        split them (:meth:`~repro.core.utility.UtilityEvaluator.split_columns`);
        the stacked ids and ``starts`` number those groups across all
        targets (:meth:`~repro.core.model.SummarizationRelation.stacked_group_ids`).
        A bincount of the error vector tiled once per target adds each
        group's errors in row order, as a bincount over one target's
        groups adds them, so each target's maximum has that bound's bits.
        """
        prepared = self._prepared.get(plan)
        if prepared is not None:
            return prepared
        lattice = self._lattice
        evaluator = self._evaluator
        is_source = np.zeros(lattice.size, dtype=bool)
        for source in plan.sources:
            gid = lattice.ids.get(source)
            if gid is not None:
                is_source[gid] = True
        targets = []
        combinations = []
        for target in plan.targets:
            gid = lattice.ids.get(target)
            if gid is not None:
                targets.append((gid, lattice.specializations[gid]))
                combinations.append(evaluator.split_columns(target.dimensions))
        stacked, starts = evaluator.relation.stacked_group_ids(combinations)
        in_source = is_source[self._group_of_order]
        other = ~in_source
        prepared = self._prepared[plan] = (
            self._group_order[in_source],
            self._group_order[other],
            self._group_of_order[other],
            targets,
            stacked,
            starts,
        )
        return prepared
