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
surviving groups) is a single batch pass.  The sources' pass reads
only the source groups' CSR ranges, found once per plan.  The
survivors' pass reads the whole CSR unmasked when no group was pruned:
the facts it then skips are few.  Either way each fact sums the same
entries in the same order as a masked pass, so the gains are the same
bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import SummarizerStatistics
from repro.algorithms.cost_model import PruningPlan
from repro.core.kernel import FactScopeIndex
from repro.core.utility import ExpectationState, UtilityEvaluator
from repro.facts.groups import FactGroup, GroupLattice


_NO_GAINS = np.empty(0)


@dataclass
class PruningOutcome:
    """Result of one pruned gain-computation pass.

    ``fact_ids`` lists every fact whose gain was actually computed
    (facts of pruned groups are absent): source facts first, then
    survivors, each in group order.  ``gains[k]`` is the gain of
    ``fact_ids[k]``; ``pruned_groups`` lists the discarded groups, target
    by target, each target's in index group order.
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
    lattice:
        The :class:`~repro.facts.groups.GroupLattice` of ``index.groups``,
        read and never changed, so a summarizer may share one between
        every problem over the same group set; built when not given.

    A plan is prepared once, when :meth:`compute_gains` first sees it:
    its source fact mask, the CSR ranges of its source groups, per
    target its lattice id and the bitset of groups it prunes, and the
    targets' stacked bound groups.  Each iteration then evaluates every
    target's bound in one pass and runs the two batch passes, the first
    over the source ranges only.  The group order and the prepared plans depend only on
    the fact structure and the relation's codes, so they live in the
    index's :attr:`~repro.core.kernel.FactScopeIndex.cache`, shared by
    the problems of every target of a predicate scope.
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
            # Fact ids group by group: the order outcomes list gains in.
            group_order = np.concatenate(ids_by_group)
            group_of_fact = np.empty(index.num_facts, dtype=np.intp)
            group_of_fact[group_order] = np.repeat(
                np.arange(len(ids_by_group)), [ids.size for ids in ids_by_group]
            )
            layout = index.cache[FactGroupPruner] = group_order, group_of_fact, {}
        self._group_order, self._group_of_fact, self._prepared = layout

    @property
    def group_sizes(self) -> list[int]:
        """Number of candidate facts per fact group, by lattice id."""
        return [ids.size for ids in self._index.groups.values()]

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
        sources, targets, source_ranges, stacked, starts = self._prepare(plan)
        index = self._index
        order = self._group_order
        if active is None:
            active = np.ones(index.num_facts, dtype=bool)

        # Line 9: utility gains for the pruning sources (one batch pass
        # over the source groups' CSR ranges).
        source_ids = order[(sources & active)[order]]
        source_gains = _NO_GAINS
        max_source_gain = float("-inf")
        if source_ids.size:
            source_gains = index.range_gains(source_ranges, state.error)[source_ids]
            stats.fact_evaluations += source_ids.size
            max_source_gain = float(source_gains.max())

        # Lines 11-22: prune dominated targets and their specializations,
        # listed in index group order (a set's order would follow the
        # groups' string hashes, which differ per process).
        groups = self._lattice.groups
        pruned_groups: list[FactGroup] = []
        remaining = (1 << len(groups)) - 1
        if plan.sources and max_source_gain > float("-inf") and targets:
            # Every target's bound from one bincount over the error
            # vector tiled once per target (see :meth:`_prepare`).
            sums = np.bincount(stacked, weights=np.tile(state.error, len(targets)))
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

        # Line 24: gains for the facts of all surviving groups (second batch).
        survivor_mask = ~sources & active
        if pruned_groups:
            alive = np.array([remaining >> g & 1 for g in range(len(groups))], dtype=bool)
            survivor_mask &= alive[self._group_of_fact]
        survivor_ids = order[survivor_mask[order]]
        survivor_gains = _NO_GAINS
        if survivor_ids.size:
            if pruned_groups:
                gains = index.subset_gains(survivor_mask, state.error)
            else:
                gains = index.batch_gains(state.error)
            survivor_gains = gains[survivor_ids]
            stats.fact_evaluations += survivor_ids.size

        return PruningOutcome(
            np.concatenate((source_ids, survivor_ids)),
            np.concatenate((source_gains, survivor_gains)),
            pruned_groups,
        )

    def _prepare(self, plan: PruningPlan) -> tuple:
        """``(source fact mask, targets, source ranges, stacked ids, starts)`` for ``plan``.

        Kept per plan.  Each target is ``(group id, bitset of the groups
        it prunes)``; a target outside the index has no facts and is
        never evaluated.  The source ranges are the source facts' CSR
        entries (:meth:`~repro.core.kernel.FactScopeIndex.entry_ranges`).
        Target ``k``'s bound groups the rows on the columns of its group
        that split them (:meth:`~repro.core.utility.UtilityEvaluator.split_columns`);
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
        sources = is_source[self._group_of_fact]
        prepared = self._prepared[plan] = (
            sources,
            targets,
            self._index.entry_ranges(sources),
            stacked,
            starts,
        )
        return prepared
