"""Greedy summarization with fact-group pruning ("G-P" and "G-O").

Both variants run the greedy loop of Algorithm 2 but replace the
compute-all-gains step with Algorithm 3 under a pruning plan: compute
gains for a pruning source, discard dominated target groups, then
compute gains for the survivors.  They differ only in how the plan is
chosen:

* ``PrunedGreedySummarizer`` ("G-P") uses the naive plan — all groups
  participate, in the order Algorithm 4 would consider them.  It is
  chosen once per predicate scope: the scope index that the scope's
  targets share keeps it.
* ``OptimizedGreedySummarizer`` ("G-O") asks the cost-based optimizer
  (Section VI-C/D) for the cheapest candidate plan.  Priced by the
  one-pass gain kernel, that is always the trivial no-pruning plan
  (:func:`~repro.algorithms.plan_optimizer.choose_plan`).

A plan without sources prunes nothing, so it runs Algorithm 2's loop
itself (:func:`~repro.algorithms.greedy.greedy_loop`), with no pruner,
lattice or plan costs: G-O as G-B does, a walked problem with its
target's batch (:func:`~repro.algorithms.greedy.solve`), and G-P over
the problem's own index (:func:`~repro.algorithms.greedy.solve_alone`).
Pruning drops only facts whose gain is strictly below the best source
gain, and ties go to the lowest fact id as in G-B, so every plan
selects G-B's facts.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Summarizer, SummarizerStatistics
from repro.algorithms.cost_model import PruningPlan, checked_sigma, lattice_costs
from repro.algorithms.greedy import closest_value_scores, solve, solve_alone
from repro.algorithms.plan_optimizer import choose_plan, naive_plan
from repro.algorithms.pruning import FactGroupPruner
from repro.core.kernel import FactScopeIndex
from repro.core.model import Fact, Speech
from repro.core.problem import SummarizationProblem
from repro.core.utility import ExpectationState, UtilityEvaluator
from repro.facts.groups import FactGroup, GroupLattice

#: Group sets whose lattices a summarizer keeps before it starts over.
_MAX_LATTICES = 1024


class _PrunedGreedyBase(Summarizer):
    """Shared greedy-with-pruning loop; subclasses pick the plan.

    The summarizer keeps one :class:`~repro.facts.groups.GroupLattice`
    per group set (the tuple of ``index.groups``' column combinations):
    the pruner and the plan of every problem over that set read it.
    Pickling drops them; each process builds its own.  ``sigma`` is the
    cost model's per-fact utility deviation, finite and positive.
    """

    def __init__(self, sigma: float = 0.25):
        self._sigma = checked_sigma(sigma)
        self._lattices: dict[tuple[tuple[str, ...], ...], GroupLattice] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_lattices"] = {}
        return state

    def _plan(self, problem: SummarizationProblem) -> PruningPlan:
        raise NotImplementedError

    def _lattice(self, index: FactScopeIndex) -> GroupLattice:
        """The lattice of ``index``'s groups, built on first sight of their set."""
        key = tuple(index.groups)
        lattice = self._lattices.get(key)
        if lattice is None:
            if len(self._lattices) >= _MAX_LATTICES:
                self._lattices.clear()
            lattice = self._lattices[key] = GroupLattice(FactGroup(columns) for columns in key)
        return lattice

    def _solve(self, problem: SummarizationProblem) -> tuple[Speech, SummarizerStatistics]:
        speech, stats, _ = self._solve_scored(problem)
        return speech, stats

    def _solve_scored(
        self, problem: SummarizationProblem
    ) -> tuple[Speech, SummarizerStatistics, tuple[float, float] | None]:
        plan = self._plan(problem)
        if not plan.sources:
            return self._greedy(problem)
        evaluator = problem.evaluator()
        speech, stats, state = self._pruned_loop(problem, evaluator, plan)
        scores = closest_value_scores(
            evaluator.expectation_model, evaluator.prior_deviation(), float(state.error.sum())
        )
        return speech, stats, scores

    #: Algorithm 2's loop, run under a plan without sources.
    _greedy = staticmethod(solve)

    def _pruned_loop(
        self, problem: SummarizationProblem, evaluator: UtilityEvaluator, plan: PruningPlan
    ) -> tuple[Speech, SummarizerStatistics, ExpectationState]:
        """Algorithm 2 with each step's gains from Algorithm 3 under ``plan``."""
        stats = SummarizerStatistics()
        state = evaluator.initial_state()
        index = problem.index()
        pruner = FactGroupPruner(index, evaluator, self._lattice(index))

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
        return Speech(selected), stats, state


class PrunedGreedySummarizer(_PrunedGreedyBase):
    """Greedy with the naive (fixed) pruning strategy — "G-P"."""

    name = "G-P"

    #: G-P solves every problem over its own index, a walked one too.
    _greedy = staticmethod(solve_alone)

    def _plan(self, problem: SummarizationProblem) -> PruningPlan:
        """The naive plan for ``problem``, chosen once per scope index.

        A plan is a pure function of the lattice, the fact count per
        group, the relation's row count and its distinct counts.  The
        targets of a predicate scope share all four, and their indexes
        share one :attr:`~repro.core.kernel.FactScopeIndex.cache`, so the
        plan is kept there, per σ: each target after the first reuses
        it, even when solved in a separate chunk.
        """
        index = problem.index()
        key = (PrunedGreedySummarizer, self._sigma)
        plan = index.cache.get(key)
        if plan is None:
            lattice = self._lattice(index)
            relation = problem.relation
            sizes = [ids.size for ids in index.groups.values()]
            distinct = {dim: relation.distinct_count(dim) for dim in relation.dimensions}
            costs = lattice_costs(lattice, sizes, relation.num_rows, distinct)
            plan = index.cache[key] = naive_plan(lattice, costs, self._sigma)
        return plan


class OptimizedGreedySummarizer(_PrunedGreedyBase):
    """Greedy with the cost-optimized pruning strategy — "G-O".

    Algorithm 4's choice is the trivial plan whatever the problem
    (:func:`~repro.algorithms.plan_optimizer.choose_plan`), so G-O runs
    G-B's loop and builds no lattice.
    """

    name = "G-O"

    def _plan(self, problem: SummarizationProblem) -> PruningPlan:
        return choose_plan()
