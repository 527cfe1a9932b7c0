"""Unit tests for fact-group pruning (Algorithm 3)."""

import numpy as np
import pytest

from repro.algorithms.base import SummarizerStatistics
from repro.algorithms.cost_model import PruningPlan
from repro.algorithms.pruned_greedy import OptimizedGreedySummarizer, PrunedGreedySummarizer
from repro.algorithms.pruning import FactGroupPruner
from repro.core.kernel import FactScopeIndex
from repro.core.model import Fact, Scope, SummarizationRelation
from repro.core.priors import GlobalAveragePrior, ZeroPrior
from repro.core.problem import SummarizationProblem
from repro.facts.generation import FactGenerator
from repro.facts.groups import FactGroup
from repro.relational.column import Column
from repro.relational.table import Table
from tests.algorithms.dict_pruner import dict_pruned_solve


class TestGrouping:
    def test_group_of_fact(self, example_evaluator):
        fact = Fact(scope=Scope({"region": "East", "season": "Winter"}), value=1.0, support=1)
        index = FactScopeIndex.build(example_evaluator.relation, [fact])
        pruner = FactGroupPruner(index, example_evaluator)
        assert pruner.fact_counts == {FactGroup(["region", "season"]): 1}

    def test_group_facts_partitions(self, example_facts, example_evaluator):
        relation = example_evaluator.relation
        for index in (
            example_facts.scope_index(relation),
            FactScopeIndex.build(relation, example_facts.facts),
        ):
            fact_counts = FactGroupPruner(index, example_evaluator).fact_counts
            assert sum(fact_counts.values()) == example_facts.count
            assert set(fact_counts) == {
                FactGroup([]),
                FactGroup(["region"]),
                FactGroup(["season"]),
                FactGroup(["region", "season"]),
            }
            for columns, ids in index.groups.items():
                assert all(example_facts.facts[i].scope.columns == columns for i in ids)

    def test_generator_groups_match_regrouping(self, example_relation):
        generated = FactGenerator(example_relation).generate(base_scope={"season": "Winter"})
        seeded = generated.scope_index(example_relation).groups
        rebuilt = FactScopeIndex.build(example_relation, generated.facts).groups
        assert list(seeded) == list(rebuilt) == [("season",), ("region", "season")]
        for columns in seeded:
            np.testing.assert_array_equal(seeded[columns], rebuilt[columns])


class TestComputeGains:
    def _pruner(self, example_facts, example_evaluator) -> FactGroupPruner:
        index = FactScopeIndex.build(example_evaluator.relation, example_facts.facts)
        return FactGroupPruner(index, example_evaluator)

    def test_trivial_plan_computes_all_gains(self, example_facts, example_evaluator):
        pruner = self._pruner(example_facts, example_evaluator)
        stats = SummarizerStatistics()
        outcome = pruner.compute_gains(
            example_evaluator.initial_state(), PruningPlan((), ()), stats
        )
        assert outcome.fact_ids.size == example_facts.count
        assert not outcome.pruned_groups
        assert stats.fact_evaluations == example_facts.count

    def test_best_fact_is_global_maximum(self, example_facts, example_evaluator):
        pruner = self._pruner(example_facts, example_evaluator)
        stats = SummarizerStatistics()
        state = example_evaluator.initial_state()
        outcome = pruner.compute_gains(state, PruningPlan((), ()), stats)
        best_id, best_gain = outcome.best_fact()
        expected = max(
            example_evaluator.incremental_gain(f, state) for f in example_facts.facts
        )
        assert best_gain == pytest.approx(expected)
        assert best_id is not None

    def test_pruning_never_hides_the_best_fact(self, example_facts, example_evaluator):
        pruner = self._pruner(example_facts, example_evaluator)
        state = example_evaluator.initial_state()
        # Source: the overall fact (empty group); targets: everything else.
        plan = PruningPlan(
            sources=(FactGroup([]),),
            targets=(FactGroup(["region", "season"]), FactGroup(["region"]), FactGroup(["season"])),
        )
        stats = SummarizerStatistics()
        outcome = pruner.compute_gains(state, plan, stats)
        _, best_gain = outcome.best_fact()
        expected = max(
            example_evaluator.incremental_gain(f, state) for f in example_facts.facts
        )
        assert best_gain == pytest.approx(expected)

    def test_pruned_groups_are_dominated(self, example_facts, example_evaluator):
        index = FactScopeIndex.build(example_evaluator.relation, example_facts.facts)
        pruner = FactGroupPruner(index, example_evaluator)
        state = example_evaluator.initial_state()
        plan = PruningPlan(
            sources=(FactGroup([]),),
            targets=(FactGroup(["region", "season"]), FactGroup(["region"]), FactGroup(["season"])),
        )
        stats = SummarizerStatistics()
        outcome = pruner.compute_gains(state, plan, stats)
        max_source_gain = max(
            example_evaluator.incremental_gain(example_facts.facts[i], state)
            for i in index.groups[()]
        )
        for group in outcome.pruned_groups:
            bound = example_evaluator.max_group_bound(list(group.dimensions), state)
            # A pruned group's bound must be dominated by the source
            # (directly or through a generalisation it specializes).
            assert bound <= max_source_gain + 1e-9 or any(
                group.is_specialization_of(t)
                and example_evaluator.max_group_bound(list(t.dimensions), state)
                < max_source_gain
                for t in plan.targets
            )

    def test_excluded_facts_are_skipped(self, example_facts, example_evaluator):
        pruner = self._pruner(example_facts, example_evaluator)
        stats = SummarizerStatistics()
        active = np.ones(example_facts.count, dtype=bool)
        active[0] = False
        outcome = pruner.compute_gains(
            example_evaluator.initial_state(), PruningPlan((), ()), stats, active
        )
        assert 0 not in outcome.fact_ids
        assert outcome.fact_ids.size == example_facts.count - 1
        assert stats.fact_evaluations == example_facts.count - 1

    def test_bound_evaluations_counted(self, example_facts, example_evaluator):
        pruner = self._pruner(example_facts, example_evaluator)
        plan = PruningPlan(
            sources=(FactGroup([]),),
            targets=(FactGroup(["region"]),),
        )
        stats = SummarizerStatistics()
        pruner.compute_gains(example_evaluator.initial_state(), plan, stats)
        assert stats.bound_evaluations == 1

    def test_gains_listed_sources_first_in_group_order(self, example_facts, example_evaluator):
        # Interleave the groups: the outcome still lists source facts
        # first, then survivors, each group by group.
        facts = list(reversed(example_facts.facts))
        index = FactScopeIndex.build(example_evaluator.relation, facts)
        pruner = FactGroupPruner(index, example_evaluator)
        plan = PruningPlan(sources=(FactGroup(["region"]),), targets=())
        outcome = pruner.compute_gains(
            example_evaluator.initial_state(), plan, SummarizerStatistics()
        )
        source_ids = list(index.groups[("region",)])
        survivor_ids = [
            i for columns, ids in index.groups.items() if columns != ("region",) for i in ids
        ]
        assert outcome.fact_ids.tolist() == source_ids + survivor_ids


# ----------------------------------------------------------------------
# Parity with the dict-based pruner on hand-built problems
# ----------------------------------------------------------------------
def _tied_relation(seed: int) -> SummarizationRelation:
    """Random rows plus a mirror image under renamed ``a`` values.

    Every fact restricting ``a`` has a twin over the mirrored rows with
    exactly the same gains, so the greedy path often meets exact ties.
    """
    rng = np.random.default_rng(seed)
    half = int(rng.integers(4, 20))
    dimensions = ["a", "b", "c"][: int(rng.integers(2, 4))]
    columns = []
    for dim in dimensions:
        values = [
            None if rng.random() < 0.05 else f"{dim}{v}" for v in rng.integers(0, 3, half)
        ]
        mirror = [v.upper() if dim == "a" and v is not None else v for v in values]
        columns.append(Column.categorical(dim, values + mirror))
    target = rng.integers(0, 4, half).astype(float)
    columns.append(Column.numeric("t", np.concatenate([target, target])))
    return SummarizationRelation(Table(f"tied_{seed}", columns), dimensions, "t")


def _interleaved_problem(seed: int) -> SummarizationProblem:
    """Generated facts shuffled across groups, some duplicated."""
    rng = np.random.default_rng(seed)
    relation = _tied_relation(seed)
    facts = FactGenerator(relation, max_extra_dimensions=2).generate().facts
    facts = [facts[i] for i in rng.permutation(len(facts))]
    for i in rng.choice(len(facts), size=int(rng.integers(0, 3)), replace=False):
        facts.insert(int(rng.integers(0, len(facts) + 1)), facts[int(i)])
    prior = ZeroPrior() if seed % 2 else GlobalAveragePrior()
    return SummarizationProblem(
        relation, facts, max_facts=int(rng.integers(2, 6)), prior=prior
    )


def _greedy_path_meets_tie(problem: SummarizationProblem) -> bool:
    """True when some greedy iteration has two facts sharing the best gain."""
    evaluator = problem.evaluator()
    state = evaluator.initial_state()
    index = problem.index()
    active = np.ones(index.num_facts, dtype=bool)
    for _ in range(problem.max_facts):
        gains = evaluator.batch_incremental_gains(index, state)
        gains[~active] = -1.0
        if np.count_nonzero(gains == gains.max()) > 1:
            return True
        best = int(np.argmax(gains))
        index.apply_fact(best, state)
        active[index.copies_of(best)] = False
    return False


def _assert_matches_dict_pruner(summarizer, problem):
    result = summarizer.summarize(problem)
    speech, stats = dict_pruned_solve(summarizer, problem)
    assert result.speech.facts == speech.facts
    produced = result.statistics
    assert produced.fact_evaluations == stats.fact_evaluations
    assert produced.bound_evaluations == stats.bound_evaluations
    assert produced.groups_pruned == stats.groups_pruned
    assert produced.speeches_considered == stats.speeches_considered


class TestDictPrunerParity:
    @pytest.mark.parametrize("summarizer", [PrunedGreedySummarizer(), OptimizedGreedySummarizer()])
    def test_interleaved_example_with_ties(self, summarizer, example_facts, example_relation):
        # Every group's facts are spread across the candidate list, and
        # the greedy path meets an exact tie for the best gain.
        facts = example_facts.facts[1::2] + example_facts.facts[::2]
        problem = SummarizationProblem(
            example_relation, facts, max_facts=4, prior=ZeroPrior()
        )
        assert _greedy_path_meets_tie(problem)
        _assert_matches_dict_pruner(summarizer, problem)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_interleaved_problems(self, seed):
        problem = _interleaved_problem(seed)
        for summarizer in (PrunedGreedySummarizer(), OptimizedGreedySummarizer()):
            _assert_matches_dict_pruner(summarizer, problem)

    def test_random_problems_exercise_ties(self):
        ties = sum(_greedy_path_meets_tie(_interleaved_problem(seed)) for seed in range(24))
        assert ties >= 12

    def test_duplicate_facts_are_retired_together(self, example_facts, example_relation):
        facts = example_facts.facts + example_facts.facts
        problem = SummarizationProblem(
            example_relation, facts, max_facts=4, prior=ZeroPrior()
        )
        for summarizer in (PrunedGreedySummarizer(), OptimizedGreedySummarizer()):
            result = summarizer.summarize(problem)
            assert len(set(result.speech.facts)) == result.speech.length
            _assert_matches_dict_pruner(summarizer, problem)
