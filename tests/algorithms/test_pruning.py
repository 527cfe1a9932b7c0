"""Unit tests for fact-group pruning (Algorithm 3)."""

import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.base import SummarizerStatistics
from repro.algorithms.cost_model import PruningPlan
from repro.algorithms.pruned_greedy import PrunedGreedySummarizer
from repro.algorithms.pruning import FactGroupPruner
from repro.core.kernel import FactScopeIndex
from repro.core.model import Fact, Scope, SummarizationRelation
from repro.core.priors import GlobalAveragePrior, ZeroPrior
from repro.core.problem import SummarizationProblem
from repro.core.utility import UtilityEvaluator
from repro.datasets import load_dataset
from repro.facts.generation import FactGenerator
from repro.facts.groups import FactGroup
from repro.relational.column import Column
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.problem_generator import ProblemGenerator
from tests.algorithms.dict_pruner import dict_pruned_solve, masked_gains, max_group_bound
from tests.algorithms.per_fact_greedy import incremental_gain

# One pruning pass in which the target ``a`` (dominated by the overall
# fact) takes four groups with it; prints the pruned groups in order.
_PRUNED_GROUPS_SCRIPT = """
import numpy as np
from repro.algorithms.base import SummarizerStatistics
from repro.algorithms.cost_model import PruningPlan
from repro.algorithms.pruning import FactGroupPruner
from repro.core.model import SummarizationRelation
from repro.core.priors import ZeroPrior
from repro.core.utility import UtilityEvaluator
from repro.facts.generation import FactGenerator
from repro.facts.groups import FactGroup
from repro.relational.column import Column
from repro.relational.table import Table

rng = np.random.default_rng(7)
dims = ["a", "b", "c", "d"]
columns = [Column.categorical(d, [f"{d}{v}" for v in rng.integers(0, 3, 60)]) for d in dims]
columns.append(Column.numeric("t", 100.0 + rng.normal(0.0, 1.0, 60)))
relation = SummarizationRelation(Table("hash_seed", columns), dims, "t")
evaluator = UtilityEvaluator(relation, prior=ZeroPrior())
index = FactGenerator(relation, max_extra_dimensions=2).generate().scope_index(relation)
plan = PruningPlan(sources=(FactGroup([]),), targets=(FactGroup(["a"]),))
outcome = FactGroupPruner(index, evaluator).compute_gains(
    evaluator.initial_state(), plan, SummarizerStatistics()
)
print([group.dimensions for group in outcome.pruned_groups])
"""


class TestGrouping:
    def test_group_of_fact(self, example_evaluator):
        fact = Fact(scope=Scope({"region": "East", "season": "Winter"}), value=1.0, support=1)
        index = FactScopeIndex.build(example_evaluator.relation, [fact])
        pruner = FactGroupPruner(index, example_evaluator)
        assert pruner._lattice.groups == (FactGroup(["region", "season"]),)
        assert [ids.size for ids in index.groups.values()] == [1]

    def test_group_facts_partitions(self, example_facts, example_evaluator):
        relation = example_evaluator.relation
        for index in (
            example_facts.scope_index(relation),
            FactScopeIndex.build(relation, example_facts.facts),
        ):
            pruner = FactGroupPruner(index, example_evaluator)
            sizes = [ids.size for ids in index.groups.values()]
            fact_counts = dict(zip(pruner._lattice.groups, sizes))
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
            incremental_gain(example_evaluator, f, state) for f in example_facts.facts
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
            incremental_gain(example_evaluator, f, state) for f in example_facts.facts
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
            incremental_gain(example_evaluator, example_facts.facts[i], state)
            for i in index.groups[()]
        )
        for group in outcome.pruned_groups:
            bound = max_group_bound(example_evaluator, list(group.dimensions), state)
            # A pruned group's bound must be dominated by the source
            # (directly or through a generalisation it specializes).
            assert bound <= max_source_gain + 1e-9 or any(
                group.is_specialization_of(t)
                and max_group_bound(example_evaluator, list(t.dimensions), state)
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

    def test_pruned_groups_follow_index_order_under_any_hash_seed(self):
        """``FactGroup`` hashes follow ``PYTHONHASHSEED``; the pruned
        groups must not, so two processes list them alike."""
        src = Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
            completed = subprocess.run(
                [sys.executable, "-c", _PRUNED_GROUPS_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(completed.stdout.strip())
        expected = repr([("a",), ("a", "b"), ("a", "c"), ("a", "d")])
        assert outputs == [expected, expected]

    def test_each_new_plan_is_prepared_again(self, example_facts, example_evaluator):
        """The pruner keeps every plan it prepared; handed another plan,
        it computes what a fresh pruner on a fresh index computes for
        that plan (pruners on one index share its prepared plans)."""
        relation = example_evaluator.relation
        index = FactScopeIndex.build(relation, example_facts.facts)
        plans = [
            PruningPlan((FactGroup([]),), (FactGroup(["region"]), FactGroup(["season"]))),
            PruningPlan((FactGroup(["region"]),), (FactGroup(["season"]),)),
            PruningPlan((), ()),
        ]
        reused = FactGroupPruner(index, example_evaluator)
        state = example_evaluator.initial_state()
        outcomes = []
        for plan in plans + plans[::-1]:
            stats, fresh_stats = SummarizerStatistics(), SummarizerStatistics()
            got = reused.compute_gains(state, plan, stats)
            fresh_index = FactScopeIndex.build(relation, example_facts.facts)
            fresh = FactGroupPruner(fresh_index, example_evaluator)
            want = fresh.compute_gains(state, plan, fresh_stats)
            assert got.fact_ids.tolist() == want.fact_ids.tolist()
            assert got.gains.tobytes() == want.gains.tobytes()
            assert got.pruned_groups == want.pruned_groups
            assert stats == fresh_stats
            outcomes.append(got.fact_ids.tolist())
        assert outcomes[0] != outcomes[1]

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


class TestTargetBounds:
    """The bound Algorithm 3 compares with the best source gain.

    A target's bound is the largest summed deviation of one value
    combination of its splitting columns
    (:meth:`~repro.core.utility.UtilityEvaluator.split_columns`), grouped
    by :meth:`~repro.core.model.SummarizationRelation.group_layout`.  It
    must cover the gain of every fact of the target and of every group
    that specializes it, or pruning could hide the best fact.
    """

    @staticmethod
    def _cell_sums(evaluator, columns, state=None):
        error = (state or evaluator.initial_state()).error
        inverse, _, offsets = evaluator.relation.group_layout(evaluator.split_columns(columns))
        return inverse, np.bincount(inverse, weights=error, minlength=offsets.size - 1)

    def test_region_cells_of_the_running_example(self, example_evaluator, example_relation):
        inverse, sums = self._cell_sums(example_evaluator, ["region"])
        # Per-region deviation sums: East 45, South 55, West 45, North 60.
        assert sorted(sums.tolist()) == pytest.approx([45.0, 45.0, 55.0, 60.0])
        north = example_relation.scope_mask(Scope({"region": "North"}))
        assert sums[inverse[north][0]] == pytest.approx(60.0)
        assert max_group_bound(example_evaluator, ["region"]) == pytest.approx(60.0)

    def test_empty_group_bound_is_the_prior_deviation(self, example_evaluator):
        assert max_group_bound(example_evaluator, []) == pytest.approx(205.0)
        assert example_evaluator.prior_deviation() == pytest.approx(205.0)

    def test_each_scope_is_one_cell_that_covers_its_fact(self, example_evaluator, example_facts):
        evaluator = example_evaluator
        state = evaluator.initial_state()
        evaluator.apply_fact(example_facts.facts[0], state)
        for fact in example_facts.facts:
            inverse, sums = self._cell_sums(evaluator, list(fact.scope.columns), state)
            cells = np.unique(inverse[evaluator.relation.scope_mask(fact.scope)])
            assert cells.size == 1
            assert incremental_gain(evaluator, fact, state) <= sums[cells[0]] + 1e-9

    def test_a_target_bound_covers_its_specializations(self, example_evaluator, example_facts):
        state = example_evaluator.initial_state()
        for target in (FactGroup([]), FactGroup(["region"]), FactGroup(["season"])):
            bound = max_group_bound(example_evaluator, list(target.dimensions), state)
            covered = [
                fact
                for fact in example_facts.facts
                if FactGroup(fact.scope.columns).is_specialization_of(target)
            ]
            assert covered
            for fact in covered:
                assert incremental_gain(example_evaluator, fact, state) <= bound + 1e-9

    def test_bound_shrinks_after_applying_a_fact(self, example_evaluator, example_relation):
        before = max_group_bound(example_evaluator, ["season"])
        state = example_evaluator.initial_state()
        example_evaluator.apply_fact(example_relation.make_fact({"season": "Winter"}), state)
        assert max_group_bound(example_evaluator, ["season"], state) <= before
        inverse, sums = self._cell_sums(example_evaluator, ["season"], state)
        winter = example_relation.scope_mask(Scope({"season": "Winter"}))
        assert sums[inverse[winter][0]] == pytest.approx(0.0)

    def test_constant_column_splits_nothing(self):
        table = Table(
            "constant",
            [
                Column.categorical("a", ["x", "y", "x", "y"]),
                Column.categorical("b", ["z"] * 4),
                Column.numeric("t", [1.0, 2.0, 3.0, 4.0]),
            ],
        )
        relation = SummarizationRelation(table, ["a", "b"], "t")
        evaluator = UtilityEvaluator(relation, prior=ZeroPrior())
        assert evaluator.split_columns(["a", "b"]) == ["a"]
        assert evaluator.split_columns(["b"]) == []
        assert max_group_bound(evaluator, ["b"]) == max_group_bound(evaluator, [])

    def test_stacked_bounds_have_each_targets_bits(self, example_evaluator, example_facts):
        """The pruner bounds every target in one bincount over stacked
        group ids; each maximum must be the bits of that target alone."""
        state = example_evaluator.initial_state()
        example_evaluator.apply_fact(example_facts.facts[3], state)
        targets = [[], ["region"], ["season"], ["region", "season"]]
        combinations = [example_evaluator.split_columns(t) for t in targets]
        stacked, starts = example_evaluator.relation.stacked_group_ids(combinations)
        sums = np.bincount(stacked, weights=np.concatenate((state.error,) * len(targets)))
        bounds = np.maximum.reduceat(sums, starts).tolist()
        expected = [max_group_bound(example_evaluator, t, state) for t in targets]
        assert [b.hex() for b in bounds] == [b.hex() for b in expected]


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
        gains = index.batch_gains(state.error)
        gains[~active] = -1.0
        if np.count_nonzero(gains == gains.max()) > 1:
            return True
        best = int(np.argmax(gains))
        index.apply_fact(best, state)
        active[index.copies_of(best)] = False
    return False


def _assert_matches_dict_pruner(summarizer, problem, oracle_plans=False):
    result = summarizer.summarize(problem)
    speech, stats = dict_pruned_solve(summarizer, problem, oracle_plans)
    assert result.speech.facts == speech.facts
    produced = result.statistics
    assert produced.fact_evaluations == stats.fact_evaluations
    assert produced.bound_evaluations == stats.bound_evaluations
    assert produced.groups_pruned == stats.groups_pruned
    assert produced.speeches_considered == stats.speeches_considered


class TestDictPrunerParity:
    """G-P against the dict-based pruner.  G-O runs no pruner: it runs
    G-B's loop (``test_greedy_family_parity.py``)."""

    def test_interleaved_example_with_ties(self, example_facts, example_relation):
        # Every group's facts are spread across the candidate list, and
        # the greedy path meets an exact tie for the best gain.
        facts = example_facts.facts[1::2] + example_facts.facts[::2]
        problem = SummarizationProblem(
            example_relation, facts, max_facts=4, prior=ZeroPrior()
        )
        assert _greedy_path_meets_tie(problem)
        _assert_matches_dict_pruner(PrunedGreedySummarizer(), problem)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_interleaved_problems(self, seed):
        _assert_matches_dict_pruner(PrunedGreedySummarizer(), _interleaved_problem(seed))

    def test_generated_query_problems(self):
        """Every seventh flights query's problem: a subset relation that
        inherits the table's codes, with the query as base scope.  The
        oracle costs plans from ``TableStatistics.from_table``; the
        summarizers count distinct values on the relation's codes."""
        dataset = load_dataset("flights", num_rows=300)
        config = SummarizationConfig.create(
            table=dataset.spec.key,
            dimensions=dataset.spec.dimensions,
            targets=dataset.spec.targets,
            max_query_length=2,
        )
        generator = ProblemGenerator(config, dataset.table)
        queries = islice(generator.enumerate_queries(), 0, None, 7)
        problems = [p for p in map(generator.build_problem, queries) if p is not None]
        assert len(problems) > 100
        summarizer = PrunedGreedySummarizer()
        for problem in problems:
            _assert_matches_dict_pruner(summarizer, problem)

    def test_generated_query_problems_with_three_extra_dimensions(self):
        """Every seventh flights query's problem with facts restricting up
        to three columns beyond the query's: groups of arity 3 come out
        of the batched grouping pass, and the oracle picks the plan too
        (``plan_oracle``), so the whole pruned path is checked."""
        dataset = load_dataset("flights", num_rows=300)
        config = SummarizationConfig.create(
            table=dataset.spec.key,
            dimensions=dataset.spec.dimensions,
            targets=dataset.spec.targets,
            max_query_length=2,
            max_fact_dimensions=3,
        )
        generator = ProblemGenerator(config, dataset.table)
        queries = islice(generator.enumerate_queries(), 0, None, 7)
        problems = [p for p in map(generator.build_problem, queries) if p is not None]
        assert len(problems) > 100
        # Groups restrict the query's columns plus up to three more.
        widest = max(
            max(map(len, problem.index().groups)) - min(map(len, problem.index().groups))
            for problem in problems
        )
        assert widest == 3
        summarizer = PrunedGreedySummarizer()
        for problem in problems:
            _assert_matches_dict_pruner(summarizer, problem, oracle_plans=True)

    def test_random_problems_exercise_ties(self):
        ties = sum(_greedy_path_meets_tie(_interleaved_problem(seed)) for seed in range(24))
        assert ties >= 12

    def test_duplicate_facts_are_retired_together(self, example_facts, example_relation):
        facts = list(example_facts.facts) * 2
        problem = SummarizationProblem(
            example_relation, facts, max_facts=4, prior=ZeroPrior()
        )
        summarizer = PrunedGreedySummarizer()
        result = summarizer.summarize(problem)
        assert len(set(result.speech.facts)) == result.speech.length
        _assert_matches_dict_pruner(summarizer, problem)


class TestSurvivorPass:
    """The survivors' pass, unmasked when nothing was pruned, keeps the bits.

    Each fact's gain sums its own CSR entries in CSR order, so any pass
    that covers the fact, masked or not, must give the same float.
    """

    @staticmethod
    def _problem():
        rng = np.random.default_rng(11)
        dims = ["a", "b", "c", "d"]
        columns = [
            Column.categorical(d, [f"{d}{v}" for v in rng.integers(0, 4, 300)]) for d in dims
        ]
        columns.append(Column.numeric("t", list(100.0 + rng.normal(0.0, 5.0, 300))))
        relation = SummarizationRelation(Table("survivors", columns), dims, "t")
        generated = FactGenerator(relation, max_extra_dimensions=2).generate()
        index = generated.scope_index(relation)
        return SummarizationProblem(
            relation, generated.facts, 3, prior=ZeroPrior(), scope_index=index
        )

    @pytest.mark.parametrize(
        "plan, prunes",
        [
            (PruningPlan((), ()), False),
            # A bound never falls below a gain it bounds.
            (PruningPlan((FactGroup(["a"]),), (FactGroup([]),)), False),
            (PruningPlan((FactGroup([]),), (FactGroup(["a"]), FactGroup(["b"]))), True),
            (PruningPlan((FactGroup(["a"]),), (FactGroup(["b", "c"]),)), True),
        ],
    )
    def test_gains_equal_the_masked_pass(self, plan, prunes):
        problem = self._problem()
        index = problem.index()
        evaluator = problem.evaluator()
        pruner = FactGroupPruner(index, evaluator)
        state = evaluator.initial_state()
        active = np.ones(index.num_facts, dtype=bool)
        for step in range(3):
            outcome = pruner.compute_gains(state, plan, SummarizerStatistics(), active)
            if step == 0:
                assert bool(outcome.pruned_groups) is prunes
            computed = np.zeros(index.num_facts, dtype=bool)
            computed[outcome.fact_ids] = True
            masked = masked_gains(index, computed, state.error)[outcome.fact_ids]
            assert outcome.gains.tobytes() == masked.tobytes()
            best, _ = outcome.best_fact()
            index.apply_fact(best, state)
            active[index.copies_of(best)] = False
