"""Parity tests for the vectorized optimizer kernel.

The batch kernel must agree with the per-fact reference path
(:meth:`UtilityEvaluator.incremental_gain`) for every candidate and
every greedy state — the kernel is an execution strategy, not a model
change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernel import FactScopeIndex
from repro.core.model import SummarizationRelation
from repro.core.problem import SummarizationProblem
from repro.facts.generation import FactGenerator
from repro.relational.column import ColumnType
from repro.relational.table import Table


def random_relation(seed: int, num_rows: int = 120) -> SummarizationRelation:
    """A random relation with three categorical dimensions."""
    rng = np.random.default_rng(seed)
    rows = [
        (
            f"a{rng.integers(0, 4)}",
            f"b{rng.integers(0, 3)}",
            f"c{rng.integers(0, 5)}",
            float(rng.normal(50.0, 15.0)),
        )
        for _ in range(num_rows)
    ]
    table = Table.from_rows(
        f"random_{seed}",
        ["alpha", "beta", "gamma", "target"],
        [
            ColumnType.CATEGORICAL,
            ColumnType.CATEGORICAL,
            ColumnType.CATEGORICAL,
            ColumnType.NUMERIC,
        ],
        rows,
    )
    return SummarizationRelation(table, ["alpha", "beta", "gamma"], "target")


def random_problem(seed: int, max_facts: int = 3) -> SummarizationProblem:
    relation = random_relation(seed)
    facts = FactGenerator(relation, max_extra_dimensions=2).generate().facts
    return SummarizationProblem(
        relation=relation, candidate_facts=facts, max_facts=max_facts
    )


class TestFactScopeIndexStructure:
    def test_csr_rows_match_scope_indices(self, example_evaluator, example_facts):
        index = FactScopeIndex.build(example_evaluator.relation, example_facts.facts)
        for fact_id, fact in enumerate(example_facts.facts):
            expected = example_evaluator.scope_indices(fact.scope)
            np.testing.assert_array_equal(index.rows_of(fact_id), expected)

    def test_supports_match_fact_supports(self, example_evaluator, example_facts):
        index = FactScopeIndex.build(example_evaluator.relation, example_facts.facts)
        for fact_id, fact in enumerate(example_facts.facts):
            assert index.supports[fact_id] == fact.support

    def test_fact_errors_precomputed(self, example_evaluator, example_facts):
        index = FactScopeIndex.build(example_evaluator.relation, example_facts.facts)
        truth = example_evaluator.relation.target_values
        for fact_id, fact in enumerate(example_facts.facts):
            expected = np.abs(fact.value - truth[index.rows_of(fact_id)])
            np.testing.assert_allclose(index.errors_of(fact_id), expected)

    def test_total_scope_rows(self, example_evaluator, example_facts):
        index = FactScopeIndex.build(example_evaluator.relation, example_facts.facts)
        assert index.total_scope_rows == sum(f.support for f in example_facts.facts)

    def test_copies_of_finds_equal_facts_only(self, example_evaluator, example_facts):
        facts = list(example_facts.facts)
        facts.append(facts[1])
        index = FactScopeIndex.build(example_evaluator.relation, facts)
        # East and West share a value; only the true copy is equal.
        assert index.values[1] == index.values[3]
        assert index.copies_of(1) == [1, len(facts) - 1]
        assert index.copies_of(len(facts) - 1) == [1, len(facts) - 1]
        assert index.copies_of(0) == [0]


class TestBatchGainParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_batch_equals_per_fact_on_prior_state(self, seed):
        problem = random_problem(seed)
        evaluator = problem.evaluator()
        index = FactScopeIndex.build(evaluator.relation, problem.candidate_facts)
        state = evaluator.initial_state()
        batch = evaluator.batch_incremental_gains(index, state)
        per_fact = [evaluator.incremental_gain(f, state) for f in problem.candidate_facts]
        np.testing.assert_allclose(batch, per_fact, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_per_fact_along_greedy_path(self, seed):
        """Parity must hold at every intermediate greedy state, not just the prior."""
        problem = random_problem(seed, max_facts=4)
        evaluator = problem.evaluator()
        facts = list(problem.candidate_facts)
        index = FactScopeIndex.build(evaluator.relation, facts)
        state = evaluator.initial_state()
        for _ in range(problem.max_facts):
            batch = evaluator.batch_incremental_gains(index, state)
            per_fact = [evaluator.incremental_gain(f, state) for f in facts]
            np.testing.assert_allclose(batch, per_fact, rtol=1e-12, atol=1e-9)
            best = int(np.argmax(batch))
            index.apply_fact(best, state)

    def test_single_fact_utilities_parity(self, example_evaluator, example_facts):
        index = FactScopeIndex.build(example_evaluator.relation, example_facts.facts)
        batch = example_evaluator.batch_single_fact_utilities(index)
        per_fact = example_evaluator.single_fact_utilities(list(example_facts.facts))
        np.testing.assert_allclose(batch, per_fact, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_subset_gains_match_batch(self, seed):
        problem = random_problem(seed)
        evaluator = problem.evaluator()
        index = FactScopeIndex.build(evaluator.relation, problem.candidate_facts)
        state = evaluator.initial_state()
        full = evaluator.batch_incremental_gains(index, state)
        rng = np.random.default_rng(seed)
        mask = rng.random(index.num_facts) < 0.5
        subset = index.subset_gains(mask, state.error)
        np.testing.assert_allclose(subset[mask], full[mask], rtol=1e-12, atol=1e-9)
        assert np.all(subset[~mask] == 0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sampled_gains_match_per_fact_estimates(self, seed):
        problem = random_problem(seed)
        evaluator = problem.evaluator()
        index = FactScopeIndex.build(evaluator.relation, problem.candidate_facts)
        state = evaluator.initial_state()
        rng = np.random.default_rng(seed)
        sampled = rng.choice(problem.num_rows, size=problem.num_rows // 2, replace=True)
        row_mask = np.zeros(problem.num_rows, dtype=bool)
        row_mask[sampled] = True
        gains, counts = index.sampled_gains(state.error, row_mask)
        truth = evaluator.relation.target_values
        for fact_id, fact in enumerate(problem.candidate_facts):
            rows = index.rows_of(fact_id)
            in_sample = rows[row_mask[rows]]
            assert counts[fact_id] == in_sample.size
            fact_err = np.abs(fact.value - truth[in_sample])
            expected = float(np.maximum(state.error[in_sample] - fact_err, 0.0).sum())
            assert gains[fact_id] == pytest.approx(expected, rel=1e-12, abs=1e-9)


class TestApplyFactParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_apply_matches_evaluator_apply(self, seed):
        problem = random_problem(seed)
        evaluator = problem.evaluator()
        facts = list(problem.candidate_facts)
        index = FactScopeIndex.build(evaluator.relation, facts)
        state_kernel = evaluator.initial_state()
        state_reference = evaluator.initial_state()
        rng = np.random.default_rng(seed)
        for fact_id in rng.choice(len(facts), size=min(5, len(facts)), replace=False):
            gain_kernel = index.apply_fact(int(fact_id), state_kernel)
            gain_reference = evaluator.apply_fact(facts[int(fact_id)], state_reference)
            assert gain_kernel == pytest.approx(gain_reference, rel=1e-12, abs=1e-9)
            np.testing.assert_array_equal(state_kernel.expected, state_reference.expected)
            np.testing.assert_array_equal(state_kernel.error, state_reference.error)

    def test_empty_scope_fact_is_zero_gain(self, example_evaluator, example_facts):
        index = FactScopeIndex.build(example_evaluator.relation, example_facts.facts)
        state = example_evaluator.initial_state()
        gains = example_evaluator.batch_incremental_gains(index, state)
        assert gains.shape == (len(example_facts.facts),)
        assert np.all(gains >= 0.0)
