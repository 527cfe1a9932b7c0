"""Property-based tests for the utility model.

Theorem 1 of the paper states that speech utility is submodular (and it
is also monotone and non-negative under the closest-relevant-value
model).  These properties underpin both the greedy guarantee and the
exact algorithm's pruning, so they are verified here on randomly
generated relations and fact sets.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.model import Fact, Scope, SummarizationRelation
from repro.core.priors import ConstantPrior
from repro.core.utility import UtilityEvaluator
from repro.relational.column import Column
from repro.relational.table import Table
from tests.algorithms.per_fact_greedy import incremental_gain

_DIM1 = ["a", "b", "c"]
_DIM2 = ["x", "y"]


@st.composite
def relation_and_facts(draw):
    """A random relation over two small dimensions plus random facts."""
    num_rows = draw(st.integers(min_value=2, max_value=14))
    dim1 = draw(st.lists(st.sampled_from(_DIM1), min_size=num_rows, max_size=num_rows))
    dim2 = draw(st.lists(st.sampled_from(_DIM2), min_size=num_rows, max_size=num_rows))
    values = draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=num_rows,
            max_size=num_rows,
        )
    )
    table = Table(
        "random",
        [
            Column.categorical("d1", dim1),
            Column.categorical("d2", dim2),
            Column.numeric("v", values),
        ],
    )
    relation = SummarizationRelation(table, ["d1", "d2"], "v")

    fact_count = draw(st.integers(min_value=1, max_value=6))
    facts = []
    for _ in range(fact_count):
        assignments = {}
        if draw(st.booleans()):
            assignments["d1"] = draw(st.sampled_from(_DIM1))
        if draw(st.booleans()):
            assignments["d2"] = draw(st.sampled_from(_DIM2))
        value = draw(st.floats(min_value=-50, max_value=50, allow_nan=False))
        facts.append(Fact(scope=Scope(assignments), value=value, support=1))
    prior_value = draw(st.floats(min_value=-50, max_value=50, allow_nan=False))
    return relation, facts, prior_value


@settings(max_examples=80, deadline=None)
@given(data=relation_and_facts())
def test_utility_is_nonnegative_and_bounded(data):
    relation, facts, prior_value = data
    evaluator = UtilityEvaluator(relation, prior=ConstantPrior(prior_value))
    utility = evaluator.utility(facts)
    assert utility >= -1e-9
    assert utility <= evaluator.prior_deviation() + 1e-9


@settings(max_examples=80, deadline=None)
@given(data=relation_and_facts())
def test_utility_is_monotone(data):
    relation, facts, prior_value = data
    evaluator = UtilityEvaluator(relation, prior=ConstantPrior(prior_value))
    for cut in range(len(facts)):
        smaller = facts[:cut]
        larger = facts[: cut + 1]
        assert evaluator.utility(larger) >= evaluator.utility(smaller) - 1e-9


@settings(max_examples=80, deadline=None)
@given(data=relation_and_facts())
def test_utility_is_submodular(data):
    """Adding a fact helps a subset at least as much as a superset (Theorem 1)."""
    relation, facts, prior_value = data
    if len(facts) < 2:
        return
    evaluator = UtilityEvaluator(relation, prior=ConstantPrior(prior_value))
    new_fact = facts[-1]
    rest = facts[:-1]
    for cut in range(len(rest) + 1):
        smaller = rest[:cut]
        larger = rest
        gain_small = evaluator.utility(list(smaller) + [new_fact]) - evaluator.utility(smaller)
        gain_large = evaluator.utility(list(larger) + [new_fact]) - evaluator.utility(larger)
        assert gain_small >= gain_large - 1e-6


@settings(max_examples=80, deadline=None)
@given(data=relation_and_facts())
def test_incremental_gains_match_full_recomputation(data):
    relation, facts, prior_value = data
    evaluator = UtilityEvaluator(relation, prior=ConstantPrior(prior_value))
    state = evaluator.initial_state()
    applied = []
    for fact in facts:
        predicted_gain = incremental_gain(evaluator, fact, state)
        realised_gain = evaluator.apply_fact(fact, state)
        assert abs(predicted_gain - realised_gain) < 1e-6
        applied.append(fact)
        assert abs(float(state.error.sum()) - evaluator.deviation(applied)) < 1e-6


@settings(max_examples=80, deadline=None)
@given(data=relation_and_facts())
def test_single_fact_utility_upper_bounds_incremental_gain(data):
    """Lemma 2: single-fact utility bounds the gain of adding the fact later."""
    relation, facts, prior_value = data
    evaluator = UtilityEvaluator(relation, prior=ConstantPrior(prior_value))
    state = evaluator.initial_state()
    for fact in facts[:-1]:
        evaluator.apply_fact(fact, state)
    last = facts[-1]
    single = incremental_gain(evaluator, last, evaluator.initial_state())
    later_gain = incremental_gain(evaluator, last, state)
    assert later_gain <= single + 1e-6
