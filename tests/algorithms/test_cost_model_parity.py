"""Plan choice on integer group ids is bit-equal to the ``FactGroup`` oracle.

The optimizer runs Algorithm 4 on a :class:`GroupLattice` (bitset
specialization tests) and the flat :class:`LatticeCosts` of its groups,
and costs each source prefix's candidates incrementally.
``tests/algorithms/plan_oracle.py`` keeps the original formulation:
targets picked from sets of groups, every candidate costed from
scratch and the cheapest chosen.  On random group lattices, including ones where many
groups tie on their fact count, both must list the same candidates with
bit-equal costs and choose the same plan.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cost_model import lattice_costs
from repro.algorithms.plan_optimizer import choose_plan, naive_plan
from repro.facts.groups import FactGroup, GroupLattice, enumerate_fact_groups
from tests.algorithms.cost_oracle import CostEstimator, PruningCostModel, TableStatistics
from tests.algorithms.plan_candidates import candidate_plans
from tests.algorithms import plan_oracle

DIMENSIONS = ("a", "b", "c", "d", "e")
ALL_GROUPS = enumerate_fact_groups(DIMENSIONS, max_arity=3, include_empty=True)
PREFIXES = st.sampled_from([None, 1, 2, 3, 4])


class CountingEstimator(CostEstimator):
    """Counts the estimator's M(g) fallbacks per group."""

    def __init__(self, statistics: TableStatistics):
        super().__init__(statistics)
        self.fact_count_calls: dict[tuple[str, ...], int] = {}

    def fact_count(self, group_columns):
        key = tuple(group_columns)
        self.fact_count_calls[key] = self.fact_count_calls.get(key, 0) + 1
        return super().fact_count(group_columns)


@st.composite
def problems(draw, counts=st.integers(min_value=0, max_value=60)):
    """Random groups, fact counts (some missing) and table statistics."""
    groups = draw(st.lists(st.sampled_from(ALL_GROUPS), min_size=1, max_size=14, unique=True))
    counted = draw(st.lists(st.sampled_from(groups), unique=True, max_size=len(groups)))
    fact_counts = {group: draw(counts) for group in counted}
    statistics = TableStatistics(
        row_count=draw(st.integers(min_value=0, max_value=5000)),
        distinct_counts={
            dim: draw(st.integers(min_value=0, max_value=40)) for dim in DIMENSIONS
        },
    )
    sigma = draw(st.sampled_from([0.05, 0.25, 1.0, 3.0]))
    return groups, fact_counts, statistics, sigma


@st.composite
def tied_lattices(draw):
    """Whole lattices (every group up to some arity over a few dimensions)
    whose fact counts come from a tiny set, so prefixes, targets and
    costs tie often."""
    dims = DIMENSIONS[: draw(st.integers(min_value=2, max_value=5))]
    groups = enumerate_fact_groups(
        dims, max_arity=draw(st.integers(min_value=1, max_value=3)), include_empty=True
    )
    if draw(st.booleans()):
        groups = draw(st.permutations(groups))
    counts = st.sampled_from([1, 2, 4])
    fact_counts = {group: draw(counts) for group in groups}
    distinct = draw(st.integers(min_value=1, max_value=6))
    statistics = TableStatistics(
        row_count=draw(st.sampled_from([0, 50, 1000])),
        distinct_counts=dict.fromkeys(dims, distinct),
    )
    sigma = draw(st.sampled_from([0.05, 0.25, 1.0]))
    return list(groups), fact_counts, statistics, sigma


def _bits(cost: float) -> str:
    return float(cost).hex()


def _assert_matches_oracle(problem, max_source_prefix):
    groups, fact_counts, statistics, sigma = problem
    model = PruningCostModel(fact_counts, CostEstimator(statistics), sigma=sigma)
    reference = PruningCostModel(fact_counts, CostEstimator(statistics), sigma=sigma)

    lattice = GroupLattice(groups)
    costs = plan_oracle.model_costs(model, lattice, fact_counts)
    costed = candidate_plans(lattice, costs, sigma, max_source_prefix)
    expected = plan_oracle.generate_candidate_plans(
        groups, fact_counts, reference, max_source_prefix
    )
    assert [plan for plan, _ in costed] == expected
    for plan, cost in costed:
        assert _bits(cost) == _bits(plan_oracle.plan_cost(reference, plan, groups))

    assert choose_plan() == plan_oracle.choose_plan(
        groups, fact_counts, reference, max_source_prefix
    )
    naive = naive_plan(lattice, costs, sigma)
    assert naive == plan_oracle.naive_plan(groups, fact_counts, reference)


@settings(max_examples=120, deadline=None)
@given(problem=problems(), max_source_prefix=PREFIXES)
def test_lattice_optimizer_matches_the_group_oracle(problem, max_source_prefix):
    _assert_matches_oracle(problem, max_source_prefix)


@settings(max_examples=120, deadline=None)
@given(problem=tied_lattices(), max_source_prefix=PREFIXES)
def test_tied_lattices_match_the_group_oracle(problem, max_source_prefix):
    _assert_matches_oracle(problem, max_source_prefix)


def test_survival_factors_multiply_one_at_a_time():
    """Sources of several prefixes: each target's survival, which its
    heuristic H reads as Pr(P_t) = 1 − survival, takes the sources'
    factors one by one in source order, as the oracle multiplies them,
    so this lattice's candidates and costs stay bit-equal."""
    counts = {
        (): 16, ("a",): 27, ("b",): 60, ("c",): 48,
        ("a", "b"): 51, ("a", "c"): 26, ("b", "c"): 56, ("a", "b", "c"): 18,
    }
    fact_counts = {FactGroup(dims): count for dims, count in counts.items()}
    statistics = TableStatistics(row_count=1033, distinct_counts={"a": 28, "b": 11, "c": 26})
    _assert_matches_oracle((list(fact_counts), fact_counts, statistics, 1.0), None)


@settings(max_examples=120, deadline=None)
@given(problem=problems(counts=st.integers(min_value=0, max_value=60)))
def test_lattice_costs_are_the_models_components(problem):
    """A problem's flat components equal a model's over the same
    statistics, bit for bit, once every group's fact count is known."""
    groups, fact_counts, statistics, sigma = problem
    counts = {group: fact_counts.get(group, 7) for group in groups}
    lattice = GroupLattice(groups)
    flat = lattice_costs(
        lattice,
        [counts[group] for group in lattice.groups],
        statistics.row_count,
        statistics.distinct_counts,
    )
    model = plan_oracle.model_costs(
        PruningCostModel(counts, CostEstimator(statistics), sigma=sigma), lattice, counts
    )
    assert flat.counts == model.counts
    for mine, theirs in zip(flat[1:], model[1:]):
        assert [_bits(x) for x in mine] == [_bits(x) for x in theirs]


def test_estimator_fallback_runs_only_for_missing_groups_and_once():
    statistics = TableStatistics(row_count=100, distinct_counts={"a": 4, "b": 5})
    estimator = CountingEstimator(statistics)
    known, missing = FactGroup(["a"]), FactGroup(["a", "b"])
    model = PruningCostModel({known: 0}, estimator)
    for _ in range(3):
        assert model.fact_count(known) == 1
        assert model.fact_count(missing) == 20
        model.prune_probability(known, missing)
    assert estimator.fact_count_calls == {("a", "b"): 1}
