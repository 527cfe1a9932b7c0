"""What a G-O/G-P problem pays once: plan choice, the bound pass, the fact groups.

Plan choice runs Algorithm 4 on flat per-group lists, every target's
bound of a G-P greedy step comes from one bincount over stacked group
ids, and fact generation keeps its fact groups across problems.  On every
problem of the four datasets, and on a flights table with NULL
dimension values, none of this may change a plan, a bound bit or an
evaluation count.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.algorithms.cost_model import lattice_costs
from repro.algorithms.pruned_greedy import OptimizedGreedySummarizer, PrunedGreedySummarizer
from repro.algorithms.pruning import FactGroupPruner
from repro.datasets import load_dataset
from repro.facts.groups import FactGroup, GroupLattice
from repro.system.config import SummarizationConfig
from repro.system.persistence import canonical_store_payload
from repro.system.preprocessor import Preprocessor
from repro.system.problem_generator import ProblemGenerator
from tests.algorithms.cost_oracle import CostEstimator, PruningCostModel, TableStatistics
from tests.algorithms.dict_pruner import max_split_bound
from tests.algorithms.plan_candidates import candidate_plans
from tests.algorithms import plan_oracle
from tests.system.test_store_golden import with_null_dimensions

DATASETS = ["flights", "stackoverflow", "acs", "primaries", "flights-nulls"]

#: Summed (fact evaluations, bound evaluations, groups pruned) over every
#: problem of each 300-row table.  Computed before plan choice ran on
#: flat lists and one bincount gave every target's bound; re-pinned when
#: G-O's plans were priced by the one-pass kernel (G-O now runs G-B's
#: loop: G-B's evaluations, no bound or pruned group) and pruned ties
#: went to the lowest fact id, which moved G-P's bound evaluations where
#: a tie pick changed the greedy path.
EVALUATION_TOTALS = {
    ("flights", "G-O"): (177740, 0, 0),
    ("flights", "G-P"): (148033, 18489, 4133),
    ("stackoverflow", "G-O"): (773352, 0, 0),
    ("stackoverflow", "G-P"): (715573, 105877, 8569),
    ("acs", "G-O"): (4986, 0, 0),
    ("acs", "G-P"): (4294, 809, 184),
    ("primaries", "G-O"): (27630, 0, 0),
    ("primaries", "G-P"): (24317, 2533, 516),
    ("flights-nulls", "G-O"): (162655, 0, 0),
    ("flights-nulls", "G-P"): (135626, 18657, 4220),
}


def _dataset(name: str, rows: int):
    if name == "flights-nulls":
        return with_null_dimensions(load_dataset("flights", num_rows=rows))
    return load_dataset(name, num_rows=rows)


def _generator(name: str, algorithm: str = "G-O", rows: int = 300) -> ProblemGenerator:
    dataset = _dataset(name, rows)
    config = SummarizationConfig.create(
        table=dataset.spec.key,
        dimensions=dataset.spec.dimensions,
        targets=dataset.spec.targets,
        max_query_length=2,
        algorithm=algorithm,
    )
    return ProblemGenerator(config, dataset.table)


def _solved(name: str, summarizer_class):
    """Each problem of ``name`` with the statistics and plan of its ``summarizer_class`` solve.

    Problems are built in enumeration order on one generator, as in
    pre-processing, so the targets of a predicate scope share one
    set-up and their index's prepared plans.
    """
    generator = _generator(name)
    summarizer = summarizer_class()
    solved = []
    for query in generator.enumerate_queries():
        problem = generator.build_problem(query)
        if problem is not None:
            statistics = summarizer.summarize(problem).statistics
            solved.append((problem, statistics, summarizer._plan(problem)))
    return solved


@pytest.fixture(scope="module", params=DATASETS)
def dataset_name(request):
    return request.param


@pytest.fixture(scope="module")
def solved_g_o(dataset_name):
    return _solved(dataset_name, OptimizedGreedySummarizer)


@pytest.fixture(scope="module")
def solved_g_p(dataset_name):
    return _solved(dataset_name, PrunedGreedySummarizer)


def _oracle_inputs(problem):
    """The problem's lattice, fact counts and an oracle cost model.

    The model's statistics come from the relation's own table, not from
    the relation's code census the production path reads.
    """
    index = problem.index()
    lattice = GroupLattice(FactGroup(columns) for columns in index.groups)
    sizes = [ids.size for ids in index.groups.values()]
    fact_counts = dict(zip(lattice.groups, sizes))
    statistics = TableStatistics.from_table(problem.relation.table)
    model = PruningCostModel(fact_counts, CostEstimator(statistics))
    return lattice, sizes, fact_counts, statistics, model


def test_plans_and_candidate_costs_match_the_oracle(dataset_name, solved_g_o, solved_g_p):
    seen = set()
    for (problem, _, chosen), (_, _, naive) in zip(solved_g_o, solved_g_p):
        lattice, sizes, fact_counts, statistics, model = _oracle_inputs(problem)
        groups = list(lattice.groups)
        key = (lattice.groups, tuple(sizes), statistics.row_count, str(statistics.distinct_counts))
        if key in seen:
            continue
        seen.add(key)
        assert chosen == plan_oracle.choose_plan(groups, fact_counts, model)
        assert naive == plan_oracle.naive_plan(groups, fact_counts, model)
        relation = problem.relation
        costs = lattice_costs(
            lattice,
            sizes,
            relation.num_rows,
            {dim: relation.distinct_count(dim) for dim in relation.dimensions},
        )
        costed = candidate_plans(lattice, costs, 0.25, 4)
        expected = plan_oracle.generate_candidate_plans(groups, fact_counts, model, 4)
        assert [plan for plan, _ in costed] == expected
        for plan, cost in costed:
            assert cost.hex() == plan_oracle.plan_cost(model, plan, groups).hex()


def _bound_states(problem):
    """The prior state and the state after each of the first two greedy facts."""
    evaluator = problem.evaluator()
    index = problem.index()
    state = evaluator.initial_state()
    states = [state.copy()]
    for _ in range(2):
        gains = index.batch_gains(state.error)
        index.apply_fact(int(np.argmax(gains)), state)
        states.append(state.copy())
    return evaluator, states


def test_stacked_bounds_are_the_split_bounds_bits(solved_g_p):
    for problem, _, _ in solved_g_p:
        evaluator, states = _bound_states(problem)
        _, _, prepared = problem.index().cache[FactGroupPruner]
        for plan, (*_, targets, stacked, starts) in prepared.items():
            columns = [evaluator.split_columns(target.dimensions) for target in plan.targets]
            assert len(columns) == len(targets) == starts.size
            for state in states:
                sums = np.bincount(stacked, weights=np.tile(state.error, len(targets)))
                bounds = np.maximum.reduceat(sums, starts).tolist() if targets else []
                expected = [max_split_bound(evaluator, c, state) for c in columns]
                assert [b.hex() for b in bounds] == [b.hex() for b in expected]


def test_evaluation_counts_are_unchanged(dataset_name, solved_g_o, solved_g_p):
    for algorithm, solved in (("G-O", solved_g_o), ("G-P", solved_g_p)):
        totals = tuple(
            sum(getattr(stats, field) for _, stats, _ in solved)
            for field in ("fact_evaluations", "bound_evaluations", "groups_pruned")
        )
        assert totals == EVALUATION_TOTALS[dataset_name, algorithm]


@pytest.mark.parametrize("algorithm", ["G-P", "G-O"])
def test_pickled_generator_and_summarizer_carry_no_shape_caches(algorithm):
    generator = _generator("flights", algorithm, rows=120)
    summarizer = (PrunedGreedySummarizer if algorithm == "G-P" else OptimizedGreedySummarizer)()
    queries = list(generator.enumerate_queries())
    for query in queries[:: len(queries) // 10]:
        problem = generator.build_problem(query)
        if problem is not None:
            summarizer.summarize(problem)
    # G-P keeps lattices; G-O runs G-B's loop and builds none.
    assert generator._group_cache
    assert bool(summarizer._lattices) is (algorithm == "G-P")
    generator_copy = pickle.loads(pickle.dumps(generator))
    summarizer_copy = pickle.loads(pickle.dumps(summarizer))
    assert generator_copy._group_cache == {} and summarizer_copy._lattices == {}

    config = generator.config
    stores = [
        canonical_store_payload(Preprocessor(config, s).run(g, max_problems=300)[0], config)
        for g, s in ((generator, summarizer), (generator_copy, summarizer_copy))
    ]
    assert stores[0] == stores[1]
