"""Integration tests tied to the paper's worked examples.

Example 2 (facts as scope averages), Example 6 (pruning arithmetic) and
Example 7 (greedy choices) are checked on a relation that follows the
paper's Figure 1 setting: zero prior, facts restricted to regions,
seasons, or both.
"""

import pytest

from repro.algorithms.exact import ExactSummarizer
from repro.algorithms.greedy import GreedySummarizer
from repro.core.model import Scope, SummarizationRelation
from repro.core.priors import ZeroPrior
from repro.core.problem import SummarizationProblem
from repro.core.utility import UtilityEvaluator
from repro.facts.generation import FactGenerator
from repro.relational.column import ColumnType
from repro.relational.table import Table
from tests.algorithms.per_fact_greedy import incremental_gain

REGIONS = ["East", "South", "West", "North"]
SEASONS = ["Spring", "Summer", "Fall", "Winter"]


@pytest.fixture(scope="module")
def paper_relation() -> SummarizationRelation:
    """A delay grid in the spirit of Figure 1.

    Delays: 20 minutes in the South in Summer and in the East in Winter,
    15 minutes elsewhere in Winter and in the North, 10 minutes for all
    remaining flights.
    """
    rows = []
    for region in REGIONS:
        for season in SEASONS:
            if (region, season) in {("South", "Summer"), ("East", "Winter")}:
                delay = 20.0
            elif season == "Winter" or region == "North":
                delay = 15.0
            else:
                delay = 10.0
            rows.append((region, season, delay))
    table = Table.from_rows(
        "figure1",
        ["region", "season", "delay"],
        [ColumnType.CATEGORICAL, ColumnType.CATEGORICAL, ColumnType.NUMERIC],
        rows,
    )
    return SummarizationRelation(table, ["region", "season"], "delay")


@pytest.fixture(scope="module")
def evaluator(paper_relation) -> UtilityEvaluator:
    return UtilityEvaluator(paper_relation, prior=ZeroPrior())


class TestExample2FactSemantics:
    def test_fact_values_are_scope_averages(self, paper_relation):
        south_summer = paper_relation.make_fact({"region": "South", "season": "Summer"})
        assert south_summer.value == pytest.approx(20.0)
        winter = paper_relation.make_fact({"season": "Winter"})
        # Winter: East 20, South/West 15, North 15 -> average 16.25.
        assert winter.value == pytest.approx(16.25)


class TestExample6PruningArithmetic:
    """The bound-pruning rule of Example 6: with a known lower bound b and
    one expansion remaining, a partial speech whose bound plus the candidate's
    single-fact utility stays below b is discarded."""

    def test_bound_rule(self, evaluator, paper_relation):
        south_summer = paper_relation.make_fact({"region": "South", "season": "Summer"})
        east_winter = paper_relation.make_fact({"region": "East", "season": "Winter"})
        # A single-fact utility is the fact's gain over the empty speech.
        prior = evaluator.initial_state()
        partial_bound = incremental_gain(evaluator, south_summer, prior)
        candidate_utility = incremental_gain(evaluator, east_winter, prior)
        assert partial_bound == pytest.approx(20.0)
        assert candidate_utility == pytest.approx(20.0)
        lower_bound = 85.0  # utility of a speech found by the heuristic
        remaining = 1
        # (b - S.U) / r > F.U  ==>  prune.
        assert (lower_bound - partial_bound) / remaining > candidate_utility

    def test_exact_algorithm_survives_aggressive_bound(self, paper_relation):
        facts = FactGenerator(paper_relation, max_extra_dimensions=2).generate().facts
        problem = SummarizationProblem(
            relation=paper_relation,
            candidate_facts=facts,
            max_facts=2,
            prior=ZeroPrior(),
        )
        exact = ExactSummarizer().summarize(problem)
        greedy = GreedySummarizer().summarize(problem)
        assert exact.utility >= greedy.utility - 1e-9


class TestExample7GreedyChoices:
    def test_greedy_prefers_single_dimension_facts(self, paper_relation):
        """Restricted to single-dimension facts (as in Example 7), greedy
        picks the Winter and North facts, which dominate combination facts
        like South/Summer."""
        facts = FactGenerator(paper_relation, max_extra_dimensions=1).generate()
        single_dim = [f for f in facts.facts if len(f.dimensions) == 1]
        problem = SummarizationProblem(
            relation=paper_relation,
            candidate_facts=single_dim,
            max_facts=2,
            prior=ZeroPrior(),
        )
        result = GreedySummarizer().summarize(problem)
        chosen_scopes = {fact.scope for fact in result.speech}
        assert chosen_scopes == {Scope({"season": "Winter"}), Scope({"region": "North"})}

    def test_dominated_fact_not_chosen_first(self, evaluator, paper_relation):
        south_summer = paper_relation.make_fact({"region": "South", "season": "Summer"})
        winter = paper_relation.make_fact({"season": "Winter"})
        north = paper_relation.make_fact({"region": "North"})
        prior = evaluator.initial_state()
        dominated = incremental_gain(evaluator, south_summer, prior)
        assert dominated < incremental_gain(evaluator, winter, prior)
        assert dominated < incremental_gain(evaluator, north, prior)
