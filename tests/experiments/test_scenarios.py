"""Unit tests for the scenario builder shared by Figures 3 and 4."""

import pytest

from repro.experiments.scenarios import (
    SCENARIOS,
    ScenarioScale,
    build_scenario_config,
    build_scenario_problems,
    scenario_labels,
)


class TestScenarioDefinitions:
    def test_eight_scenarios_in_figure3_order(self):
        labels = scenario_labels()
        assert labels == ["F-C", "F-D", "A-H", "A-V", "A-C", "S-C", "S-O", "S-S"]

    def test_scenarios_cover_three_datasets(self):
        datasets = {dataset for dataset, _ in SCENARIOS.values()}
        assert datasets == {"flights", "acs", "stackoverflow"}

    def test_config_reflects_scale(self):
        scale = ScenarioScale(max_query_length=2, max_facts_per_speech=4, max_fact_dimensions=1)
        config = build_scenario_config("A-V", scale)
        assert config.max_query_length == 2
        assert config.max_facts_per_speech == 4
        assert config.max_fact_dimensions == 1
        assert config.targets == ("visual_impairment",)


class TestProblemBuilding:
    def test_builds_requested_number_of_problems(self):
        scale = ScenarioScale(queries_per_scenario=3, row_fraction=0.3)
        problems = build_scenario_problems("A-V", scale=scale, seed=1)
        assert 1 <= len(problems) <= 3
        # The overall (no-predicate) query is always included.
        assert any(problem.label.endswith("overall") for problem in problems)

    def test_problems_are_solvable(self):
        from repro.algorithms.greedy import GreedySummarizer

        scale = ScenarioScale(queries_per_scenario=2, row_fraction=0.3, max_fact_dimensions=1)
        problems = build_scenario_problems("F-C", scale=scale, seed=2)
        for problem in problems:
            result = GreedySummarizer().summarize(problem)
            assert 0.0 <= result.scaled_utility <= 1.0 + 1e-9

    def test_seed_controls_query_sample(self):
        scale = ScenarioScale(queries_per_scenario=3, row_fraction=0.3)
        a = [p.label for p in build_scenario_problems("S-O", scale=scale, seed=1)]
        b = [p.label for p in build_scenario_problems("S-O", scale=scale, seed=1)]
        assert a == b

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            build_scenario_problems("X-Y")

    @pytest.mark.parametrize(
        "scale",
        [ScenarioScale(), ScenarioScale(max_query_length=2, queries_per_scenario=40)],
        ids=["figure-scale", "length-2"],
    )
    def test_no_problem_is_a_batch_member(self, scale):
        """Figures 3 and 4 add up ``elapsed_seconds`` per problem.  A walked
        problem's batch loop is timed in the first member solved, so a
        scenario must build none: its sampled queries come shuffled, and
        no two back to back open a walk (the first two scopes of a
        combination, in enumeration order)."""
        for label in scenario_labels():
            problems = build_scenario_problems(label, scale=scale, seed=3)
            assert problems
            assert all(problem.batch is None for problem in problems)
