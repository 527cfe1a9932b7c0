"""Figure 4: scaling speech length and fact dimensions (G-O vs G-P).

The paper scales two parameters for the A-H, F-C and S-O scenarios: the
speech length (number of selected facts, 2-5) and the maximal number of
dimension columns mentioned per fact (1-3).  Scaling is more graceful
in the speech length than in the fact dimensions, and G-O reduces
overheads compared to G-P.
"""

from __future__ import annotations

from repro.algorithms import OptimizedGreedySummarizer, PrunedGreedySummarizer
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import ScenarioScale, build_scenario_problems

#: Scenarios shown in Figure 4.
FIGURE4_SCENARIOS = ("A-H", "F-C", "S-O")
#: Speech lengths scaled in the top row of Figure 4.
SPEECH_LENGTHS = (2, 3, 4)
#: Fact dimension limits scaled in the bottom row of Figure 4.
FACT_DIMENSIONS = (1, 2, 3)


def run_figure4(
    scenarios: tuple[str, ...] = FIGURE4_SCENARIOS,
    speech_lengths: tuple[int, ...] = SPEECH_LENGTHS,
    fact_dimensions: tuple[int, ...] = FACT_DIMENSIONS,
    queries_per_scenario: int = 3,
    seed: int = 3,
) -> ExperimentResult:
    """Measure G-P and G-O while scaling speech length and fact dimensions."""
    result = ExperimentResult(
        name="figure4",
        description="Scaling speech length and fact dimensions (G-P vs G-O)",
    )
    algorithms = {"G-P": PrunedGreedySummarizer(), "G-O": OptimizedGreedySummarizer()}

    for scenario in scenarios:
        # Top row: scale the speech length at the default fact-dimension limit.
        for length in speech_lengths:
            scale = ScenarioScale(
                queries_per_scenario=queries_per_scenario,
                max_facts_per_speech=length,
                max_fact_dimensions=2,
            )
            problems = build_scenario_problems(scenario, scale=scale, seed=seed)
            for name, algorithm in algorithms.items():
                seconds, evaluations, scaled = _run_problems(algorithm, problems)
                result.add_row(
                    scenario=scenario,
                    parameter="speech_length",
                    value=length,
                    algorithm=name,
                    total_seconds=seconds,
                    fact_evaluations=evaluations,
                    avg_scaled_utility=scaled,
                )
        # Bottom row: scale the fact-dimension limit at the default length.
        for dims in fact_dimensions:
            scale = ScenarioScale(
                queries_per_scenario=queries_per_scenario,
                max_facts_per_speech=3,
                max_fact_dimensions=dims,
            )
            problems = build_scenario_problems(scenario, scale=scale, seed=seed)
            for name, algorithm in algorithms.items():
                seconds, evaluations, scaled = _run_problems(algorithm, problems)
                result.add_row(
                    scenario=scenario,
                    parameter="fact_dimensions",
                    value=dims,
                    algorithm=name,
                    total_seconds=seconds,
                    fact_evaluations=evaluations,
                    avg_scaled_utility=scaled,
                )
    return result


def _run_problems(algorithm, problems) -> tuple[float, int, float]:
    """Total time, fact evaluations and mean scaled utility over problems."""
    seconds = 0.0
    evaluations = 0
    scaled = 0.0
    for problem in problems:
        outcome = algorithm.summarize(problem)
        seconds += outcome.statistics.elapsed_seconds
        evaluations += outcome.statistics.fact_evaluations
        scaled += outcome.scaled_utility
    mean_scaled = scaled / len(problems) if problems else 0.0
    return seconds, evaluations, mean_scaled
