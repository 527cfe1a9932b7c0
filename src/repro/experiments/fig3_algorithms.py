"""Figure 3: computation time and utility of E, G-B, G-P and G-O.

For every scenario (dataset/target pair) the paper reports total
pre-processing time and the average utility of the generated speeches,
scaled to one per problem instance.  The expected shape: exact
optimization is orders of magnitude slower than the greedy variants
while greedy utility stays close to optimal (≥ 98% on average, far
above the theoretical (1 − 1/e) ≈ 63%); cost-based pruning (G-O)
reduces greedy time compared to naive pruning (G-P) and the base
version (G-B).
"""

from __future__ import annotations

from repro.algorithms import (
    ExactSummarizer,
    GreedySummarizer,
    OptimizedGreedySummarizer,
    PrunedGreedySummarizer,
)
from repro.algorithms.base import Summarizer
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import (
    SMALL_SCALE,
    ScenarioScale,
    build_scenario_problems,
    scenario_labels,
)

#: Figure 3 compares these four algorithms.
FIGURE3_ALGORITHMS = ("E", "G-B", "G-P", "G-O")


def _make_algorithms() -> dict[str, Summarizer]:
    return {
        "E": ExactSummarizer(),
        "G-B": GreedySummarizer(),
        "G-P": PrunedGreedySummarizer(),
        "G-O": OptimizedGreedySummarizer(),
    }


def run_figure3(
    scenarios: list[str] | None = None,
    scale: ScenarioScale = SMALL_SCALE,
    seed: int = 3,
) -> ExperimentResult:
    """Run all four algorithms over the scenario problem samples.

    One result row per (scenario, algorithm) with total time, average
    scaled utility and the number of fact-gain evaluations (a
    hardware-independent proxy for data processing cost).
    """
    labels = scenarios if scenarios is not None else scenario_labels()
    algorithms = _make_algorithms()
    result = ExperimentResult(
        name="figure3",
        description="Performance comparison of presented algorithms per scenario",
    )
    result.notes.append(
        f"scaled workload: {scale.queries_per_scenario} queries/scenario, "
        f"speech length {scale.max_facts_per_speech}, "
        f"facts restrict up to {scale.max_fact_dimensions} dimensions"
    )

    for label in labels:
        problems = build_scenario_problems(label, scale=scale, seed=seed)
        if not problems:
            continue
        for algorithm_name in FIGURE3_ALGORITHMS:
            algorithm = algorithms[algorithm_name]
            total_time = 0.0
            total_scaled = 0.0
            total_evaluations = 0
            for problem in problems:
                outcome = algorithm.summarize(problem)
                total_time += outcome.statistics.elapsed_seconds
                total_scaled += outcome.scaled_utility
                total_evaluations += outcome.statistics.fact_evaluations
            result.add_row(
                scenario=label,
                algorithm=algorithm_name,
                problems=len(problems),
                total_seconds=total_time,
                avg_scaled_utility=total_scaled / len(problems),
                fact_evaluations=total_evaluations,
            )
    return result
