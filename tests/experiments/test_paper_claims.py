"""The paper's claims, one test per table, figure, ablation and study.

Each test runs one experiment of ``repro.experiments`` once, at the
scale its claim is checked at, and asserts the relationships the paper
states about it.  ``python -m repro.cli experiment NAME`` prints the
rows a test reads.
"""

from __future__ import annotations

import math
import statistics

from repro.algorithms import OptimizedGreedySummarizer, PrunedGreedySummarizer
from repro.experiments.ablations import (
    run_exact_pruning_ablation,
    run_greedy_ratio_ablation,
    run_pruning_plan_ablation,
)
from repro.experiments.fig3_algorithms import FIGURE3_ALGORITHMS, run_figure3
from repro.experiments.fig4_scaling import run_figure4
from repro.experiments.fig5_ratings import run_figure5
from repro.experiments.fig6_estimation import run_figure6
from repro.experiments.fig7_conflict import run_figure7
from repro.experiments.fig8_interfaces import run_figure8
from repro.experiments.fig9_query_mix import run_figure9
from repro.experiments.fig10_latency import latency_advantage, run_figure10
from repro.experiments.fig11_baseline_study import run_figure11
from repro.experiments.ml_baseline_study import run_ml_baseline
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import SMALL_SCALE, build_scenario_problems, scenario_labels
from repro.experiments.sensitivity import (
    run_expectation_model_sensitivity,
    run_prior_sensitivity,
)
from repro.experiments.table1_datasets import run_table1
from repro.experiments.table2_speeches import run_table2
from repro.experiments.table3_requests import run_table3
from repro.userstudy.ratings import DEFAULT_ADJECTIVES

#: Greedy selection's worst-case share of the optimal utility, 1 − 1/e.
GREEDY_GUARANTEE = 1 - 1 / math.e


def summarize_figure3(result: ExperimentResult) -> dict[str, float]:
    """Figure 3's headline numbers.

    Total seconds per algorithm (``total_seconds_<name>``), and the
    minimum and mean over the G-B, G-P and G-O rows of their average
    scaled utility relative to exact optimization's in the same
    scenario.
    """
    times = dict.fromkeys(FIGURE3_ALGORITHMS, 0.0)
    per_scenario: dict[str, dict[str, dict]] = {}
    for row in result.rows:
        per_scenario.setdefault(row["scenario"], {})[row["algorithm"]] = row
        times[row["algorithm"]] += row["total_seconds"]
    ratios = [
        rows[name]["avg_scaled_utility"] / rows["E"]["avg_scaled_utility"]
        for rows in per_scenario.values()
        for name in ("G-B", "G-P", "G-O")
    ]
    summary = {f"total_seconds_{name}": seconds for name, seconds in times.items()}
    summary["min_greedy_utility_ratio"] = min(ratios)
    summary["mean_greedy_utility_ratio"] = sum(ratios) / len(ratios)
    return summary


def alternating_median_seconds(problems, summarizers, repeats: int = 7) -> dict[str, float]:
    """Median over ``repeats`` rounds of each summarizer's total seconds on ``problems``.

    Each round runs the summarizers in the reverse of the previous
    round's order, so neither always runs first.
    """
    seconds: dict[str, list[float]] = {summarizer.name: [] for summarizer in summarizers}
    order = list(summarizers)
    for _ in range(repeats):
        for summarizer in order:
            elapsed = sum(summarizer.summarize(p).statistics.elapsed_seconds for p in problems)
            seconds[summarizer.name].append(elapsed)
        order.reverse()
    return {name: statistics.median(values) for name, values in seconds.items()}


def scaling_series(result: ExperimentResult, parameter: str, algorithm: str) -> dict[str, list]:
    """One Figure 4 curve per scenario: (parameter value, gain evaluations), sorted."""
    series: dict[str, list] = {}
    for row in result.rows:
        if row["parameter"] == parameter and row["algorithm"] == algorithm:
            series.setdefault(row["scenario"], []).append((row["value"], row["fact_evaluations"]))
    for points in series.values():
        points.sort()
    return series


def quality_rating_correlation(result: ExperimentResult) -> float:
    """Share of dataset/adjective pairs where the best speech rates at least the worst."""
    consistent = 0
    total = 0
    for dataset in {row["dataset"] for row in result.rows}:
        rows = {row["speech"]: row for row in result.rows if row["dataset"] == dataset}
        for adjective in DEFAULT_ADJECTIVES:
            total += 1
            consistent += rows["Worst"][adjective] <= rows["Best"][adjective]
    return consistent / total


def mean_errors(result: ExperimentResult) -> dict[str, float]:
    """Mean absolute estimation error after the worst and after the best speech."""
    return {
        speech: sum(row[f"{speech}_error"] for row in result.rows) / len(result.rows)
        for speech in ("worst", "best")
    }


def best_models(result: ExperimentResult) -> dict[str, str]:
    """The conflict model with the least median error, per dataset."""
    best: dict[str, str] = {}
    for dataset in {row["dataset"] for row in result.rows}:
        rows = [row for row in result.rows if row["dataset"] == dataset]
        best[dataset] = min(rows, key=lambda row: row["median_error"])["model"]
    return best


def dominant_complexity(result: ExperimentResult) -> str:
    """The predicate-count bucket with the most queries."""
    rows = [row for row in result.rows if row["chart"] == "(a) complexity"]
    return max(rows, key=lambda row: row["count"])["category"]


def overall_winner(result: ExperimentResult) -> str:
    """The approach with the most pairwise wins over all queries."""
    totals: dict[str, int] = {}
    for row in result.rows:
        totals[row["approach"]] = totals.get(row["approach"], 0) + row["wins"]
    return max(totals, key=totals.get)


def test_table1_datasets():
    """Table I: the synthetic replicas keep each dataset's dimension count."""
    result = run_table1()
    assert len(result.rows) == 4
    dimensions = {row["dataset"]: row["synthetic_dims"] for row in result.rows}
    assert dimensions == {"ACS NY": 3, "Stack Overflow": 7, "Flights": 6, "Primaries": 5}


def test_table2_speeches():
    """Table II: the best-ranked ACS speech leads with the age-group effect."""
    result = run_table2(pool_size=100)
    rows = {row["speech"]: row for row in result.rows}
    assert set(rows) == {"Worst", "Best"}
    assert rows["Best"]["scaled_utility"] > rows["Worst"]["scaled_utility"]
    assert "age group" in rows["Best"]["text"].lower()


def test_table3_requests():
    """Table III: supported queries outnumber unsupported ones (Primaries, Flights)."""
    result = run_table3()
    assert len(result.rows) == 3
    for row in result.rows:
        total = row["help"] + row["repeat"] + row["s_query"] + row["u_query"] + row["other"]
        assert total == 50  # each deployment log has 50 requests
    by_deployment = {row["deployment"]: row for row in result.rows}
    assert by_deployment["Primaries"]["s_query"] > by_deployment["Primaries"]["u_query"]
    assert by_deployment["Flights"]["s_query"] > by_deployment["Flights"]["u_query"]


def test_figure3_algorithms():
    """Figure 3: exact optimization is slower than greedy, which stays near optimal,
    and cost-based pruning (G-O) is faster than naive pruning (G-P).

    The paper reports greedy utility ≥ 98% of the optimum on average,
    against a guarantee of 1 − 1/e.  Its claim that G-O is faster than
    G-B is not reproduced here and not asserted: each greedy step gets
    every fact's gain from one kernel pass, so pruning skips no gain
    computation.  Priced by that kernel, Algorithm 4 always picks the
    trivial plan, and G-O runs G-B's loop with G-B's fact evaluations.
    It beats G-P, which pays for bounds and pruning that save nothing.
    """
    result = run_figure3(scale=SMALL_SCALE)
    scenarios = {row["scenario"] for row in result.rows}
    assert len(scenarios) == 8
    assert len(result.rows) == len(scenarios) * 4
    for scenario in scenarios:
        algorithms = {row["algorithm"] for row in result.rows if row["scenario"] == scenario}
        assert algorithms == set(FIGURE3_ALGORITHMS)

    summary = summarize_figure3(result)
    assert summary["total_seconds_E"] > summary["total_seconds_G-B"]
    assert summary["min_greedy_utility_ratio"] >= 0.9
    assert summary["mean_greedy_utility_ratio"] >= 0.98

    evaluations = {
        (row["scenario"], row["algorithm"]): row["fact_evaluations"] for row in result.rows
    }
    for scenario in scenarios:
        assert evaluations[scenario, "G-O"] == evaluations[scenario, "G-B"]
    problems = [
        problem
        for label in scenario_labels()
        for problem in build_scenario_problems(label, scale=SMALL_SCALE, seed=3)
    ]
    medians = alternating_median_seconds(
        problems, [PrunedGreedySummarizer(), OptimizedGreedySummarizer()]
    )
    assert medians["G-O"] < medians["G-P"]


def test_figure4_scaling():
    """Figure 4: cost grows with the fact-dimension limit and the speech
    length, and more gently in speech length than in fact dimensions."""
    result = run_figure4(queries_per_scenario=2)

    by_dimensions = scaling_series(result, "fact_dimensions", "G-P")
    assert "A-H" in by_dimensions
    for scenario, points in by_dimensions.items():
        values = [cost for _, cost in points]
        assert values == sorted(values), f"cost should grow with fact dims in {scenario}"

    by_length = scaling_series(result, "speech_length", "G-P")
    assert by_length.keys() == by_dimensions.keys()
    for scenario, points in by_length.items():
        assert points[0][1] <= points[-1][1]
        # Work counts, last point over first: ~2x in speech length
        # against 5-11x in fact dimensions at this size.
        dimensions = by_dimensions[scenario]
        length_growth = points[-1][1] / points[0][1]
        dimension_growth = dimensions[-1][1] / dimensions[0][1]
        assert length_growth < dimension_growth, scenario

    # G-O never does more gain evaluations than the naive plan.
    go_work = sum(r["fact_evaluations"] for r in result.rows if r["algorithm"] == "G-O")
    gp_work = sum(r["fact_evaluations"] for r in result.rows if r["algorithm"] == "G-P")
    assert go_work <= gp_work * 1.05


def test_figure5_ratings():
    """Figure 5: ratings and pairwise wins follow the quality model's ranking."""
    result = run_figure5(workers=50, pool_size=100)
    assert len(result.rows) == 6
    assert quality_rating_correlation(result) >= 0.75
    for dataset in {row["dataset"] for row in result.rows}:
        rows = {r["speech"]: r for r in result.rows if r["dataset"] == dataset}
        assert rows["Best"]["wins"] > rows["Worst"]["wins"]


def test_figure6_estimation():
    """Figure 6: estimates after the best speech are closer than after the worst."""
    result = run_figure6(workers_per_point=20, pool_size=100)
    assert len(result.rows) == 15  # 5 boroughs x 3 age groups
    errors = mean_errors(result)
    assert errors["best"] < errors["worst"]


def test_figure7_conflict():
    """Figure 7: the closest-relevant-value model predicts workers best."""
    result = run_figure7(workers_per_combination=20)
    assert len(result.rows) == 8  # 2 datasets x 4 models
    assert best_models(result) == {"ACS": "Closest", "Flights": "Closest"}


def test_figure8_interfaces():
    """Figure 8: most participants answer faster by voice, at comparable usability."""
    result = run_figure8(participants=10, questions_per_interface=3, max_problems=300)
    assert len(result.rows) == 10
    faster_with_voice = sum(1 for row in result.rows if row["vocal_time_s"] < row["visual_time_s"])
    assert faster_with_voice >= 5
    mean_vocal = sum(row["vocal_rating"] for row in result.rows) / len(result.rows)
    mean_visual = sum(row["visual_rating"] for row in result.rows) / len(result.rows)
    assert abs(mean_vocal - mean_visual) < 3.0


def test_figure9_query_mix():
    """Figure 9: most queries restrict one dimension; retrievals dominate."""
    result = run_figure9()
    assert dominant_complexity(result) == "1 predicates"
    shapes = {row["category"]: row["count"] for row in result.rows if row["chart"] == "(b) type"}
    assert shapes["retrieval"] > shapes["comparison"]
    assert shapes["retrieval"] > shapes["extremum"]


def test_figure10_latency():
    """Figure 10: a store lookup is far faster than sampling at query time."""
    result = run_figure10(queries_per_dataset=10, max_problems=200)
    assert {row["dataset"] for row in result.rows} == {"S", "F", "P"}
    for dataset, factor in latency_advantage(result).items():
        assert factor > 10, f"expected large latency advantage for {dataset}"
    for row in result.rows:
        assert row["baseline_latency_ms"] <= row["baseline_total_ms"] + 1e-6
        assert row["our_runtime_latency_ms"] < row["preprocessing_per_query_ms"]


def test_figure11_baseline_study():
    """Figure 11: workers prefer precise averages to the baseline's ranges."""
    result = run_figure11(workers=50)
    assert overall_winner(result) == "This"
    ours = [row["Precise"] for row in result.rows if row["approach"] == "This"]
    baseline = [row["Precise"] for row in result.rows if row["approach"] == "Baseline"]
    assert sum(ours) / len(ours) > sum(baseline) / len(baseline)


def test_ml_baseline():
    """Section VIII-E: ML-generated speeches rate lower on every adjective."""
    result = run_ml_baseline(workers=30)
    assert result.rows
    for row in result.rows:
        assert row["our_rating"] > row["ml_rating"], row["adjective"]


def test_ablation_exact_pruning():
    """Bound pruning keeps fewer partial speeches and never changes the quality."""
    result = run_exact_pruning_ablation()
    assert result.rows
    for scenario in {row["scenario"] for row in result.rows}:
        rows = {r["variant"]: r for r in result.rows if r["scenario"] == scenario}
        pruned, unpruned = rows["with_pruning"], rows["without_pruning"]
        assert pruned["partial_speeches"] <= unpruned["partial_speeches"]
        assert abs(pruned["avg_scaled_utility"] - unpruned["avg_scaled_utility"]) < 1e-9


def test_ablation_pruning_plans():
    """Pruning never changes greedy's speeches and never adds gain evaluations."""
    result = run_pruning_plan_ablation()
    assert result.rows
    for scenario in {row["scenario"] for row in result.rows}:
        rows = {r["algorithm"]: r for r in result.rows if r["scenario"] == scenario}
        assert len({round(r["avg_scaled_utility"], 6) for r in rows.values()}) == 1
        assert rows["G-P"]["fact_evaluations"] <= rows["G-B"]["fact_evaluations"]
        assert rows["G-O"]["fact_evaluations"] <= rows["G-B"]["fact_evaluations"]


def test_ablation_greedy_ratio():
    """Greedy keeps its 1 − 1/e guarantee everywhere and far more on average."""
    ratios = [row["ratio"] for row in run_greedy_ratio_ablation().rows]
    assert ratios
    assert min(ratios) >= GREEDY_GUARANTEE - 1e-9
    assert sum(ratios) / len(ratios) >= 0.95


def test_ablation_prior_sensitivity():
    """Every prior yields a scaled utility in [0, 1] and is reported per scenario."""
    result = run_prior_sensitivity()
    assert result.rows
    for row in result.rows:
        assert 0.0 <= row["scaled_utility"] <= 1.0 + 1e-9
        assert 0 <= row["facts_shared_with_reference"] <= 3
    assert {row["prior"] for row in result.rows} == {"global_average", "zero", "wrong_constant"}


def test_ablation_expectation_models():
    """Speeches optimized for the closest model do no worse under it than the farthest.

    Averaging listeners may land anywhere, or occasionally above the
    closest model, because an average of fact values is not confined to
    the candidate value set, so only their lower bound is asserted.
    """
    by_scenario: dict[str, dict[str, float]] = {}
    for row in run_expectation_model_sensitivity().rows:
        utilities = by_scenario.setdefault(row["scenario"], {})
        utilities[row["expectation_model"]] = row["scaled_utility"]
    assert by_scenario
    for utilities in by_scenario.values():
        assert utilities["closest"] > 0.0
        assert utilities["closest"] >= utilities["farthest"] - 1e-9
        assert utilities["avg_scope"] >= utilities["farthest"] - 1e-9
