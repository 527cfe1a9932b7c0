"""Evaluation scenarios shared by the Figure 3 / Figure 4 experiments.

A scenario is a (dataset, target column) pair; the paper evaluates
eight of them: flight cancellations and delays (F-C, F-D), ACS hearing
/ visual / cognitive impairment (A-H, A-V, A-C), and Stack Overflow
competence / optimism / job satisfaction (S-C, S-O, S-S).

Because the original experiments run for hours against Postgres on EC2
(with a 48-hour timeout for exact optimization), the reproduction
scales the workload down: fewer rows, a subset of the dimensions, and a
sample of the pre-processing queries per scenario.  The scaling factors
are captured in :class:`ScenarioScale` so they can be varied and are
reported alongside the results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.problem import SummarizationProblem
from repro.datasets import load_dataset
from repro.system.config import SummarizationConfig
from repro.system.problem_generator import ProblemGenerator
from repro.system.queries import DataQuery

#: Scenario label -> (dataset key, target column), following Figure 3.
SCENARIOS: dict[str, tuple[str, str]] = {
    "F-C": ("flights", "cancellation"),
    "F-D": ("flights", "delay_minutes"),
    "A-H": ("acs", "hearing_impairment"),
    "A-V": ("acs", "visual_impairment"),
    "A-C": ("acs", "cognitive_impairment"),
    "S-C": ("stackoverflow", "competence"),
    "S-O": ("stackoverflow", "optimism"),
    "S-S": ("stackoverflow", "job_satisfaction"),
}

#: Dimensions used per dataset in the scaled-down scenarios.  Using three
#: dimensions keeps the exact algorithm tractable while preserving the
#: relative fact counts between scenarios (Stack Overflow > Flights > ACS).
SCENARIO_DIMENSIONS: dict[str, tuple[str, ...]] = {
    "flights": ("origin_region", "season", "time_of_day"),
    "acs": ("borough", "age_group", "sex"),
    "stackoverflow": ("region", "dev_type", "experience"),
    "primaries": ("candidate", "state_region", "month"),
}

#: Rows generated per dataset for the scenario experiments.
SCENARIO_ROWS: dict[str, int] = {
    "flights": 600,
    "acs": 400,
    "stackoverflow": 800,
    "primaries": 500,
}


@dataclass(frozen=True)
class ScenarioScale:
    """Scaling knobs for a scenario experiment.

    Attributes
    ----------
    queries_per_scenario:
        Number of pre-processing queries sampled per scenario (the paper
        solves all of them; thousands per scenario).
    max_query_length:
        Maximal number of predicates per sampled query.
    max_facts_per_speech:
        Speech length m.
    max_fact_dimensions:
        Dimension columns a fact may restrict beyond the query's own
        predicates.
    row_fraction:
        Multiplier on the default scenario row counts.
    """

    queries_per_scenario: int = 4
    max_query_length: int = 1
    max_facts_per_speech: int = 3
    max_fact_dimensions: int = 2
    row_fraction: float = 1.0


SMALL_SCALE = ScenarioScale()


def scenario_labels() -> list[str]:
    """All scenario labels, in Figure 3 order."""
    return list(SCENARIOS)


def build_scenario_config(label: str, scale: ScenarioScale) -> SummarizationConfig:
    """The summarization configuration used for one scenario."""
    dataset_key, target = SCENARIOS[label]
    return SummarizationConfig.create(
        table=dataset_key,
        dimensions=SCENARIO_DIMENSIONS[dataset_key],
        targets=(target,),
        max_query_length=scale.max_query_length,
        max_facts_per_speech=scale.max_facts_per_speech,
        max_fact_dimensions=scale.max_fact_dimensions,
    )


def build_scenario_problems(
    label: str,
    scale: ScenarioScale = SMALL_SCALE,
    seed: int = 3,
) -> list[SummarizationProblem]:
    """Sample pre-processing problems for one scenario.

    The empty-predicate query (summarize the whole dataset) is always
    included; the remaining queries are sampled uniformly from the
    enumerated query list.
    """
    if label not in SCENARIOS:
        raise KeyError(f"unknown scenario {label!r}; available: {scenario_labels()}")
    dataset_key, target = SCENARIOS[label]
    rows = max(50, int(SCENARIO_ROWS[dataset_key] * scale.row_fraction))
    dataset = load_dataset(dataset_key, num_rows=rows)
    config = build_scenario_config(label, scale)
    generator = ProblemGenerator(config, dataset.table)

    queries = list(generator.enumerate_queries())
    rng = random.Random(seed)
    overall = DataQuery.create(target, {})
    sampled = [overall]
    remaining = [q for q in queries if q.length > 0]
    rng.shuffle(remaining)
    sampled.extend(remaining[: max(0, scale.queries_per_scenario - 1)])

    problems = []
    for query in sampled:
        problem = generator.build_problem(query)
        if problem is not None:
            problems.append(problem)
    return problems
