"""Figure 6: worker estimates after hearing the worst vs the best speech.

Workers estimate visual-impairment prevalence for every New York City
borough and age group after hearing either the worst-ranked or the
best-ranked speech from the ACS pool.  The expected shape: estimates
based on the best speech track the correct values much more closely
than estimates based on the worst speech.
"""

from __future__ import annotations

from itertools import product

from repro.datasets import load_dataset
from repro.datasets.acs import AGE_GROUPS, BOROUGHS
from repro.experiments.runner import ExperimentResult
from repro.experiments.speech_pool import build_speech_pool
from repro.userstudy.estimation import EstimationStudy
from repro.userstudy.worker import WorkerPool


def run_figure6(
    workers_per_point: int = 20,
    pool_size: int = 100,
    rows: int = 400,
    seed: int = 17,
) -> ExperimentResult:
    """Reproduce the borough × age-group estimation grid of Figure 6."""
    dataset = load_dataset("acs", num_rows=rows)
    relation = dataset.relation("visual_impairment")
    pool = build_speech_pool(relation, "visual_impairment", pool_size=pool_size, seed=seed)

    prior = float(relation.target_values.mean())
    study = EstimationStudy(
        pool=WorkerPool(size=workers_per_point, seed=seed),
        workers_per_point=workers_per_point,
    )
    points = [
        {"borough": borough, "age_group": age_group}
        for borough, age_group in product(BOROUGHS, AGE_GROUPS)
    ]
    outcome = study.run(
        relation,
        speeches={"worst": pool.worst.speech, "best": pool.best.speech},
        points=points,
        prior=prior,
    )

    result = ExperimentResult(
        name="figure6",
        description="Worker estimates for visual impairment after worst/best speech",
    )
    for point in outcome.points:
        result.add_row(
            borough=point.assignments["borough"],
            age_group=point.assignments["age_group"],
            correct=point.correct,
            worst_estimate=point.estimates["worst"],
            best_estimate=point.estimates["best"],
            worst_error=point.error("worst"),
            best_error=point.error("best"),
        )
    result.notes.append(
        f"best speech scaled utility {pool.best.scaled_utility:.3f}, "
        f"worst speech scaled utility {pool.worst.scaled_utility:.3f}"
    )
    result.notes.append(f"{outcome.hits} simulated HITs answered")
    return result
