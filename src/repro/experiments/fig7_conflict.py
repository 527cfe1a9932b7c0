"""Figure 7: how workers resolve conflicting facts.

For the ACS data (borough and age group) and the flights data (season
and time of day), workers receive four single-dimension facts and
estimate the four value combinations covered by two conflicting facts
each.  Four prediction models are compared by median error against the
worker answers; the paper finds the closest-relevant-value model fits
best.
"""

from __future__ import annotations

from repro.datasets import load_dataset
from repro.experiments.runner import ExperimentResult
from repro.userstudy.conflict import ConflictStudy
from repro.userstudy.worker import WorkerPool

#: Study setup per dataset: target, the two dimensions and the two values per dimension.
FIGURE7_SETUPS = {
    "ACS": {
        "dataset": "acs",
        "rows": 400,
        "target": "visual_impairment",
        "dimension_a": "borough",
        "values_a": ("Staten Island", "Bronx"),
        "dimension_b": "age_group",
        "values_b": ("Teenagers", "Elders"),
    },
    "Flights": {
        "dataset": "flights",
        "rows": 600,
        "target": "delay_minutes",
        "dimension_a": "season",
        "values_a": ("Winter", "Summer"),
        "dimension_b": "time_of_day",
        "values_b": ("Morning", "Evening"),
    },
}


def run_figure7(workers_per_combination: int = 20, seed: int = 29) -> ExperimentResult:
    """Run the conflict-resolution study for both datasets."""
    result = ExperimentResult(
        name="figure7",
        description="Error of models predicting how workers process conflicting facts",
    )
    for label, setup in FIGURE7_SETUPS.items():
        dataset = load_dataset(setup["dataset"], num_rows=setup["rows"])
        relation = dataset.relation(setup["target"])
        prior = float(relation.target_values.mean())
        study = ConflictStudy(
            pool=WorkerPool(size=workers_per_combination, seed=seed),
            workers_per_combination=workers_per_combination,
        )
        outcome = study.run(
            relation,
            dimension_a=setup["dimension_a"],
            values_a=setup["values_a"],
            dimension_b=setup["dimension_b"],
            values_b=setup["values_b"],
            prior=prior,
        )
        for model, error in outcome.errors.items():
            result.add_row(
                dataset=label,
                model=model,
                median_error=error,
                combinations=outcome.combinations,
                hits=outcome.hits,
            )
    result.notes.append(
        "worker answers are simulated with a predominantly closest-value population"
    )
    return result
