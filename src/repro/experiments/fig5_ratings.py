"""Figure 5: worker preferences correlate with the speech quality model.

For the flights and ACS datasets, 100 random speeches are ranked by the
quality model; the best, median and worst ranked speeches are rated by
(simulated) workers on four adjectives and compared pairwise.  The
expected shape: ratings and win counts increase monotonically from
worst to best ranked speech.
"""

from __future__ import annotations

from repro.datasets import load_dataset
from repro.experiments.runner import ExperimentResult
from repro.experiments.speech_pool import build_speech_pool
from repro.userstudy.ratings import DEFAULT_ADJECTIVES, RatingStudy, SpeechCandidate
from repro.userstudy.worker import WorkerPool

#: Datasets and targets used for the Figure 5 study.
FIGURE5_SCENARIOS = {
    "flights": ("flights", "cancellation", 400),
    "acs": ("acs", "visual_impairment", 400),
}


def run_figure5(
    workers: int = 50,
    pool_size: int = 100,
    seed: int = 17,
) -> ExperimentResult:
    """Run the rating study for the best / median / worst random speeches."""
    result = ExperimentResult(
        name="figure5",
        description="Preferences of (simulated) workers vs the speech quality model",
    )
    worker_pool = WorkerPool(size=workers, seed=seed)
    study = RatingStudy(pool=worker_pool, adjectives=DEFAULT_ADJECTIVES)

    for label, (dataset_key, target, rows) in FIGURE5_SCENARIOS.items():
        dataset = load_dataset(dataset_key, num_rows=rows)
        relation = dataset.relation(target)
        pool = build_speech_pool(relation, target, pool_size=pool_size, seed=seed)
        candidates = [
            SpeechCandidate("Worst", pool.worst.text, pool.worst.scaled_utility),
            SpeechCandidate("Medium", pool.median.text, pool.median.scaled_utility),
            SpeechCandidate("Best", pool.best.text, pool.best.scaled_utility),
        ]
        outcome = study.run(candidates)
        for candidate in candidates:
            ratings = outcome.average_ratings[candidate.label]
            row = {
                "dataset": label,
                "speech": candidate.label,
                "model_scaled_utility": candidate.scaled_utility,
                "wins": outcome.wins[candidate.label],
            }
            row.update({adjective: ratings[adjective] for adjective in DEFAULT_ADJECTIVES})
            result.add_row(**row)
    result.notes.append(
        "workers are simulated (closest-relevant-value behaviour with noise); "
        "speeches come from real random pools ranked by the utility model"
    )
    return result
