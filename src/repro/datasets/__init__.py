"""Synthetic datasets mirroring the paper's four evaluation datasets.

The original evaluation (Table I) uses four public datasets: an ACS
disability extract for New York, the 2019 Stack Overflow developer
survey, a Kaggle flight-delay dataset and FiveThirtyEight's democratic
primaries data.  Those files are not bundled here; instead each module
provides a seeded synthetic generator that reproduces the *structure*
the algorithms care about — the number of dimensions, realistic domain
sizes, and target distributions with strong dimension effects — so the
relative behaviour of the algorithms (fact counts, pruning
effectiveness, scaling) matches the paper.
"""

from repro.datasets.base import DatasetSpec, SyntheticDataset
from repro.datasets.acs import generate_acs
from repro.datasets.flights import generate_flights
from repro.datasets.stackoverflow import generate_stackoverflow
from repro.datasets.primaries import generate_primaries
from repro.datasets.registry import available_datasets, dataset_overview, load_dataset

__all__ = [
    "DatasetSpec",
    "SyntheticDataset",
    "generate_acs",
    "generate_flights",
    "generate_stackoverflow",
    "generate_primaries",
    "available_datasets",
    "load_dataset",
    "dataset_overview",
]
