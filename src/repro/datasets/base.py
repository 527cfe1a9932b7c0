"""Shared plumbing for the synthetic dataset generators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.model import SummarizationRelation
from repro.relational.table import Table


@dataclass(frozen=True)
class DatasetSpec:
    """Describes a dataset's schema from the summarizer's point of view.

    Attributes
    ----------
    key:
        Short identifier ("acs", "flights", "stackoverflow", "primaries").
    title:
        Human-readable name as used in the paper's Table I.
    dimensions:
        Dimension columns available for predicates and fact scopes.
    targets:
        Numeric target columns that can be summarized.
    default_target:
        Target used when no explicit choice is made.
    paper_size:
        The size the paper reports for the original dataset (informational).
    paper_dimensions / paper_targets:
        Counts reported in Table I (informational; the synthetic
        generator may expose additional target columns).
    """

    key: str
    title: str
    dimensions: tuple[str, ...]
    targets: tuple[str, ...]
    default_target: str
    paper_size: str = ""
    paper_dimensions: int = 0
    paper_targets: int = 0


@dataclass
class SyntheticDataset:
    """A generated table together with its schema description."""

    spec: DatasetSpec
    table: Table
    seed: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        """Number of generated rows."""
        return self.table.num_rows

    def relation(self, target: str | None = None) -> SummarizationRelation:
        """Build a summarization relation for one target column."""
        chosen = target or self.spec.default_target
        if chosen not in self.spec.targets:
            raise ValueError(
                f"unknown target {chosen!r} for dataset {self.spec.key!r}; "
                f"available: {list(self.spec.targets)}"
            )
        return SummarizationRelation(self.table, list(self.spec.dimensions), chosen)


def make_rng(seed: int) -> np.random.Generator:
    """Create the seeded RNG all generators use (deterministic outputs)."""
    return np.random.default_rng(seed)


def categorical_choice(
    rng: np.random.Generator,
    values: Sequence[str],
    size: int,
    weights: Sequence[float] | None = None,
) -> list[str]:
    """Draw ``size`` categorical values with optional weights."""
    if weights is not None:
        probabilities = np.asarray(weights, dtype=float)
        probabilities = probabilities / probabilities.sum()
    else:
        probabilities = None
    drawn = rng.choice(len(values), size=size, p=probabilities)
    return [values[i] for i in drawn]
