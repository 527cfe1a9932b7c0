"""Configuration file for the pre-processing stage (Figure 2).

The configuration references a table, names the dimension columns on
which predicates may be placed and the target columns users may ask
about, and bounds the query length considered during pre-processing.
It also carries the speech parameters used by the summarizer (facts per
speech, extra dimensions per fact) matching the defaults of the paper's
evaluation (three facts per speech, facts restricting up to two
dimension columns, queries with up to two predicates).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence


@dataclass(frozen=True)
class SummarizationConfig:
    """Configuration of the problem generator and speech summarizer.

    Attributes
    ----------
    table:
        Name of the table to summarize.
    dimensions:
        Columns on which queries (and facts) may place equality predicates.
    targets:
        Numeric columns users may ask about.
    max_query_length:
        Maximal number of predicates per pre-processed query (paper: 2).
    max_facts_per_speech:
        Facts per speech (paper default: 3 — user retention drops after
        three facts).
    max_fact_dimensions:
        Additional equality predicates per fact beyond the query's own
        predicates (paper default: 2).
    min_fact_support:
        Minimal number of rows a fact must cover.
    algorithm:
        Name of the summarization algorithm used during pre-processing
        (paper's deployment uses the greedy approach).
    """

    table: str
    dimensions: tuple[str, ...]
    targets: tuple[str, ...]
    max_query_length: int = 2
    max_facts_per_speech: int = 3
    max_fact_dimensions: int = 2
    min_fact_support: int = 1
    algorithm: str = "G-O"

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise ValueError("configuration requires at least one dimension column")
        if not self.targets:
            raise ValueError("configuration requires at least one target column")
        if self.max_query_length < 0:
            raise ValueError("max_query_length must be non-negative")
        if self.max_facts_per_speech < 1:
            raise ValueError("max_facts_per_speech must be at least 1")
        if self.max_fact_dimensions < 0:
            raise ValueError("max_fact_dimensions must be non-negative")
        if self.min_fact_support < 1:
            raise ValueError("min_fact_support must be at least 1")
        for kind, columns in (("dimension", self.dimensions), ("target", self.targets)):
            repeated = sorted({c for c in columns if columns.count(c) > 1})
            if repeated:
                raise ValueError(f"duplicate {kind} columns: {repeated}")
        overlap = set(self.dimensions) & set(self.targets)
        if overlap:
            raise ValueError(f"columns cannot be both dimension and target: {sorted(overlap)}")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def create(
        table: str,
        dimensions: Sequence[str],
        targets: Sequence[str],
        **kwargs,
    ) -> "SummarizationConfig":
        """Build a configuration from plain sequences."""
        return SummarizationConfig(
            table=table,
            dimensions=tuple(dimensions),
            targets=tuple(targets),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Persistence (the paper's system reads a configuration file)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise the configuration to a JSON string."""
        payload = asdict(self)
        payload["dimensions"] = list(self.dimensions)
        payload["targets"] = list(self.targets)
        return json.dumps(payload, indent=2, sort_keys=True)

    def save(self, path: str | Path) -> None:
        """Write the configuration to a JSON file."""
        Path(path).write_text(self.to_json())

    @staticmethod
    def from_json(text: str) -> "SummarizationConfig":
        """Parse a configuration from a JSON string."""
        payload = json.loads(text)
        payload["dimensions"] = tuple(payload["dimensions"])
        payload["targets"] = tuple(payload["targets"])
        return SummarizationConfig(**payload)
