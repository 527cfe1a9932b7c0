"""Registry of summarization algorithms by their evaluation names."""

from __future__ import annotations

from typing import Callable

from repro.algorithms.base import Summarizer
from repro.algorithms.exact import ExactSummarizer
from repro.algorithms.greedy import GreedySummarizer
from repro.algorithms.pruned_greedy import OptimizedGreedySummarizer, PrunedGreedySummarizer
from repro.algorithms.random_baseline import RandomSummarizer
from repro.algorithms.sampling_baseline import SamplingBaselineSummarizer

_FACTORIES: dict[str, Callable[[], Summarizer]] = {
    "E": ExactSummarizer,
    "G-B": GreedySummarizer,
    "G-P": PrunedGreedySummarizer,
    "G-O": OptimizedGreedySummarizer,
    "SAMPLING": SamplingBaselineSummarizer,
    "RANDOM": RandomSummarizer,
}


def available_summarizers() -> list[str]:
    """Names of all registered summarizers (as used in the paper's plots)."""
    return sorted(_FACTORIES)


def make_summarizer(name: str, **kwargs) -> Summarizer:
    """Instantiate a summarizer by its evaluation name (e.g. "G-O")."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown summarizer {name!r}; available: {available_summarizers()}"
        ) from None
    return factory(**kwargs)
