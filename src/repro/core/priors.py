"""Prior expectation models.

Definition 4 of the paper includes a prior ``P(r)``: the value the user
expects for a row before hearing any facts.  The experiments use the
average value of the target column as a constant prior; the running
example (flight delays) uses a zero prior.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.model import SummarizationRelation


class Prior(abc.ABC):
    """Produces the user's prior expectation for every relation row."""

    @abc.abstractmethod
    def values(self, relation: SummarizationRelation) -> np.ndarray:
        """Prior expectations, one per relation row."""

    def describe(self) -> str:
        """Human-readable description used in speech prefixes and logs."""
        return type(self).__name__


class ZeroPrior(Prior):
    """Users expect zero by default (running example: no delays)."""

    def values(self, relation: SummarizationRelation) -> np.ndarray:
        return np.zeros(relation.num_rows, dtype=float)

    def describe(self) -> str:
        return "zero prior"


class ConstantPrior(Prior):
    """Users expect a fixed constant value for every row."""

    def __init__(self, value: float):
        self._value = float(value)

    @property
    def value(self) -> float:
        """The constant prior value."""
        return self._value

    def values(self, relation: SummarizationRelation) -> np.ndarray:
        return np.full(relation.num_rows, self._value, dtype=float)

    def describe(self) -> str:
        return f"constant prior ({self._value:.4g})"


class GlobalAveragePrior(Prior):
    """Users expect the overall average of the target column.

    This is the prior used in the paper's experiments (Section VIII-A).
    """

    def values(self, relation: SummarizationRelation) -> np.ndarray:
        mean = float(relation.target_values.mean())
        return np.full(relation.num_rows, mean, dtype=float)

    def describe(self) -> str:
        return "global average prior"
