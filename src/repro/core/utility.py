"""Deviation and utility computation (Definitions 5 and 6).

The :class:`UtilityEvaluator` is the numerical heart of the
reproduction.  It computes

* ``D(F)`` — accumulated deviation between expectations and the data,
* ``U(F) = D(∅) − D(F)`` — speech utility,
* single-fact utilities and *incremental* utility gains, which is what
  the greedy algorithm (Algorithm 2) needs in every iteration.

Incremental gains are only well-defined under the paper's default
expectation model (closest relevant value), where adding a fact can
only reduce each row's deviation.  The evaluator keeps a per-row
"current best deviation" vector for that purpose, mirroring the
expectation column the paper's SQL implementation stores in the data
relation (Algorithm 2, Line 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.expectation import ClosestRelevantFactModel, ExpectationModel
from repro.core.kernel import FactScopeIndex
from repro.core.model import Fact, Scope, Speech, SummarizationRelation
from repro.core.priors import GlobalAveragePrior, Prior


@dataclass
class ExpectationState:
    """Mutable greedy state: per-row expectation and its deviation.

    ``expected`` holds E(F, r) for the facts applied so far; ``error``
    holds |E(F, r) − v_r| per row.  Both start from the prior.
    """

    expected: np.ndarray
    error: np.ndarray

    def copy(self) -> "ExpectationState":
        """Deep copy (used when exploring alternative expansions)."""
        return ExpectationState(self.expected.copy(), self.error.copy())


class UtilityEvaluator:
    """Evaluates deviation and utility of fact sets over one relation.

    Parameters
    ----------
    relation:
        The relation to summarize.
    prior:
        Prior expectation model; defaults to the global target average,
        matching the paper's experimental setup.
    expectation_model:
        How users combine relevant facts; defaults to the closest
        relevant value model validated in the paper.
    """

    def __init__(
        self,
        relation: SummarizationRelation,
        prior: Prior | None = None,
        expectation_model: ExpectationModel | None = None,
    ):
        self._relation = relation
        self._prior = prior or GlobalAveragePrior()
        self._model = expectation_model or ClosestRelevantFactModel()
        self._prior_values = self._prior.values(relation)
        if self._prior_values.shape != relation.target_values.shape:
            raise ValueError(
                "prior produced a vector of wrong length "
                f"({self._prior_values.shape} vs {relation.target_values.shape})"
            )
        self._prior_error = np.abs(self._prior_values - relation.target_values)
        self._scope_indices_cache: dict[Scope, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def relation(self) -> SummarizationRelation:
        """The relation being summarized."""
        return self._relation

    @property
    def prior(self) -> Prior:
        """The prior expectation model."""
        return self._prior

    @property
    def expectation_model(self) -> ExpectationModel:
        """The user expectation model."""
        return self._model

    @property
    def prior_values(self) -> np.ndarray:
        """Prior expectations per row."""
        return self._prior_values

    def scope_indices(self, scope: Scope) -> np.ndarray:
        """Row indices within ``scope`` (cached)."""
        cached = self._scope_indices_cache.get(scope)
        if cached is None:
            cached = self._relation.scope_row_indices(scope)
            self._scope_indices_cache[scope] = cached
        return cached

    # ------------------------------------------------------------------
    # Deviation and utility (Definitions 5 and 6)
    # ------------------------------------------------------------------
    def prior_deviation(self) -> float:
        """D(∅): accumulated deviation when only the prior is known."""
        return float(self._prior_error.sum())

    def deviation(self, facts: Iterable[Fact] | Speech) -> float:
        """D(F): accumulated deviation after hearing ``facts``."""
        fact_list = list(facts.facts if isinstance(facts, Speech) else facts)
        expected = self._model.expectations(self._relation, fact_list, self._prior_values)
        return float(np.abs(expected - self._relation.target_values).sum())

    def utility(self, facts: Iterable[Fact] | Speech) -> float:
        """U(F) = D(∅) − D(F)."""
        return self.prior_deviation() - self.deviation(facts)

    def scaled_utility(self, facts: Iterable[Fact] | Speech) -> float:
        """Utility scaled to [0, 1] by the prior deviation.

        The paper scales utility to one per summarization problem
        instance when reporting Figure 3; a value of 1 means the speech
        removed all deviation.
        """
        prior = self.prior_deviation()
        if prior == 0.0:
            return 1.0
        return self.utility(facts) / prior

    def expectations(self, facts: Iterable[Fact] | Speech) -> np.ndarray:
        """E(F, r) per row, under the configured expectation model."""
        fact_list = list(facts.facts if isinstance(facts, Speech) else facts)
        return self._model.expectations(self._relation, fact_list, self._prior_values)

    # ------------------------------------------------------------------
    # Single-fact utilities and incremental gains (closest model)
    # ------------------------------------------------------------------
    def initial_state(self) -> ExpectationState:
        """Greedy state for the empty speech (expectation = prior)."""
        return ExpectationState(expected=self._prior_values.copy(), error=self.initial_error())

    def initial_error(self) -> np.ndarray:
        """|E(∅, r) − v_r| per row, a fresh copy: the error of the empty speech."""
        return self._prior_error.copy()

    # ------------------------------------------------------------------
    # Batch kernels (vectorized over all candidates of a problem's
    # FactScopeIndex at once)
    # ------------------------------------------------------------------
    def batch_single_fact_utilities(self, index: FactScopeIndex) -> np.ndarray:
        """Single-fact utilities of all indexed facts (against the prior)."""
        return index.batch_gains(self._prior_error)

    def apply_fact(self, fact: Fact, state: ExpectationState) -> float:
        """Apply ``fact`` to ``state`` in place; return the realised gain.

        This is Algorithm 2, Line 11: recalculate the user expectation
        column after expanding the current speech.
        """
        indices = self.scope_indices(fact.scope)
        if indices.size == 0:
            return 0.0
        truth = self._relation.target_values[indices]
        fact_err = np.abs(fact.value - truth)
        improves = fact_err < state.error[indices]
        improved_rows = indices[improves]
        gain = float((state.error[improved_rows] - fact_err[improves]).sum())
        state.expected[improved_rows] = fact.value
        state.error[improved_rows] = fact_err[improves]
        return gain

    def split_columns(self, group_columns: Sequence[str]) -> list[str]:
        """The columns of a group that split the relation's rows.

        A column constant over the relation splits no group, so it is
        left out of the grouping: a query's subset then reuses the
        grouping of the fact generator, which groups on the columns
        beyond the query's own predicates.
        """
        return [c for c in group_columns if not self._relation.is_constant(c)]
