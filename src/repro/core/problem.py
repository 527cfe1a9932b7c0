"""Speech summarization problem instances (Definition 7).

A problem is a triple ⟨R, F, m⟩: a relation to summarize, a set of
candidate facts, and the maximal number of facts per speech.  The
:class:`SummarizationProblem` also carries the prior and expectation
model so algorithms evaluate utility consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.errors import InvalidProblemError
from repro.core.expectation import ClosestRelevantFactModel, ExpectationModel
from repro.core.kernel import FactScopeIndex, ScopeBatch
from repro.core.model import Fact, SummarizationRelation
from repro.core.priors import GlobalAveragePrior, Prior
from repro.core.utility import UtilityEvaluator


@dataclass
class SummarizationProblem:
    """An instance of the speech summarization problem.

    Attributes
    ----------
    relation:
        The relation (data subset) to summarize.
    candidate_facts:
        The facts F available for speech construction.
    max_facts:
        The maximal speech length m.
    prior:
        Prior expectation model (defaults to the global target average).
    expectation_model:
        User expectation model (defaults to closest relevant value).
    label:
        Optional identifier, used by the problem generator to record
        which query the problem answers.
    scope_index:
        The candidates' CSR scope index, when whoever generated the
        facts already knows their rows; otherwise :meth:`index` builds
        it on first use.
    batch:
        The :class:`~repro.core.kernel.ScopeBatch` the problem is a
        member of and its slot there, or None: the greedy loop then
        solves the problem alone.  The batch's problems share one prior
        and the closest-relevant-value model.
    """

    relation: SummarizationRelation
    candidate_facts: Sequence[Fact]
    max_facts: int
    prior: Prior = field(default_factory=GlobalAveragePrior)
    expectation_model: ExpectationModel = field(default_factory=ClosestRelevantFactModel)
    label: str = ""
    scope_index: FactScopeIndex | None = field(default=None, repr=False, compare=False)
    batch: tuple[ScopeBatch, int] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_facts < 1:
            raise InvalidProblemError(
                f"max_facts must be at least 1, got {self.max_facts}"
            )
        if not self.candidate_facts:
            raise InvalidProblemError("a problem requires at least one candidate fact")
        if self.scope_index is not None and self.scope_index.num_facts != len(
            self.candidate_facts
        ):
            raise InvalidProblemError("scope index does not match the candidate facts")

    def index(self) -> FactScopeIndex:
        """The candidates' CSR scope index, shared by every summarizer."""
        if self.scope_index is None:
            self.scope_index = FactScopeIndex.build(self.relation, self.candidate_facts)
        return self.scope_index

    def evaluator(self) -> UtilityEvaluator:
        """Build a utility evaluator for this problem instance."""
        return UtilityEvaluator(
            self.relation,
            prior=self.prior,
            expectation_model=self.expectation_model,
        )

    @property
    def num_rows(self) -> int:
        """Number of relation rows (n in the complexity analysis)."""
        return self.relation.num_rows
