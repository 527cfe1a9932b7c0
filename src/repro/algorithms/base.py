"""Common interface and result types for summarization algorithms."""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field

from repro.core.model import Speech
from repro.core.problem import SummarizationProblem


@dataclass
class SummarizerStatistics:
    """Counters describing the work an algorithm performed.

    Attributes
    ----------
    elapsed_seconds:
        Wall-clock time spent in :meth:`Summarizer.summarize`.  For the
        members of a batch (:attr:`SummarizationProblem.batch`), the
        first one solved carries the batch's whole loop and the others
        only reading their result off it.
    fact_evaluations:
        Number of (fact, speech-state) utility/gain evaluations.
    speeches_considered:
        Number of (partial) speeches the algorithm materialised.
    speeches_pruned:
        Number of partial speeches discarded by pruning rules
        (exact algorithm).
    groups_pruned:
        Number of fact groups discarded by group-level pruning
        (Algorithm 3).
    bound_evaluations:
        Number of per-group bound computations (Algorithm 3, Line 15).
    """

    elapsed_seconds: float = 0.0
    fact_evaluations: int = 0
    speeches_considered: int = 0
    speeches_pruned: int = 0
    groups_pruned: int = 0
    bound_evaluations: int = 0



@dataclass
class SummaryResult:
    """The outcome of summarizing one problem instance.

    Attributes
    ----------
    speech:
        The selected speech (set of facts).
    utility:
        Absolute utility U(F*) of the selected speech.
    scaled_utility:
        Utility divided by the prior deviation (in [0, 1] for the
        closest-relevant-value model).
    algorithm:
        Name of the algorithm that produced the result.
    statistics:
        Work counters.
    problem_label:
        Copied from the problem, identifying which query it answers.
    """

    speech: Speech
    utility: float
    scaled_utility: float
    algorithm: str
    statistics: SummarizerStatistics = field(default_factory=SummarizerStatistics)
    problem_label: str = ""


class Summarizer(abc.ABC):
    """Base class for all summarization algorithms."""

    #: Short name used in experiment reports (e.g. "E", "G-B", "G-O").
    name: str = "abstract"

    #: Whether repeated ``summarize`` calls are independent of call
    #: order (no mutable state carried across problems).  Parallel
    #: pre-processing relies on this: only deterministic summarizers
    #: can be sharded across workers with output identical to a serial
    #: run.  Algorithms drawing from a shared RNG stream must set this
    #: to False.
    deterministic: bool = True

    @abc.abstractmethod
    def _solve(self, problem: SummarizationProblem) -> tuple[Speech, SummarizerStatistics]:
        """Select a speech for ``problem``; return it plus work counters."""

    def _solve_scored(
        self, problem: SummarizationProblem
    ) -> tuple[Speech, SummarizerStatistics, tuple[float, float] | None]:
        """:meth:`_solve`, plus ``(U(speech), D(∅))`` when the algorithm already holds them.

        The default holds neither (None): :meth:`summarize` then
        evaluates the speech.
        """
        speech, stats = self._solve(problem)
        return speech, stats, None

    def summarize(self, problem: SummarizationProblem) -> SummaryResult:
        """Solve ``problem`` and package the result.

        Timing and final utility evaluation are handled here so all
        algorithms report comparable numbers.
        """
        start = time.perf_counter()
        speech, stats, scores = self._solve_scored(problem)
        stats.elapsed_seconds = time.perf_counter() - start

        if scores is None:
            evaluator = problem.evaluator()
            scores = evaluator.utility(speech), evaluator.prior_deviation()
        utility, prior = scores
        # UtilityEvaluator.scaled_utility, without computing the deviation again.
        scaled = 1.0 if prior == 0.0 else utility / prior
        return SummaryResult(
            speech=speech,
            utility=utility,
            scaled_utility=scaled,
            algorithm=self.name,
            statistics=stats,
            problem_label=problem.label,
        )
