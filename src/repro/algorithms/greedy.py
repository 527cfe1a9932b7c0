"""Greedy speech summarization (Algorithm 2, "G-B").

Starting from the empty speech, the algorithm repeatedly adds the fact
with the largest utility gain, recomputing the per-row user expectation
after every addition.  Because utility is monotone and submodular
(Theorem 1), the result is within a factor (1 − 1/e) of the optimum
(Theorem 3).

Candidate gains are evaluated through the vectorized
:class:`repro.core.kernel.FactScopeIndex` kernel — one NumPy pass per
iteration instead of one gain evaluation per candidate.
:func:`greedy_loop` is that loop; G-O, and G-P under a trivial plan,
run it too (:mod:`repro.algorithms.pruned_greedy`).  It keeps only the
per-row error of the closest relevant value: each step computes every
gain, takes the first maximal one and lowers the error on the chosen
fact's rows.  A chosen fact's gain is zero from then on, so no mask is
needed to keep it from being chosen again while gains are positive.
Under the closest-relevant-value model the final error also gives the
speech's utility (:func:`closest_value_scores`).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Summarizer, SummarizerStatistics
from repro.core.expectation import ClosestRelevantFactModel
from repro.core.model import Speech
from repro.core.problem import SummarizationProblem
from repro.core.utility import UtilityEvaluator


def greedy_loop(
    problem: SummarizationProblem, evaluator: UtilityEvaluator, allow_early_stop: bool = True
) -> tuple[Speech, SummarizerStatistics, np.ndarray]:
    """Algorithm 2 on ``problem``: the speech, its work counters and the final per-row error.

    ``evaluator`` is the problem's; the error is |E(F, r) − v_r| for
    the speech F under the closest-relevant-value model.  Ties for the
    best gain go to the lowest fact id.  Without early stop, once no
    fact gains, the lowest id not yet chosen is taken.
    """
    stats = SummarizerStatistics()
    index = problem.index()
    error = evaluator.initial_error()
    chosen: list[int] = []
    for _ in range(min(problem.max_facts, index.num_facts)):
        # Algorithm 2, Line 7 — all candidate gains in one pass.
        gains = index.batch_gains(error)
        stats.fact_evaluations += index.num_facts - len(chosen)
        # Gains are clipped at zero: argmax is the first maximal gain.
        best = int(gains.argmax())
        if gains[best] <= 0.0 and chosen:
            if allow_early_stop:
                break
            best = min(set(range(index.num_facts)).difference(chosen))
        # Algorithm 2, Lines 9-11: select the fact and update expectations.
        start, stop = index.offsets[best], index.offsets[best + 1]
        rows = index.row_indices[start:stop]
        error[rows] = np.minimum(error[rows], index.fact_errors[start:stop])
        chosen.append(best)
    stats.speeches_considered = len(chosen)
    return Speech([index.facts[i] for i in chosen]), stats, error


def closest_value_scores(
    evaluator: UtilityEvaluator, error: np.ndarray
) -> tuple[float, float] | None:
    """``(U(F), D(∅))`` from a greedy loop's final per-row ``error``; None off the closest model.

    Under the closest-relevant-value model the error is |E(F, r) − v_r|
    for the selected facts, summed in row order as
    :meth:`UtilityEvaluator.deviation` sums it: D(F) needs no second pass.
    """
    if not isinstance(evaluator.expectation_model, ClosestRelevantFactModel):
        return None
    prior = evaluator.prior_deviation()
    return prior - float(error.sum()), prior


class GreedySummarizer(Summarizer):
    """Algorithm 2: greedily add the most useful fact in each iteration.

    Parameters
    ----------
    allow_early_stop:
        When True (default), the loop stops as soon as no remaining fact
        improves utility; the paper's guarantee is unaffected because a
        zero-gain fact cannot increase utility.
    """

    name = "G-B"

    def __init__(self, allow_early_stop: bool = True):
        self._allow_early_stop = allow_early_stop

    def _solve(self, problem: SummarizationProblem) -> tuple[Speech, SummarizerStatistics]:
        speech, stats, _ = self._solve_scored(problem)
        return speech, stats

    def _solve_scored(
        self, problem: SummarizationProblem
    ) -> tuple[Speech, SummarizerStatistics, tuple[float, float] | None]:
        evaluator = problem.evaluator()
        speech, stats, error = greedy_loop(problem, evaluator, self._allow_early_stop)
        return speech, stats, closest_value_scores(evaluator, error)
