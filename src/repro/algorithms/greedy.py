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
run it too (:mod:`repro.algorithms.pruned_greedy`).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Summarizer, SummarizerStatistics
from repro.core.model import Fact, Speech
from repro.core.problem import SummarizationProblem
from repro.core.utility import ExpectationState, UtilityEvaluator


def greedy_loop(
    problem: SummarizationProblem, evaluator: UtilityEvaluator, allow_early_stop: bool = True
) -> tuple[Speech, SummarizerStatistics, ExpectationState]:
    """Algorithm 2 on ``problem``: the speech, its work counters and the final state.

    ``evaluator`` is the problem's; the state holds the speech's
    expectations and errors.  Ties for the best gain go to the lowest
    fact id.
    """
    stats = SummarizerStatistics()
    state = evaluator.initial_state()

    index = problem.index()
    facts = index.facts
    active = np.ones(len(facts), dtype=bool)
    selected: list[Fact] = []

    for _ in range(problem.max_facts):
        if not active.any():
            break
        # Algorithm 2, Line 7 — all candidate gains in one pass.
        gains = evaluator.batch_incremental_gains(index, state)
        stats.fact_evaluations += int(active.sum())
        gains[~active] = -np.inf
        # Gains are clipped at zero, so argmax replicates the
        # per-fact loop exactly: first index among maximal gains,
        # falling back to the first remaining fact when all are zero.
        best = int(np.argmax(gains))
        best_gain = float(gains[best])
        if best_gain <= 0.0 and allow_early_stop and selected:
            break
        # Algorithm 2, Lines 9-11: select the fact and update expectations.
        index.apply_fact(best, state)
        selected.append(facts[best])
        active[best] = False
        stats.speeches_considered += 1

    return Speech(selected), stats, state


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
        speech, stats, _ = greedy_loop(problem, problem.evaluator(), self._allow_early_stop)
        return speech, stats
