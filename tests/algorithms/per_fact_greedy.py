"""Test-only oracle: Algorithm 2 with one gain evaluation per candidate fact.

:class:`PerFactGreedySummarizer` is G-B as it stood before candidate
gains were evaluated in one :class:`repro.core.kernel.FactScopeIndex`
pass per iteration.  It loops over the remaining facts and calls
:func:`incremental_gain` on each, so it must select the same speech with
the same statistics as :class:`repro.algorithms.greedy.GreedySummarizer`.
It is a summarizer of its own, not a subclass of G-B, so nothing of
G-B's loop or of its utility read off the final error leaks into it:
:meth:`Summarizer.summarize` evaluates its speech.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Summarizer, SummarizerStatistics
from repro.core.model import Fact, Speech
from repro.core.problem import SummarizationProblem
from repro.core.utility import ExpectationState, UtilityEvaluator


def incremental_gain(evaluator: UtilityEvaluator, fact: Fact, state: ExpectationState) -> float:
    """Utility gain of adding ``fact`` to the speech captured by ``state``.

    Only meaningful under the closest-relevant-value model, where a new
    fact can only decrease per-row deviation within its scope.
    """
    indices = evaluator.scope_indices(fact.scope)
    if indices.size == 0:
        return 0.0
    truth = evaluator.relation.target_values[indices]
    fact_err = np.abs(fact.value - truth)
    return float(np.maximum(state.error[indices] - fact_err, 0.0).sum())


class PerFactGreedySummarizer(Summarizer):
    """Algorithm 2 with one :func:`incremental_gain` call per candidate."""

    name = "G-B"

    def __init__(self, allow_early_stop: bool = True):
        self._allow_early_stop = allow_early_stop

    def _solve(self, problem: SummarizationProblem) -> tuple[Speech, SummarizerStatistics]:
        evaluator = problem.evaluator()
        stats = SummarizerStatistics()
        state = evaluator.initial_state()

        remaining = list(problem.candidate_facts)
        selected: list[Fact] = []

        for _ in range(problem.max_facts):
            if not remaining:
                break
            best_fact: Fact | None = None
            best_gain = 0.0
            best_pos = -1
            # Algorithm 2, Line 7: utility gain of every candidate fact
            # against the current expectation state.
            for pos, fact in enumerate(remaining):
                gain = incremental_gain(evaluator, fact, state)
                stats.fact_evaluations += 1
                if gain > best_gain or (best_fact is None and gain == best_gain == 0.0 and pos == 0):
                    best_fact = fact
                    best_gain = gain
                    best_pos = pos
            if best_fact is None:
                break
            if best_gain <= 0.0 and self._allow_early_stop and selected:
                break
            # Algorithm 2, Lines 9-11: select the fact and update expectations.
            evaluator.apply_fact(best_fact, state)
            selected.append(best_fact)
            remaining.pop(best_pos)
            stats.speeches_considered += 1

        return Speech(selected), stats
