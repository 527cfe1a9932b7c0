"""Greedy speech summarization (Algorithm 2, "G-B").

Starting from the empty speech, the algorithm repeatedly adds the fact
with the largest utility gain, recomputing the per-row user expectation
after every addition.  Because utility is monotone and submodular
(Theorem 1), the result is within a factor (1 − 1/e) of the optimum
(Theorem 3).

Candidate gains are evaluated through the vectorized
:class:`repro.core.kernel.FactScopeIndex` kernel — one NumPy pass per
iteration instead of one ``incremental_gain`` call per candidate.
:class:`PerFactGreedySummarizer` keeps the per-fact loop as the parity
oracle and benchmark baseline.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Summarizer, SummarizerStatistics
from repro.core.model import Fact, Speech
from repro.core.problem import SummarizationProblem


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
        evaluator = problem.evaluator()
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
            if best_gain <= 0.0 and self._allow_early_stop and selected:
                break
            # Algorithm 2, Lines 9-11: select the fact and update expectations.
            index.apply_fact(best, state)
            selected.append(facts[best])
            active[best] = False
            stats.speeches_considered += 1

        return Speech(selected), stats


class PerFactGreedySummarizer(GreedySummarizer):
    """Algorithm 2 with one ``incremental_gain`` call per candidate.

    The parity oracle for :class:`GreedySummarizer`'s kernel path and
    the baseline of ``benchmarks/bench_optimizer_kernels.py``: it
    selects the same speech with the same statistics.
    """

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
                gain = evaluator.incremental_gain(fact, state)
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
