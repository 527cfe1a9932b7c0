"""Lazy greedy speech summarization ("G-L", CELF-style).

The greedy loop of Algorithm 2 re-evaluates *every* candidate fact in
every iteration even though most gains barely change.  Because utility
is submodular under the closest-relevant-value model (Theorem 1), a
fact's gain can only shrink as the speech grows: applying a fact only
ever lowers per-row deviation, and the gain

    gain(f, state) = Σ_r max(error_r − |f.value − v_r|, 0)

is monotone in the ``error`` vector.  A gain computed against an older
(larger-error) state is therefore a valid *upper bound* on the current
gain.  The lazy variant (Minoux 1978; popularised as CELF by Leskovec
et al. for influence maximization) keeps candidates in a max-heap keyed
by such stale bounds and re-evaluates only the top entry: when a freshly
re-evaluated fact stays on top of the heap, it must be the true argmax —
every other candidate's true gain is below its own (stale) bound, which
is below the top.  Selections are identical to eager greedy (ties are
broken by candidate index in both), typically at a small fraction of the
gain evaluations.
"""

from __future__ import annotations

import heapq

from repro.algorithms.base import Summarizer, SummarizerStatistics
from repro.core.model import Fact, Speech
from repro.core.problem import SummarizationProblem


class LazyGreedySummarizer(Summarizer):
    """Algorithm 2 with lazy (stale-bound) candidate evaluation.

    Parameters
    ----------
    allow_early_stop:
        When True (default), stop as soon as the best available gain is
        zero (after at least one fact was selected), matching
        :class:`~repro.algorithms.greedy.GreedySummarizer`.
    """

    name = "G-L"

    def __init__(self, allow_early_stop: bool = True):
        self._allow_early_stop = allow_early_stop

    def _solve(self, problem: SummarizationProblem) -> tuple[Speech, SummarizerStatistics]:
        evaluator = problem.evaluator()
        stats = SummarizerStatistics()
        state = evaluator.initial_state()

        index = problem.index()
        facts = index.facts

        # Round 0: exact gains for everyone, in one batch pass.
        gains = evaluator.batch_incremental_gains(index, state)
        stats.fact_evaluations += len(facts)
        # Heap entries (−gain, fact_id): ties pop the smallest id first,
        # matching the eager loop's first-maximum tie-breaking.
        heap: list[tuple[float, int]] = [(-float(g), i) for i, g in enumerate(gains)]
        heapq.heapify(heap)
        fresh_round = [0] * len(facts)

        selected: list[Fact] = []
        while heap and len(selected) < problem.max_facts:
            current_round = len(selected)
            neg_bound, fact_id = heapq.heappop(heap)
            if fresh_round[fact_id] == current_round:
                # Bound is exact for the current state: this is the argmax.
                best_gain = -neg_bound
                if best_gain <= 0.0 and self._allow_early_stop and selected:
                    break
                index.apply_fact(fact_id, state)
                selected.append(facts[fact_id])
                stats.speeches_considered += 1
                continue
            # Stale bound: re-evaluate just this fact and reinsert.
            gain = index.gain_of(fact_id, state.error)
            stats.fact_evaluations += 1
            fresh_round[fact_id] = current_round
            heapq.heappush(heap, (-gain, fact_id))

        return Speech(selected), stats
