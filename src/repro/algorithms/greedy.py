"""Greedy speech summarization (Algorithm 2, "G-B").

Starting from the empty speech, the algorithm repeatedly adds the fact
with the largest utility gain, recomputing the per-row user expectation
after every addition.  Because utility is monotone and submodular
(Theorem 1), the result is within a factor (1 − 1/e) of the optimum
(Theorem 3).

Candidate gains are evaluated through the vectorized kernel of
:mod:`repro.core.kernel` — one NumPy pass per iteration instead of one
gain evaluation per candidate.  :func:`greedy_loop` is that loop, over
the problems of several disjoint scopes at once
(:class:`~repro.core.kernel.ScopeSegments`): the scopes of a walked
dimension combination over one target (a
:class:`~repro.core.kernel.ScopeBatch`), or one problem's own index as
a batch of one (:func:`solve_alone`).  G-O, and G-P under a trivial
plan, run it too (:mod:`repro.algorithms.pruned_greedy`).  It keeps
only the per-row error of the closest relevant value: each step
computes the gain of every fact in one pass, takes the first maximal
gain of each scope still selecting and lowers the error on the chosen
facts' rows, which lie in their own scopes.  A chosen fact's gain is
zero from then on, so no mask is needed to keep it from being chosen
again while gains are positive.  Under the closest-relevant-value
model each scope's final error also gives its speech's utility
(:func:`closest_value_scores`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.algorithms.base import Summarizer, SummarizerStatistics
from repro.core.expectation import ClosestRelevantFactModel, ExpectationModel
from repro.core.kernel import ScopeSegments, clipped_sums, segment_sums
from repro.core.model import Speech
from repro.core.problem import SummarizationProblem


class GreedySolution(NamedTuple):
    """What :func:`greedy_loop` selected for each scope of its segments.

    ``chosen[s]`` lists scope ``s``'s selected facts in order, by their
    id within the scope, and ``values[s]`` their values; ``counts[s]``
    is its number of facts.  ``stopped`` holds the scopes that stopped
    early, and ``deviations[s]`` and ``priors[s]`` are scope ``s``'s
    D(F) and D(∅) under the closest-relevant-value model, each the sum
    of its rows' errors in row order.  All are plain lists: a batch
    keeps them until its walk ends.
    """

    chosen: list[list[int]]
    values: list[list[float]]
    counts: list[int]
    stopped: set[int]
    deviations: list[float]
    priors: list[float]

    def evaluations(self, slot: int) -> int:
        """Scope ``slot``'s fact evaluations.

        Each gain pass evaluated the scope's facts not yet chosen; a
        scope that stopped early made one more pass than it selected
        facts.
        """
        passes = len(self.chosen[slot]) + (slot in self.stopped)
        return passes * self.counts[slot] - passes * (passes - 1) // 2


def greedy_loop(
    segments: ScopeSegments, max_facts: int, allow_early_stop: bool = True
) -> GreedySolution:
    """Algorithm 2 on every scope of ``segments`` at once.

    Each scope selects at most ``max_facts`` of its facts, as the loop
    run on its problem alone would: ties for the best gain go to its
    lowest fact id; with early stop it stops at the first step on which
    no fact gains, and without, it takes its lowest fact id not yet
    chosen.  ``segments.error`` is lowered in place.
    """
    fact_starts, row_counts, offsets, rows, fact_ids, fact_errors, values, error = segments
    counts = fact_starts[1:] - fact_starts[:-1]
    caps = np.minimum(counts, max_facts)
    num_facts = int(fact_starts[-1])
    firsts = _Firsts(fact_starts, counts)
    priors = segment_sums(error, row_counts).tolist()
    chosen: list[list[int]] = [[] for _ in range(counts.size)]
    stopped: set[int] = set()
    taken = None if allow_early_stop else np.zeros(num_facts, dtype=bool)
    # The steps at which some scope has selected all the facts it may.
    filled = set(caps.tolist())
    live = caps.nonzero()[0]
    for step in range(max(filled, default=0)):
        if step in filled:
            live = live[caps[live] > step]
        if not live.size:
            break
        # Algorithm 2, Line 7 — all candidate gains in one pass.  The
        # gains of scopes that are done go unread: cutting their entries
        # out would copy more than it saves.
        gains = clipped_sums(fact_ids, rows, fact_errors, error, num_facts)
        best = firsts.maximum(gains, live)
        if step and np.count_nonzero(gains[best]) < best.size:
            # Gains are clipped at zero: these scopes gain nothing more.
            stalled = gains[best] <= 0.0
            if taken is None:
                stopped.update(live[stalled].tolist())
                live, best = live[~stalled], best[~stalled]
                if not live.size:
                    break
            else:
                best[stalled] = firsts.where(~taken, live[stalled])
        # Algorithm 2, Lines 9-11: select the facts and update expectations.
        entries = _entries(offsets, best)
        hit = rows[entries]
        error[hit] = np.minimum(error[hit], fact_errors[entries])
        for scope, fact in zip(live.tolist(), best.tolist()):
            chosen[scope].append(fact)
        if taken is not None:
            taken[best] = True
    starts = fact_starts.tolist()
    return GreedySolution(
        [[fact - start for fact in facts] for facts, start in zip(chosen, starts)],
        [[values.item(fact) for fact in facts] for facts in chosen],
        counts.tolist(),
        stopped,
        segment_sums(error, row_counts).tolist(),
        priors,
    )


class _Firsts:
    """Each scope's first fact that meets a condition, for facts laid out scope by scope."""

    __slots__ = ("_one", "_heads", "_rank", "_group", "_ids")

    def __init__(self, fact_starts: np.ndarray, counts: np.ndarray):
        self._one = counts.size == 1
        if not self._one:
            # Scopes without facts own no fact: reduce over the others.
            nonempty = counts > 0
            self._heads = fact_starts[:-1][nonempty]
            self._rank = np.cumsum(nonempty) - 1
            self._group = np.repeat(np.arange(self._heads.size), counts[nonempty])
            self._ids = np.arange(int(fact_starts[-1]))

    def where(self, mask: np.ndarray, scopes: np.ndarray) -> np.ndarray:
        """The first fact where ``mask`` holds of each of ``scopes`` (each has one)."""
        if self._one:
            return mask.argmax(keepdims=True)
        ids = np.where(mask, self._ids, self._ids.size)
        return np.minimum.reduceat(ids, self._heads)[self._rank[scopes]]

    def maximum(self, gains: np.ndarray, scopes: np.ndarray) -> np.ndarray:
        """The first fact of maximal gain of each of ``scopes``."""
        if self._one:
            return gains.argmax(keepdims=True)
        maxima = np.maximum.reduceat(gains, self._heads)
        return self.where(gains == maxima[self._group], scopes)


def _entries(offsets: np.ndarray, facts: np.ndarray) -> np.ndarray | slice:
    """The flat entries of ``facts``, fact by fact (a slice for one fact)."""
    if facts.size == 1:
        fact = facts.item()
        return slice(offsets[fact], offsets[fact + 1])
    starts = offsets[facts]
    sizes = offsets[facts + 1] - starts
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)


def closest_value_scores(
    model: ExpectationModel, prior: float, deviation: float
) -> tuple[float, float] | None:
    """``(U(F), D(∅))`` from D(F) and D(∅) under ``model``; None off the closest model.

    A greedy loop's final per-row error is |E(F, r) − v_r| under the
    closest-relevant-value model only, so only there does its sum,
    in row order as :meth:`UtilityEvaluator.deviation` sums it, give
    D(F) without a second pass.
    """
    if not isinstance(model, ClosestRelevantFactModel):
        return None
    return prior - deviation, prior


def solve(
    problem: SummarizationProblem, allow_early_stop: bool = True
) -> tuple[Speech, SummarizerStatistics, tuple[float, float] | None]:
    """Algorithm 2 on ``problem``: its speech, work counters and ``(U(F), D(∅))``.

    A member of a batch (:attr:`SummarizationProblem.batch`) reads its
    result off the batch's one loop, made by its first member to be
    solved; any other problem is a batch of one (:func:`solve_alone`).
    """
    if problem.batch is None:
        return solve_alone(problem, allow_early_stop)
    batch, slot = problem.batch
    max_facts = problem.max_facts
    solution = batch.solved(
        (max_facts, allow_early_stop),
        lambda segments: greedy_loop(segments, max_facts, allow_early_stop),
    )
    facts = problem.candidate_facts
    speech = Speech(map(facts.fact, solution.chosen[slot], solution.values[slot]))
    return _result(problem, solution, slot, speech)


def solve_alone(
    problem: SummarizationProblem, allow_early_stop: bool = True
) -> tuple[Speech, SummarizerStatistics, tuple[float, float] | None]:
    """:func:`solve` with ``problem`` as a batch of one, over its own index."""
    index = problem.index()
    error = problem.evaluator().initial_error()
    solution = greedy_loop(index.segments(error), problem.max_facts, allow_early_stop)
    speech = Speech(map(index.facts.__getitem__, solution.chosen[0]))
    return _result(problem, solution, 0, speech)


def _result(
    problem: SummarizationProblem, solution: GreedySolution, slot: int, speech: Speech
) -> tuple[Speech, SummarizerStatistics, tuple[float, float] | None]:
    """``problem``'s speech, work counters and scores: scope ``slot`` of ``solution``."""
    stats = SummarizerStatistics(
        fact_evaluations=solution.evaluations(slot),
        speeches_considered=len(solution.chosen[slot]),
    )
    scores = closest_value_scores(
        problem.expectation_model, solution.priors[slot], solution.deviations[slot]
    )
    return speech, stats, scores


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
        return solve(problem, self._allow_early_stop)
