"""Exhaustive speech summarization with pruning (Algorithm 1, "E").

The exact algorithm enumerates fact combinations iteratively: starting
from single facts, each iteration extends the surviving partial
speeches by one fact.  Two pruning rules keep the enumeration tractable
(Section IV-B):

1. *Permutation pruning* — facts must be appended in non-increasing
   order of single-fact utility (ties broken by candidate index), so
   each fact set is enumerated exactly once.
2. *Bound pruning* — a partial speech is discarded when an upper bound
   on the utility of all of its completions falls below a known lower
   bound ``b`` on the optimal utility (obtained from a cheap heuristic,
   by default the greedy algorithm).

The upper bound follows Lemma 1: after choosing the i-th fact with
single-fact utility ``u_i``, the completed speech's utility is at most
``U_i + (m − i)·u_i`` where ``U_i`` sums single-fact utilities of the
chosen facts (itself an upper bound by submodularity, Lemma 2).  The
pruning test therefore discards an expansion by fact ``f`` when
``S.U + (m − i + 1)·f.u < b``.  (The paper's prose states the remaining
count as ``m − i − 1``; the worked Example 6 uses ``m − i + 1``, which
is the value consistent with Lemma 1, so that is what we implement.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import Summarizer, SummarizerStatistics
from repro.algorithms.greedy import GreedySummarizer
from repro.core.model import Speech
from repro.core.problem import SummarizationProblem


@dataclass
class _PartialSpeech:
    """A partial speech during exhaustive enumeration.

    ``fact_indices`` indexes into the utility-sorted candidate list;
    ``utility_bound`` is the sum of single-fact utilities (an upper
    bound on true utility by submodularity); ``last_utility`` is the
    single-fact utility of the most recently added fact.
    """

    fact_indices: tuple[int, ...]
    utility_bound: float
    last_utility: float


class ExactSummarizer(Summarizer):
    """Algorithm 1: guaranteed optimal speech summaries.

    Parameters
    ----------
    lower_bound_summarizer:
        Heuristic used to obtain the lower bound ``b`` on optimal
        utility; defaults to the greedy algorithm.
    use_bound_pruning:
        Disable to measure the effect of bound pruning (ablation).
        Permutation pruning is structural (facts are enumerated in a
        canonical utility-sorted index order) and cannot be disabled
        without enumerating redundant permutations.
    max_partial_speeches:
        Safety valve: abort with a :class:`RuntimeError` when the number
        of surviving partial speeches exceeds this limit (the paper uses
        a 48-hour timeout instead).
    """

    name = "E"

    def __init__(
        self,
        lower_bound_summarizer: Summarizer | None = None,
        use_bound_pruning: bool = True,
        max_partial_speeches: int | None = 2_000_000,
    ):
        self._lower_bound_summarizer = lower_bound_summarizer or GreedySummarizer()
        self._use_bound_pruning = use_bound_pruning
        self._max_partial = max_partial_speeches

    def _solve(self, problem: SummarizationProblem) -> tuple[Speech, SummarizerStatistics]:
        evaluator = problem.evaluator()
        stats = SummarizerStatistics()

        # Lower bound b on the optimal utility from the heuristic.
        heuristic_result = self._lower_bound_summarizer.summarize(problem)
        lower_bound = heuristic_result.utility
        best_speech = heuristic_result.speech
        best_utility = lower_bound
        stats.fact_evaluations += heuristic_result.statistics.fact_evaluations

        # Sort candidates by decreasing single-fact utility; the sorted
        # order realises the permutation-pruning condition S.UP >= F.U.
        # Utilities come from the batch kernel — one pass over all facts.
        index = problem.index()
        facts = index.facts
        single_utilities = [float(u) for u in evaluator.batch_single_fact_utilities(index)]
        stats.fact_evaluations += len(facts)
        order = sorted(range(len(facts)), key=lambda i: -single_utilities[i])
        sorted_facts = [facts[i] for i in order]
        sorted_utilities = [single_utilities[i] for i in order]

        m = min(problem.max_facts, len(sorted_facts))
        if m == 0:
            return Speech(), stats

        # Line 6: single-fact speeches (their bound equals exact utility).
        frontier = [
            _PartialSpeech((i,), sorted_utilities[i], sorted_utilities[i])
            for i in range(len(sorted_facts))
        ]
        frontier = self._prune(frontier, sorted_utilities, m, 1, lower_bound, stats)
        stats.speeches_considered += len(frontier)

        # Lines 8-11: iterative expansion with pruning.
        for i in range(2, m + 1):
            expanded: list[_PartialSpeech] = []
            for partial in frontier:
                last_index = partial.fact_indices[-1]
                # Candidates appear after the last index in the sorted
                # order; this enforces both the utility ordering and a
                # canonical order among equal-utility facts.
                for j in range(last_index + 1, len(sorted_facts)):
                    expanded.append(
                        _PartialSpeech(
                            partial.fact_indices + (j,),
                            partial.utility_bound + sorted_utilities[j],
                            sorted_utilities[j],
                        )
                    )
            frontier = self._prune(expanded, sorted_utilities, m, i, lower_bound, stats)
            stats.speeches_considered += len(frontier)
            if self._max_partial is not None and len(frontier) > self._max_partial:
                raise RuntimeError(
                    f"exact summarizer exceeded {self._max_partial} partial speeches; "
                    "reduce the candidate fact set or the speech length"
                )
            if not frontier:
                break

        # Lines 13-15: exact utility of the surviving speeches.
        for partial in frontier:
            speech = Speech(sorted_facts[j] for j in partial.fact_indices)
            utility = evaluator.utility(speech)
            stats.fact_evaluations += len(partial.fact_indices)
            if utility > best_utility:
                best_utility = utility
                best_speech = speech
        return best_speech, stats

    def _prune(
        self,
        partials: list[_PartialSpeech],
        sorted_utilities: list[float],
        m: int,
        iteration: int,
        lower_bound: float,
        stats: SummarizerStatistics,
    ) -> list[_PartialSpeech]:
        """Apply the bound-pruning condition to freshly expanded speeches."""
        if not self._use_bound_pruning:
            return partials
        remaining = m - iteration + 1
        survivors: list[_PartialSpeech] = []
        for partial in partials:
            # Upper bound on any completion: already-accumulated bound for
            # the first (iteration - 1) facts plus `remaining` more facts,
            # each worth at most the last fact's single-fact utility.
            previous_bound = partial.utility_bound - partial.last_utility
            completion_bound = previous_bound + remaining * partial.last_utility
            if completion_bound < lower_bound:
                stats.speeches_pruned += 1
                continue
            survivors.append(partial)
        return survivors
