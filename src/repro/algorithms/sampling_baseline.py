"""Run-time, sampling-based vocalization baseline (Section VIII-E).

The prior data-vocalization approach the paper compares against
([25], [28]) selects speech facts at *query time* by evaluating
candidate facts on progressively larger row samples.  Because sampling
estimates are imprecise, the baseline reports value *ranges* instead of
point averages, and it can start speaking as soon as the first fact has
been chosen (latency < total processing time).

This module reproduces those observable characteristics:

* facts are chosen greedily from sampled utility estimates, refined
  over several sampling rounds;
* the output consists of :class:`RangeFact` objects carrying a
  confidence interval for the typical value;
* the result records both the first-sentence latency and the total
  processing time, which Figure 10 compares against our pre-processing
  approach.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import Summarizer, SummarizerStatistics
from repro.core.kernel import FactScopeIndex
from repro.core.model import Fact, Scope, Speech
from repro.core.problem import SummarizationProblem


@dataclass(frozen=True)
class RangeFact:
    """A fact whose typical value is reported as a range.

    ``low``/``high`` bound the estimate obtained from sampling;
    ``point`` is the sampled mean.
    """

    scope: Scope
    low: float
    high: float
    point: float
    support: int

    def to_fact(self) -> Fact:
        """Collapse the range to a point fact (for utility evaluation)."""
        return Fact(scope=self.scope, value=self.point, support=self.support)


@dataclass
class SamplingSummary:
    """Full result of the sampling baseline for one query.

    Attributes
    ----------
    range_facts:
        The selected facts with their sampled value ranges.
    first_sentence_latency:
        Seconds until the first fact was available (the system can start
        speaking at this point).
    total_time:
        Seconds until the whole speech was finalised.
    sample_rows:
        Total number of sampled row visits.
    """

    range_facts: list[RangeFact] = field(default_factory=list)
    selected_facts: list[Fact] = field(default_factory=list)
    first_sentence_latency: float = 0.0
    total_time: float = 0.0
    sample_rows: int = 0

    def speech(self) -> Speech:
        """The selected facts as a point-valued speech (sampled means)."""
        return Speech(rf.to_fact() for rf in self.range_facts)

    def candidate_speech(self) -> Speech:
        """The selected candidate facts with their exact typical values.

        Useful for scoring the baseline's fact *selection* under the
        utility model (the ranges it reports cannot be scored directly).
        """
        return Speech(self.selected_facts)

    @property
    def mean_relative_range_width(self) -> float:
        """Average (high − low) / max(|point|, 1) over the reported facts."""
        if not self.range_facts:
            return 0.0
        widths = [
            (rf.high - rf.low) / max(abs(rf.point), 1e-9)
            for rf in self.range_facts
        ]
        return float(sum(widths) / len(widths))


class SamplingBaselineSummarizer(Summarizer):
    """Sampling-based run-time speech construction.

    Parameters
    ----------
    sample_fraction:
        Fraction of the relation sampled per refinement round.
    rounds:
        Number of sampling rounds used to refine value estimates; each
        round enlarges the accumulated sample.
    confidence_width:
        Multiplier of the standard error used for the reported ranges
        (2.0 roughly corresponds to a 95% interval).
    seed:
        Seed for the sampling RNG (deterministic experiments).
    """

    name = "SAMPLING"

    def __init__(
        self,
        sample_fraction: float = 0.1,
        rounds: int = 3,
        confidence_width: float = 2.0,
        seed: int = 7,
    ):
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if rounds < 1:
            raise ValueError("rounds must be at least 1")
        self._sample_fraction = sample_fraction
        self._rounds = rounds
        self._confidence_width = confidence_width
        self._seed = seed

    # ------------------------------------------------------------------
    # Summarizer interface (point-valued speech)
    # ------------------------------------------------------------------
    def _solve(self, problem: SummarizationProblem) -> tuple[Speech, SummarizerStatistics]:
        summary, stats = self._vocalize_with_stats(problem)
        return summary.speech(), stats

    # ------------------------------------------------------------------
    # Full baseline behaviour (ranges + timing)
    # ------------------------------------------------------------------
    def vocalize(self, problem: SummarizationProblem) -> SamplingSummary:
        """Run the baseline and return ranges plus latency measurements."""
        summary, _ = self._vocalize_with_stats(problem)
        return summary

    def _vocalize_with_stats(
        self, problem: SummarizationProblem
    ) -> tuple[SamplingSummary, SummarizerStatistics]:
        start = time.perf_counter()
        stats = SummarizerStatistics()
        summary = SamplingSummary()
        evaluator = problem.evaluator()
        relation = problem.relation
        rng = np.random.default_rng(self._seed)

        n = relation.num_rows
        sample_size = max(1, int(round(self._sample_fraction * n)))
        sampled_indices: np.ndarray = np.empty(0, dtype=int)

        state = evaluator.initial_state()
        index = problem.index()
        facts = index.facts
        active = np.ones(len(facts), dtype=bool)

        for position in range(problem.max_facts):
            # Each fact selection refines the accumulated sample.
            for _ in range(self._rounds):
                fresh = rng.choice(n, size=sample_size, replace=True)
                sampled_indices = np.concatenate([sampled_indices, fresh])
                summary.sample_rows += sample_size

            best_id, best_gain = self._best_fact_on_sample(
                index, state, sampled_indices, active, n, stats
            )
            if best_id is None or (best_gain <= 0.0 and summary.selected_facts):
                break
            best_fact = facts[best_id]
            index.apply_fact(best_id, state)
            # Equal facts (same scope and value) are interchangeable;
            # deactivate them all, mirroring the set-based dedup.
            active[index.copies_of(best_id)] = False
            summary.selected_facts.append(best_fact)
            summary.range_facts.append(
                self._range_fact(relation, best_fact, sampled_indices)
            )
            if position == 0:
                summary.first_sentence_latency = time.perf_counter() - start

        summary.total_time = time.perf_counter() - start
        if not summary.range_facts:
            summary.first_sentence_latency = summary.total_time
        stats.elapsed_seconds = summary.total_time
        return summary, stats

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _best_fact_on_sample(
        self,
        index: FactScopeIndex,
        state,
        sampled_indices: np.ndarray,
        active: np.ndarray,
        num_rows: int,
        stats: SummarizerStatistics,
    ) -> tuple[int | None, float]:
        """Greedy fact choice using gains estimated on the sample only.

        All candidate estimates come from one masked kernel pass; gains
        are scaled from the in-sample scope rows to the full scope.
        """
        row_mask = np.zeros(num_rows, dtype=bool)
        row_mask[sampled_indices] = True
        gains, counts = index.sampled_gains(state.error, row_mask)

        evaluable = active & (index.supports > 0)
        stats.fact_evaluations += int(evaluable.sum())
        evaluable &= counts > 0
        if not evaluable.any():
            return None, 0.0
        # Scale the sampled gain up to the full relation, with the ratio
        # computed first — the same rounding order as the historical
        # per-fact loop.  (Sampled gains themselves are summed by the
        # kernel's bincount, whose accumulation order can still flip
        # exact ties against the pre-vectorized implementation; sampled
        # estimates carry no ordering guarantee on ties.)
        scaled = np.full(index.num_facts, -np.inf)
        scaled[evaluable] = gains[evaluable] * (
            index.supports[evaluable] / counts[evaluable]
        )
        best_id = int(np.argmax(scaled))
        return best_id, float(scaled[best_id])

    def _range_fact(self, relation, fact: Fact, sampled_indices: np.ndarray) -> RangeFact:
        """Build the reported value range from the sampled rows in scope."""
        scope_rows = relation.scope_row_indices(fact.scope)
        in_sample = np.intersect1d(scope_rows, sampled_indices)
        if in_sample.size == 0:
            in_sample = scope_rows
        values = relation.target_values[in_sample]
        mean = float(values.mean())
        if values.size > 1:
            stderr = float(values.std(ddof=1) / np.sqrt(values.size))
        else:
            stderr = 0.0
        width = self._confidence_width * stderr
        return RangeFact(
            scope=fact.scope,
            low=mean - width,
            high=mean + width,
            point=mean,
            support=int(scope_rows.size),
        )
