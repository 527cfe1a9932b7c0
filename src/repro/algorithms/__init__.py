"""Speech summarization algorithms.

This package contains the paper's primary contribution:

* :class:`ExactSummarizer` — Algorithm 1, guaranteed optimal speeches
  with permutation and bound-based pruning.
* :class:`GreedySummarizer` — Algorithm 2, the (1 − 1/e) approximation
  ("G-B" in the evaluation).
* :class:`PrunedGreedySummarizer` — Algorithm 3 with a fixed, naive
  pruning plan ("G-P").
* :class:`OptimizedGreedySummarizer` — Algorithm 3 + 4 with the
  cost-based pruning optimizer of Section VI-C/D ("G-O"); priced by the
  one-pass gain kernel, its plan is the trivial one, so it runs G-B's loop.
* :class:`SamplingBaselineSummarizer` — the prior-work, run-time
  sampling baseline compared against in Section VIII-E.
* :class:`RandomSummarizer` — random fact selection, used to produce
  the speech pool for the user studies.
"""

from repro.algorithms.base import SummaryResult, Summarizer, SummarizerStatistics
from repro.algorithms.greedy import GreedySummarizer
from repro.algorithms.exact import ExactSummarizer
from repro.algorithms.pruning import FactGroupPruner, PruningPlan
from repro.algorithms.cost_model import LatticeCosts, lattice_costs
from repro.algorithms.plan_optimizer import choose_plan, naive_plan
from repro.algorithms.pruned_greedy import OptimizedGreedySummarizer, PrunedGreedySummarizer
from repro.algorithms.sampling_baseline import SamplingBaselineSummarizer, RangeFact
from repro.algorithms.random_baseline import RandomSummarizer
from repro.algorithms.registry import available_summarizers, make_summarizer

__all__ = [
    "Summarizer",
    "SummaryResult",
    "SummarizerStatistics",
    "GreedySummarizer",
    "ExactSummarizer",
    "FactGroupPruner",
    "PruningPlan",
    "LatticeCosts",
    "lattice_costs",
    "choose_plan",
    "naive_plan",
    "PrunedGreedySummarizer",
    "OptimizedGreedySummarizer",
    "SamplingBaselineSummarizer",
    "RangeFact",
    "RandomSummarizer",
    "available_summarizers",
    "make_summarizer",
]
