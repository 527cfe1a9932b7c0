"""repro — reproduction of "Optimally Summarizing Data by Small Fact Sets
for Concise Answers to Voice Queries" (Trummer & Anderson, ICDE 2021).

The package is organised as follows:

* :mod:`repro.relational` — in-memory relational substrate (tables,
  CSV import, equality selection, table statistics, cost estimates).
* :mod:`repro.core` — the problem model: facts, speeches, priors, user
  expectation models, utility.
* :mod:`repro.facts` — candidate fact enumeration and fact groups.
* :mod:`repro.algorithms` — the summarization algorithms (exact, greedy,
  pruned greedy, cost-optimized greedy) plus baselines.
* :mod:`repro.system` — the end-to-end voice query engine (configuration,
  problem generation, pre-processing, natural-language query mapping,
  speech templates, deployment simulation).
* :mod:`repro.datasets` — synthetic datasets mirroring the paper's four
  evaluation datasets.
* :mod:`repro.userstudy` — simulated crowd-worker studies.
* :mod:`repro.mlbaseline` — the machine-learning summarization baseline.
* :mod:`repro.experiments` — one module per table/figure of the paper.
"""

__version__ = "1.0.0"

from repro.core import (
    Fact,
    Scope,
    Speech,
    SummarizationProblem,
    SummarizationRelation,
    UtilityEvaluator,
)
from repro.algorithms import (
    ExactSummarizer,
    GreedySummarizer,
    OptimizedGreedySummarizer,
    PrunedGreedySummarizer,
    make_summarizer,
)

__all__ = [
    "__version__",
    "Fact",
    "Scope",
    "Speech",
    "SummarizationRelation",
    "SummarizationProblem",
    "UtilityEvaluator",
    "ExactSummarizer",
    "GreedySummarizer",
    "PrunedGreedySummarizer",
    "OptimizedGreedySummarizer",
    "make_summarizer",
]
