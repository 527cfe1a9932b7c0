"""Benchmark: vectorized optimizer kernel vs. the per-fact greedy oracle.

Builds a synthetic summarization problem (default: 10k rows, ~1.2k
candidate facts over four dimensions) and times

* greedy summarization via :class:`PerFactGreedySummarizer` (the seed
  implementation: one ``incremental_gain`` call per candidate per
  iteration),
* greedy summarization via the batch :class:`FactScopeIndex` kernel,
* lazy greedy ("G-L", stale-bound heap) on the same problem.

Results are emitted as JSON (stdout, and optionally a file) including
the speedup factors and a check that all greedy variants selected the
identical speech — the kernel is an execution strategy, not a model
change.

Usage::

    python benchmarks/bench_optimizer_kernels.py            # full size
    python benchmarks/bench_optimizer_kernels.py --quick    # CI smoke
    python benchmarks/bench_optimizer_kernels.py --output results.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.algorithms.greedy import GreedySummarizer, PerFactGreedySummarizer  # noqa: E402
from repro.algorithms.lazy_greedy import LazyGreedySummarizer  # noqa: E402
from repro.core.model import SummarizationRelation  # noqa: E402
from repro.core.problem import SummarizationProblem  # noqa: E402
from repro.facts.generation import FactGenerator  # noqa: E402
from repro.relational.column import Column  # noqa: E402
from repro.relational.table import Table  # noqa: E402


def build_problem(
    num_rows: int, values_per_dimension: int, max_facts: int, seed: int = 17
) -> SummarizationProblem:
    """A synthetic problem with four dimensions and a continuous target."""
    rng = np.random.default_rng(seed)
    dimensions = ["d1", "d2", "d3", "d4"]
    columns = [
        Column.categorical(
            dim,
            [f"{dim}_v{v}" for v in rng.integers(0, values_per_dimension, size=num_rows)],
        )
        for dim in dimensions
    ]
    columns.append(Column.numeric("target", rng.normal(100.0, 25.0, size=num_rows)))
    table = Table("kernel_bench", columns)
    relation = SummarizationRelation(table, dimensions, "target")
    facts = FactGenerator(relation, max_extra_dimensions=2).generate().facts
    return SummarizationProblem(
        relation=relation, candidate_facts=facts, max_facts=max_facts
    )


def time_summarizer(summarizer, problem, repeats: int) -> tuple[float, object, object]:
    """Best-of-``repeats`` wall time, plus the last result's speech/stats."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = summarizer.summarize(problem)
        best = min(best, time.perf_counter() - start)
    return best, result.speech, result.statistics


def run(num_rows: int, values_per_dimension: int, max_facts: int, repeats: int) -> dict:
    problem = build_problem(num_rows, values_per_dimension, max_facts)

    reference_seconds, reference_speech, reference_stats = time_summarizer(
        PerFactGreedySummarizer(), problem, repeats
    )
    kernel_seconds, kernel_speech, kernel_stats = time_summarizer(
        GreedySummarizer(), problem, repeats
    )
    lazy_seconds, lazy_speech, lazy_stats = time_summarizer(
        LazyGreedySummarizer(), problem, repeats
    )

    return {
        "problem": {
            "rows": problem.num_rows,
            "candidate_facts": problem.num_candidates,
            "max_facts": problem.max_facts,
        },
        "greedy_reference": {
            "seconds": reference_seconds,
            "fact_evaluations": reference_stats.fact_evaluations,
        },
        "greedy_kernel": {
            "seconds": kernel_seconds,
            "fact_evaluations": kernel_stats.fact_evaluations,
            "speedup_vs_reference": reference_seconds / kernel_seconds,
        },
        "lazy_greedy": {
            "seconds": lazy_seconds,
            "fact_evaluations": lazy_stats.fact_evaluations,
            "speedup_vs_reference": reference_seconds / lazy_seconds,
        },
        "speeches_identical": bool(
            kernel_speech == reference_speech and lazy_speech == reference_speech
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=10_000)
    parser.add_argument(
        "--values-per-dimension", type=int, default=14,
        help="domain size per dimension (4 dims; 14 yields ~1.2k candidates)",
    )
    parser.add_argument("--max-facts", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny problem for CI smoke runs (500 rows, 5 values/dim, 1 repeat)",
    )
    parser.add_argument("--output", default=None, help="also write the JSON to a file")
    args = parser.parse_args(argv)

    if args.quick:
        report = run(num_rows=500, values_per_dimension=5, max_facts=3, repeats=1)
    else:
        report = run(
            num_rows=args.rows,
            values_per_dimension=args.values_per_dimension,
            max_facts=args.max_facts,
            repeats=args.repeats,
        )

    text = json.dumps(report, indent=2)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")

    if not report["speeches_identical"]:
        print("ERROR: kernel/lazy speeches differ from the reference path", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
