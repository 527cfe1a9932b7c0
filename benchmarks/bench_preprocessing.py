"""Benchmark: pre-processing pipeline — serial vs. pool, fact generation.

Builds a synthetic dataset and times the full pre-processing batch
(problem generation + summarization + speech realization for every
enumerated query)

* serially (no pool: the same chunk stream, solved in process),
* on a :class:`WorkerPool` for each requested worker count,

verifying that every parallel run produces a store byte-identical to
the serial one (via the persistence serialisation).  It also times
candidate-fact generation with the vectorized group enumeration
against the per-row Python oracle (``PerRowFactGenerator``) on the
same relation.

Results are emitted as JSON (stdout, and optionally a file).

Usage::

    python benchmarks/bench_preprocessing.py             # full size
    python benchmarks/bench_preprocessing.py --quick     # CI smoke
    python benchmarks/bench_preprocessing.py --workers 2 4 8
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.model import SummarizationRelation  # noqa: E402
from repro.facts.generation import FactGenerator, PerRowFactGenerator  # noqa: E402
from repro.relational.column import Column  # noqa: E402
from repro.relational.table import Table  # noqa: E402
from repro.system.config import SummarizationConfig  # noqa: E402
from repro.system.persistence import store_to_dict  # noqa: E402
from repro.system.preprocessor import Preprocessor  # noqa: E402
from repro.system.problem_generator import ProblemGenerator  # noqa: E402
from repro.system.worker_pool import WorkerPool  # noqa: E402

DIMENSIONS = ["d1", "d2", "d3"]


def build_table(num_rows: int, values_per_dimension: int, seed: int = 23) -> Table:
    """A synthetic relation with three dimensions and a continuous target."""
    rng = np.random.default_rng(seed)
    columns = [
        Column.categorical(
            dim,
            [f"{dim}_v{v}" for v in rng.integers(0, values_per_dimension, size=num_rows)],
        )
        for dim in DIMENSIONS
    ]
    columns.append(Column.numeric("target", rng.normal(100.0, 25.0, size=num_rows)))
    return Table("preprocessing_bench", columns)


def bench_pipeline(
    config: SummarizationConfig, table: Table, worker_counts: list[int]
) -> dict:
    """Serial vs. pool wall-clock for the whole pre-processing batch."""
    serial_generator = ProblemGenerator(config, table)
    preprocessor = Preprocessor(config)
    store, report = preprocessor.run(serial_generator)
    serial_payload = json.dumps(store_to_dict(store), sort_keys=True)

    out = {
        "queries_considered": report.queries_considered,
        "speeches_generated": report.speeches_generated,
        "serial_seconds": report.total_seconds,
        "parallel": [],
    }
    for workers in worker_counts:
        generator = ProblemGenerator(config, table)
        with WorkerPool(workers) as pool:
            parallel_store, parallel_report = preprocessor.run(generator, pool=pool)
        payload = json.dumps(store_to_dict(parallel_store), sort_keys=True)
        out["parallel"].append(
            {
                "workers": workers,
                "seconds": parallel_report.total_seconds,
                "speedup_vs_serial": report.total_seconds / parallel_report.total_seconds,
                "store_identical_to_serial": payload == serial_payload,
            }
        )
    return out


def bench_fact_generation(table: Table, repeats: int) -> dict:
    """Vectorized vs. per-row oracle candidate-fact enumeration."""
    relation = SummarizationRelation(table, DIMENSIONS, "target")
    timings = {}
    for label, generator_class in (
        ("vectorized", FactGenerator),
        ("reference", PerRowFactGenerator),
    ):
        generator = generator_class(relation, max_extra_dimensions=2)
        best = float("inf")
        count = 0
        # First run warms the relation's shared grouping caches so both
        # paths are timed on equal footing.
        for _ in range(repeats + 1):
            start = time.perf_counter()
            count = generator.generate().count
            best = min(best, time.perf_counter() - start)
        timings[label] = {"seconds": best, "facts": count}
    timings["speedup"] = timings["reference"]["seconds"] / timings["vectorized"]["seconds"]
    return timings


def run(num_rows: int, values_per_dimension: int, worker_counts: list[int], repeats: int) -> dict:
    table = build_table(num_rows, values_per_dimension)
    config = SummarizationConfig.create(
        table="preprocessing_bench",
        dimensions=DIMENSIONS,
        targets=("target",),
        max_query_length=1,
        max_facts_per_speech=3,
        max_fact_dimensions=2,
        algorithm="G-B",
    )
    return {
        "problem": {
            "rows": num_rows,
            "values_per_dimension": values_per_dimension,
            "dimensions": len(DIMENSIONS),
            "cpu_count": os.cpu_count(),
        },
        "pipeline": bench_pipeline(config, table, worker_counts),
        "fact_generation": bench_fact_generation(table, repeats),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument(
        "--values-per-dimension", type=int, default=12,
        help="domain size per dimension (3 dims)",
    )
    parser.add_argument(
        "--workers", type=int, nargs="*", default=[2, 4], help="pool sizes to time"
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny problem for CI smoke runs (800 rows, 4 values/dim, workers=2)",
    )
    parser.add_argument("--output", default=None, help="also write the JSON to a file")
    args = parser.parse_args(argv)

    if args.quick:
        report = run(num_rows=800, values_per_dimension=4, worker_counts=[2], repeats=1)
    else:
        report = run(
            num_rows=args.rows,
            values_per_dimension=args.values_per_dimension,
            worker_counts=args.workers,
            repeats=args.repeats,
        )

    text = json.dumps(report, indent=2)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")

    if not all(p["store_identical_to_serial"] for p in report["pipeline"]["parallel"]):
        print("ERROR: parallel store differs from the serial store", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
