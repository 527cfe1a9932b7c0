"""Benchmark: incremental maintenance — discovery, rebuild, pool reuse.

Simulates the ROADMAP serving scenario: a pre-processed speech store
kept in sync with an append-only table.  Three sections:

* ``discovery`` — affected-query detection for one update batch, the
  seed's per-(query, row) ``contains_row`` scan (reimplemented here as
  the reference) against the path now in ``repro.system.updates``,
  which builds the affected queries from the new rows' value tuples;
  both must find the identical query list.
* ``maintenance`` — one full maintenance pass three ways: legacy
  (reference discovery + serial rebuild), the current serial path, and
  the worker-pool path per requested worker count.  Every variant must
  produce byte-identical stores and equal report counts.
* ``pool_reuse`` — a sequence of maintenance passes run once with a
  fresh pool forked per pass and once on a single persistent
  :class:`WorkerPool`; the amortisation ratio is the fresh total over
  the persistent total, and the spawn counters show the fork saving.

Results are emitted as JSON (stdout, and optionally a file).

Usage::

    python benchmarks/bench_incremental.py             # full size
    python benchmarks/bench_incremental.py --quick     # CI smoke
    python benchmarks/bench_incremental.py --workers 2 4
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

from repro.relational.column import Column  # noqa: E402
from repro.relational.table import Table  # noqa: E402
from repro.system.config import SummarizationConfig  # noqa: E402
from repro.system.persistence import store_from_dict, store_to_dict  # noqa: E402
from repro.system.preprocessor import Preprocessor  # noqa: E402
from repro.system.problem_generator import ProblemGenerator  # noqa: E402
from repro.system.updates import IncrementalMaintainer  # noqa: E402
from repro.system.worker_pool import WorkerPool  # noqa: E402

DIMENSIONS = ["d1", "d2", "d3"]


def build_rows(num_rows: int, values_per_dimension: int, seed: int) -> list[tuple]:
    rng = np.random.default_rng(seed)
    dims = [
        [f"{dim}_v{v}" for v in rng.integers(0, values_per_dimension, size=num_rows)]
        for dim in DIMENSIONS
    ]
    target = rng.normal(100.0, 25.0, size=num_rows)
    return list(zip(*dims, (float(v) for v in target)))


def make_table(rows: list[tuple]) -> Table:
    columns = [
        Column.categorical(dim, [row[i] for row in rows])
        for i, dim in enumerate(DIMENSIONS)
    ]
    columns.append(Column.numeric("target", [row[-1] for row in rows]))
    return Table("incremental_bench", columns)


def reference_affected_queries(
    config: SummarizationConfig, table: Table, new_rows: Table
):
    """The seed's discovery loop: every query probes every new row."""
    updated = table.concat(new_rows)
    generator = ProblemGenerator(config, updated)
    new_row_dicts = list(new_rows.iter_rows())
    affected = []
    for query in generator.enumerate_queries():
        scope = query.scope()
        if any(scope.contains_row(row) for row in new_row_dicts):
            affected.append(query)
    return affected


def copy_store(store):
    return store_from_dict(store_to_dict(store))[0]


def store_payload(store) -> str:
    return json.dumps(store_to_dict(store), sort_keys=True)


def bench_discovery(
    config: SummarizationConfig, base: Table, batch: Table, repeats: int
) -> dict:
    maintainer = IncrementalMaintainer(config, base)
    reference_best = float("inf")
    fast_best = float("inf")
    reference = fast = None
    for _ in range(repeats):
        start = time.perf_counter()
        reference = reference_affected_queries(config, base, batch)
        reference_best = min(reference_best, time.perf_counter() - start)
        start = time.perf_counter()
        fast = maintainer.affected_queries(batch)
        fast_best = min(fast_best, time.perf_counter() - start)
    return {
        "queries_enumerated": ProblemGenerator(
            config, base.concat(batch)
        ).count_queries(),
        "new_rows": batch.num_rows,
        "affected_queries": len(fast),
        "reference_seconds": reference_best,
        "vectorized_seconds": fast_best,
        "speedup": reference_best / fast_best,
        "identical_to_reference": fast == reference,
    }


def bench_maintenance(
    config: SummarizationConfig,
    base: Table,
    batch: Table,
    worker_counts: list[int],
) -> dict:
    base_store, _ = Preprocessor(config).run(ProblemGenerator(config, base))

    # Legacy pass = the seed's reference discovery plus a serial
    # rebuild.  The serial maintain() below repeats its own (fast)
    # discovery, which is a negligible share of its total, so the sum
    # approximates the seed's wall clock without keeping dead code in
    # the library.
    store = copy_store(base_store)
    start = time.perf_counter()
    reference_affected_queries(config, base, batch)
    discovery_seconds = time.perf_counter() - start
    serial_report = IncrementalMaintainer(config, base).maintain(batch, store)
    legacy_seconds = discovery_seconds + serial_report.total_seconds
    serial_payload = store_payload(store)

    out = {
        "base_speeches": len(base_store),
        "affected_queries": serial_report.affected_queries,
        "rebuilt_speeches": serial_report.rebuilt_speeches,
        "legacy_seconds": legacy_seconds,
        "serial_seconds": serial_report.total_seconds,
        "serial_speedup_vs_legacy": legacy_seconds / serial_report.total_seconds,
        "parallel": [],
    }
    for workers in worker_counts:
        store = copy_store(base_store)
        with WorkerPool(workers) as pool:
            report = IncrementalMaintainer(config, base).maintain(
                batch, store, pool=pool
            )
        identical = (
            store_payload(store) == serial_payload
            and report.rebuilt_speeches == serial_report.rebuilt_speeches
            and report.affected_queries == serial_report.affected_queries
        )
        out["parallel"].append(
            {
                "workers": workers,
                "seconds": report.total_seconds,
                "speedup_vs_legacy": legacy_seconds / report.total_seconds,
                "speedup_vs_serial": serial_report.total_seconds
                / report.total_seconds,
                "identical_to_serial": identical,
            }
        )
    return out


def bench_pool_reuse(
    config: SummarizationConfig,
    base: Table,
    batches: list[Table],
    workers: int,
) -> dict:
    base_store, _ = Preprocessor(config).run(ProblemGenerator(config, base))

    def run_passes(shared: WorkerPool | None) -> tuple[float, str]:
        """All passes on ``shared``, or on a pool opened per pass when None."""
        store = copy_store(base_store)
        maintainer = IncrementalMaintainer(config, base)
        start = time.perf_counter()
        for batch in batches:
            if shared is None:
                with WorkerPool(workers) as pool:
                    maintainer.maintain(batch, store, pool=pool)
            else:
                maintainer.maintain(batch, store, pool=shared)
        return time.perf_counter() - start, store_payload(store)

    fresh_seconds, fresh_payload = run_passes(None)
    with WorkerPool(workers) as pool:
        kept_seconds, kept_payload = run_passes(pool)
        kept_spawns = pool.spawn_count
    return {
        "passes": len(batches),
        "rows_per_pass": batches[0].num_rows if batches else 0,
        "workers": workers,
        "fresh_pool_seconds": fresh_seconds,
        "persistent_pool_seconds": kept_seconds,
        "amortisation": fresh_seconds / kept_seconds,
        "fresh_pool_spawns": len(batches),
        "persistent_pool_spawns": kept_spawns,
        "stores_identical": fresh_payload == kept_payload,
    }


def run(
    num_rows: int,
    values_per_dimension: int,
    append_rows: int,
    passes: int,
    worker_counts: list[int],
    repeats: int,
) -> dict:
    total_appended = append_rows * passes
    rows = build_rows(num_rows + total_appended, values_per_dimension, seed=23)
    base = make_table(rows[:num_rows])
    batches = [
        make_table(rows[num_rows + i * append_rows : num_rows + (i + 1) * append_rows])
        for i in range(passes)
    ]
    config = SummarizationConfig.create(
        table="incremental_bench",
        dimensions=DIMENSIONS,
        targets=("target",),
        max_query_length=2,
        max_facts_per_speech=3,
        max_fact_dimensions=1,
        algorithm="G-B",
    )
    return {
        "problem": {
            "base_rows": num_rows,
            "values_per_dimension": values_per_dimension,
            "dimensions": len(DIMENSIONS),
            "append_rows": append_rows,
            "passes": passes,
            "cpu_count": os.cpu_count(),
        },
        "discovery": bench_discovery(config, base, batches[0], repeats),
        "maintenance": bench_maintenance(config, base, batches[0], worker_counts),
        "pool_reuse": bench_pool_reuse(
            config, base, batches, workers=max(worker_counts)
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=4_000, help="base table rows")
    parser.add_argument(
        "--values-per-dimension", type=int, default=24,
        help="domain size per dimension (3 dims)",
    )
    parser.add_argument(
        "--append-rows", type=int, default=60, help="appended rows per pass"
    )
    parser.add_argument(
        "--passes", type=int, default=4, help="maintenance passes for pool reuse"
    )
    parser.add_argument(
        "--workers", type=int, nargs="*", default=[2, 4], help="pool sizes to time"
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--quick", action="store_true",
        help="small problem for CI smoke runs (1200 rows, 12 values/dim, "
        "workers=2; sized so each timed section runs >10ms, best-of-3)",
    )
    parser.add_argument("--output", default=None, help="also write the JSON to a file")
    args = parser.parse_args(argv)

    if args.quick:
        report = run(
            num_rows=1_200,
            values_per_dimension=12,
            append_rows=30,
            passes=2,
            worker_counts=[2],
            repeats=3,
        )
    else:
        report = run(
            num_rows=args.rows,
            values_per_dimension=args.values_per_dimension,
            append_rows=args.append_rows,
            passes=args.passes,
            worker_counts=args.workers,
            repeats=args.repeats,
        )

    text = json.dumps(report, indent=2)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")

    ok = (
        report["discovery"]["identical_to_reference"]
        and all(p["identical_to_serial"] for p in report["maintenance"]["parallel"])
        and report["pool_reuse"]["stores_identical"]
    )
    if not ok:
        print("ERROR: maintenance paths diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
