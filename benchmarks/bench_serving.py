"""Benchmark: the compact speech store against the dict store it mirrors.

Fills speech stores of increasing size with synthetic pre-generated
speeches and prices the columnar :class:`repro.store.CompactSpeechStore`
against the dict :class:`SpeechStore` it mirrors: bytes per speech
(deep-traversed object bytes vs. the compact arena bytes vs. the frozen
file), freeze/attach wall time, and lookup latency on the identical
query stream of exact hits, containing-subset hits and misses — with
every sampled lookup verified byte-identical between the two
implementations, including 7- and 8-predicate queries, whose compact
lookup latency is reported on its own
(``compact_long_microseconds_per_lookup``).  It also times what a
maintenance job's snapshot costs: compacting the store from scratch
against compacting it incrementally, from the previous version's
compaction, after an append's worth of replaced speeches
(``incremental_speedup``; the incremental result is checked equal to
the full one).  The full sweep sizes the stores at 10^5-10^6 speeches.

Results are emitted as JSON (stdout, and optionally a file) under
``compact``; the run fails if the two stores ever disagree.

Usage::

    python benchmarks/bench_serving.py             # full sweep
    python benchmarks/bench_serving.py --quick     # CI smoke
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from itertools import combinations, product
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench_memory import deep_sizes  # noqa: E402
from repro.core.model import Fact, Scope, Speech  # noqa: E402
from repro.system.queries import DataQuery  # noqa: E402
from repro.system.speech_store import SpeechStore, StoredSpeech  # noqa: E402

TARGET = "target"

#: Vocabulary: 8 dims x 32 values enumerate ~1.86M keys at lengths 0-3,
#: enough for the 10^6-speech rung.
NUM_DIMENSIONS = 8
VALUES_PER_DIMENSION = 32

#: Speeches one flights append re-summarizes (voice_e2e ``append``):
#: the change an incremental compaction is timed on.
REPLACED_PER_APPEND = 44


def _vocabulary() -> dict[str, list[str]]:
    return {
        f"dim{d}": [f"dim{d}_v{v}" for v in range(VALUES_PER_DIMENSION)]
        for d in range(NUM_DIMENSIONS)
    }


def build_store(num_speeches: int, seed: int = 31) -> SpeechStore:
    """A store with ``num_speeches`` speeches over stored lengths 0-3."""
    vocabulary = _vocabulary()
    dimensions = list(vocabulary)
    keys: list[dict[str, str]] = [{}]
    for length in (1, 2, 3):
        for dims in combinations(dimensions, length):
            for values in product(*(vocabulary[d] for d in dims)):
                keys.append(dict(zip(dims, values)))
    if num_speeches > len(keys):
        raise SystemExit(
            f"store size {num_speeches} exceeds the {len(keys)} enumerable keys"
        )
    rng = np.random.default_rng(seed)
    rng.shuffle(keys)

    store = SpeechStore()
    for predicates in keys[:num_speeches]:
        query = DataQuery.create(TARGET, predicates)
        fact = Fact(scope=Scope(predicates), value=1.0, support=1)
        store.add(
            StoredSpeech(query=query, speech=Speech([fact]), text=query.describe())
        )
    return store


def build_lookups(
    num_lookups: int, seed: int = 47, lengths: tuple[int, int] = (0, 3)
) -> list[DataQuery]:
    """Random run-time queries over the same vocabulary.

    Query lengths are drawn uniformly from the inclusive range
    ``lengths`` (by default 0-3, the stored lengths).
    """
    vocabulary = _vocabulary()
    dimensions = list(vocabulary)
    rng = np.random.default_rng(seed)
    lookups = []
    for _ in range(num_lookups):
        length = int(rng.integers(lengths[0], lengths[1] + 1))
        chosen = rng.choice(dimensions, size=length, replace=False)
        predicates = {
            d: vocabulary[d][int(rng.integers(0, VALUES_PER_DIMENSION))] for d in chosen
        }
        lookups.append(DataQuery.create(TARGET, predicates))
    return lookups


def dict_store_bytes(store: SpeechStore) -> int:
    """Deep ``sys.getsizeof`` over the dict store's object graph.

    Key dicts, the id list, length sets, stored speeches, queries,
    facts, scopes and strings, every unique object once (see
    :func:`bench_memory.deep_sizes`).
    """
    roots = [store._ids, store._speeches, store._lengths]
    return sum(deep_sizes(roots).values())


def time_lookups(store, lookups: list[DataQuery]) -> float:
    start = time.perf_counter()
    for query in lookups:
        store.best_match(query)
    return time.perf_counter() - start


def best_seconds(run, repeats: int = 3) -> tuple[float, object]:
    """Fastest of ``repeats`` timed calls, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def replace_speeches(store: SpeechStore, count: int, seed: int = 53) -> SpeechStore:
    """A clone of ``store`` with ``count`` speeches replaced in place."""
    changed = store.clone()
    speeches = list(store)
    rng = np.random.default_rng(seed)
    for speech_id in rng.choice(len(speeches), size=count, replace=False).tolist():
        stored = speeches[speech_id]
        changed.add(dataclasses.replace(stored, text=stored.text + ".", utility=1.0))
    return changed


def same_sections(left, right) -> bool:
    a, b = left.sections(), right.sections()
    return sorted(a) == sorted(b) and all(
        np.array_equal(a[name], b[name])
        if isinstance(a[name], np.ndarray)
        else bytes(a[name]) == bytes(b[name])
        for name in a
    )


def run_compact(store_sizes: list[int], num_lookups: int) -> dict:
    """Price the compact store against the dict store it mirrors."""
    import tempfile

    from repro.store import CompactSpeechStore, Compaction, attach, freeze

    lookups = build_lookups(num_lookups)
    long_lookups = build_lookups(max(1, num_lookups // 10), seed=59, lengths=(7, 8))
    sweep = []
    agreement = True
    for size in store_sizes:
        store = build_store(size)
        dict_bytes = dict_store_bytes(store)

        # CompactSpeechStore.from_store(store) is this call: the
        # incremental compaction, starting from nothing.
        build_seconds, compaction = best_seconds(lambda: Compaction.empty().advance(store))
        compact = compaction.store
        changed = replace_speeches(store, min(REPLACED_PER_APPEND, size))
        incremental_seconds, advanced = best_seconds(lambda: compaction.advance(changed))
        if not same_sections(advanced.store, CompactSpeechStore.from_store(changed)):
            agreement = False

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.snap"
            start = time.perf_counter()
            freeze(compact, path)
            freeze_seconds = time.perf_counter() - start
            file_bytes = path.stat().st_size
            start = time.perf_counter()
            attached = attach(path)
            attach_seconds = time.perf_counter() - start

            for query in lookups[: min(400, num_lookups)] + long_lookups:
                dict_best = store.best_match(query)
                compact_best = attached.best_match(query)
                if (dict_best is None) != (compact_best is None) or (
                    dict_best is not None
                    and (
                        compact_best.stored != dict_best.stored
                        or compact_best.exact != dict_best.exact
                        or compact_best.overlap != dict_best.overlap
                    )
                ):
                    agreement = False

            dict_seconds = time_lookups(store, lookups)
            compact_seconds = time_lookups(attached, lookups)
            compact_long_seconds = time_lookups(attached, long_lookups)

        sweep.append(
            {
                "store_size": size,
                "dict_bytes_per_speech": dict_bytes / size,
                "compact_bytes_per_speech": compact.nbytes / size,
                "file_bytes_per_speech": file_bytes / size,
                "compression_ratio": dict_bytes / compact.nbytes,
                "build_seconds": build_seconds,
                "incremental_seconds": incremental_seconds,
                "incremental_speedup": build_seconds / incremental_seconds,
                "freeze_seconds": freeze_seconds,
                "attach_seconds": attach_seconds,
                "dict_microseconds_per_lookup": dict_seconds / num_lookups * 1e6,
                "compact_microseconds_per_lookup": compact_seconds
                / num_lookups
                * 1e6,
                "lookup_ratio": dict_seconds / compact_seconds,
                "compact_long_microseconds_per_lookup": compact_long_seconds
                / len(long_lookups)
                * 1e6,
            }
        )
    largest = sweep[-1]
    return {
        "workload": {
            "dimensions": NUM_DIMENSIONS,
            "values_per_dimension": VALUES_PER_DIMENSION,
            "lookups": num_lookups,
            "long_lookups": len(long_lookups),
        },
        "sweep": sweep,
        # Headline metrics at the largest size.  Arena and dict-store
        # bytes per speech are deterministic for a given workload and
        # interpreter, so the regression check gates them as ceilings.
        "bytes_per_speech": largest["compact_bytes_per_speech"],
        "dict_bytes_per_speech": largest["dict_bytes_per_speech"],
        "compression_ratio": largest["compression_ratio"],
        "lookup_ratio": largest["lookup_ratio"],
        "incremental_speedup": largest["incremental_speedup"],
        "paths_agree": agreement,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--compact-sizes", type=int, nargs="*", default=[100_000, 1_000_000],
        help="store sizes to sweep",
    )
    parser.add_argument("--lookups", type=int, default=4000)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sweep for CI smoke runs (sizes 2000/8000, 400 lookups)",
    )
    parser.add_argument("--output", default=None, help="also write the JSON to a file")
    args = parser.parse_args(argv)

    if args.quick:
        report = {"compact": run_compact(store_sizes=[2000, 8000], num_lookups=400)}
    else:
        report = {"compact": run_compact(args.compact_sizes, args.lookups)}

    text = json.dumps(report, indent=2)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")

    if not report["compact"]["paths_agree"]:
        print(
            "ERROR: compact best_match disagrees with the dict store, or the "
            "incremental compaction with the full one",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
