"""Benchmark: where a stored speech's bytes go.

Builds the ``ask_mixed``-style grid of stored speeches (8 dimensions x
32 values, four targets, every key of length 0-1 per target plus drawn
keys of length 2 and 3, one fact per speech) at several store sizes and
reports, per speech:

* ``speech_bytes`` — ``tracemalloc`` bytes the ``StoredSpeech`` objects
  retain (queries, speeches, facts, scopes, texts and the predicate
  pairs they hold), measured after the inputs they were built from are
  freed;
* ``dict_index_bytes`` — what a :class:`SpeechStore` holding them adds
  on top;
* ``compact_heap_bytes`` — what compacting that store retains on the
  heap, next to ``compact_arena_bytes`` (the arena's own byte count);
* ``compact_mmap_pss_bytes`` — the proportional set size the frozen
  snapshot adds once attached through mmap (``Pss_File`` of
  ``/proc/self/smaps_rollup``, which the attach's checksum pass pages
  in; ``null`` where the kernel does not offer it);
* ``dict_index_build_us_per_speech`` and ``dict_clone_ms`` — the wall
  clock of adding the speeches to an empty :class:`SpeechStore` and of
  its ``clone()``, best of five, timed with ``tracemalloc`` off.  Not
  gated: they move with the machine.

A ``sessions`` layer measures the serving path's per-conversation
state: the ``tracemalloc`` bytes a :class:`SessionStore` retains per
live session after 1 and after 64 recorded exchanges, each exchange a
real ``ParsedRequest``/``VoiceResponse`` pair from an engine over the
grid (its parse and its stateless respond), so ``session_id`` keys,
timestamps and the kept answer are all counted.

At the largest size it also breaks the speech objects down by type:
deep ``sys.getsizeof`` bytes per speech, every shared object counted
once.  For a given interpreter every number but the Pss repeats
within a few bytes per store (the interpreter's own caches), so
``memory.speech_bytes_per_speech`` and
``memory.session_bytes_per_session`` (at 64 exchanges) are gated as
ceilings by ``check_regression.py`` without repeated runs.

Usage::

    python benchmarks/bench_memory.py             # 10^3, 10^4, 10^5 speeches
    python benchmarks/bench_memory.py --quick     # 10^3 and 10^4 (CI smoke)
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.api.sessions import SessionStore  # noqa: E402
from repro.core.model import Fact, Scope, Speech  # noqa: E402
from repro.relational.column import Column  # noqa: E402
from repro.relational.table import Table  # noqa: E402
from repro.serving.workload import question_for_query  # noqa: E402
from repro.store import Compaction, attach, freeze  # noqa: E402
from repro.system.config import SummarizationConfig  # noqa: E402
from repro.system.engine import VoiceQueryEngine  # noqa: E402
from repro.system.queries import DataQuery  # noqa: E402
from repro.system.speech_store import SpeechStore, StoredSpeech  # noqa: E402

DIMENSIONS = 8
VALUES = 32
TARGETS = ("value_a", "value_b", "value_c", "value_d")
SEED = 3
#: Live sessions of the ``sessions`` layer, and the exchanges recorded
#: per session at each of its measurements.
SESSIONS = 64
SESSION_EXCHANGES = (1, 64)


def build_keys(count: int, seed: int = SEED) -> list[tuple[str, dict[str, str]]]:
    """``count`` distinct ``(target, predicates)`` keys, a quarter per target."""
    rng = random.Random(seed)
    dimensions = [f"dim{d}" for d in range(DIMENSIONS)]
    values = {dim: [f"{dim}_v{v}" for v in range(VALUES)] for dim in dimensions}

    def key(dims: tuple[str, ...], index: int) -> dict[str, str]:
        predicates = {}
        for dim in reversed(dims):
            index, value = divmod(index, VALUES)
            predicates[dim] = values[dim][value]
        return predicates

    short = [{}] + [key((dim,), v) for dim in dimensions for v in range(VALUES)]
    pairs = list(combinations(dimensions, 2))
    triples = list(combinations(dimensions, 3))
    keys = []
    for t, target in enumerate(TARGETS):
        per_target = count // len(TARGETS) + (t < count % len(TARGETS))
        chosen = short[:per_target]
        longer = per_target - len(chosen)
        for combos, drawn in ((pairs, longer // 2), (triples, longer - longer // 2)):
            per_combo = VALUES ** len(combos[0])
            for index in rng.sample(range(len(combos) * per_combo), drawn):
                chosen.append(key(combos[index // per_combo], index % per_combo))
        keys.extend((target, predicates) for predicates in chosen)
    return keys


def build_speeches(keys, seed: int = SEED) -> list[StoredSpeech]:
    """One single-fact stored speech per key, shaped like a G-O answer."""
    rng = random.Random(seed)
    speeches = []
    for target, predicates in keys:
        query = DataQuery.create(target, predicates)
        value = round(rng.uniform(0.0, 100.0), 2)
        scaled = rng.random()
        speeches.append(
            StoredSpeech(
                query=query,
                speech=Speech([Fact(scope=Scope(predicates), value=value, support=1)]),
                text=f"For {query.describe()}, the value averages {value}.",
                utility=scaled * 10.0,
                scaled_utility=scaled,
                algorithm="G-O",
            )
        )
    return speeches


def traced_now() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def pss_file_bytes() -> int | None:
    """``Pss_File`` of this process in bytes, or None when unavailable."""
    try:
        text = Path("/proc/self/smaps_rollup").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("Pss_File:"):
            return int(line.split()[1]) * 1024
    return None


def deep_sizes(roots: list) -> Counter[str]:
    """Deep ``sys.getsizeof`` bytes reachable from ``roots``, by type name.

    Deterministic for a given interpreter (unlike an RSS delta), and
    counts every unique object once, following dict keys and values,
    container items, instance ``__dict__``s and slots.  Tuples of two
    whose first item is a string are the ``(column, value)`` predicate
    pairs and are counted as ``pair``, apart from other tuples.
    """
    seen: set[int] = set()
    totals: Counter[str] = Counter()
    stack = list(roots)
    atoms = (str, bytes, int, float, bool, type(None))
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        kind = type(obj).__name__
        if isinstance(obj, tuple) and len(obj) == 2 and isinstance(obj[0], str):
            kind = "pair"
        totals[kind] += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif not isinstance(obj, atoms):
            attrs = getattr(obj, "__dict__", None)
            if attrs is not None:
                stack.append(attrs)
            for klass in type(obj).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    try:
                        stack.append(getattr(obj, slot))
                    except AttributeError:
                        pass
    return totals


def breakdown(speeches: list[StoredSpeech]) -> dict[str, float]:
    """:func:`deep_sizes` of the speeches, per speech, largest first."""
    totals = deep_sizes(speeches)
    count = len(speeches)
    per_speech = {kind: round(total / count, 1) for kind, total in totals.most_common()}
    per_speech["total"] = round(sum(totals.values()) / count, 1)
    return per_speech


def measure(size: int) -> tuple[dict, list[StoredSpeech]]:
    """Retained bytes per speech of each layer at one store size, and the speeches."""
    start = traced_now()
    keys = build_keys(size)
    speeches = build_speeches(keys)
    del keys
    speech_bytes = traced_now() - start

    start = traced_now()
    store = SpeechStore()
    for stored in speeches:
        store.add(stored)
    index_bytes = traced_now() - start

    start = traced_now()
    compact = Compaction.empty().advance(store).store
    compact_heap = traced_now() - start
    arena = compact.nbytes

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.snap"
        freeze(compact, path)
        del compact
        before = pss_file_bytes()
        attached = attach(path)
        after = pss_file_bytes()
        mapped = None if before is None or after is None else after - before
        del attached
    row = {
        "speeches": size,
        "speech_bytes_per_speech": speech_bytes / size,
        "dict_index_bytes_per_speech": index_bytes / size,
        "compact_heap_bytes_per_speech": compact_heap / size,
        "compact_arena_bytes_per_speech": arena / size,
        "compact_mmap_pss_bytes_per_speech": None if mapped is None else mapped / size,
        "speech_mb": speech_bytes / 2**20,
        "dict_index_mb": index_bytes / 2**20,
        "compact_heap_mb": compact_heap / 2**20,
        "compact_mmap_pss_mb": None if mapped is None else mapped / 2**20,
    }
    return row, speeches


def grid_engine(speeches: list[StoredSpeech]) -> VoiceQueryEngine:
    """An engine over the grid's dimensions and targets answering from ``speeches``."""
    dimensions = [f"dim{d}" for d in range(DIMENSIONS)]
    table = Table(
        "grid",
        [Column.categorical(dim, [f"{dim}_v{v}" for v in range(VALUES)]) for dim in dimensions]
        + [Column.numeric(target, [float(v) for v in range(VALUES)]) for target in TARGETS],
    )
    config = SummarizationConfig.create(
        table="grid", dimensions=dimensions, targets=TARGETS, max_query_length=3
    )
    engine = VoiceQueryEngine(config, table)
    store = SpeechStore()
    for stored in speeches:
        store.add(stored)
    engine.swap_store(store)
    return engine


def measure_sessions(engine: VoiceQueryEngine, questions: list[str], exchanges: int) -> float:
    """Bytes a :class:`SessionStore` retains per session after ``exchanges`` each.

    Every exchange parses and answers a fresh request, so whatever the
    store keeps of it is allocated after the measurement starts.
    """
    start = traced_now()
    sessions = SessionStore(capacity=SESSIONS)
    for session in range(SESSIONS):
        session_id = f"session-{session:03d}"
        for exchange in range(exchanges):
            question = questions[(session * exchanges + exchange) % len(questions)]
            parsed, request_type = engine.parse_and_classify(question)
            sessions.record(session_id, parsed, engine.respond_to(parsed, request_type))
    del parsed  # only what the store keeps may count
    retained = traced_now() - start
    assert len(sessions) == SESSIONS
    return retained / SESSIONS


def session_layer() -> dict:
    """:func:`measure_sessions` at every :data:`SESSION_EXCHANGES` count."""
    speeches = build_speeches(build_keys(1_000))
    engine = grid_engine(speeches)
    questions = [question_for_query(stored.query) for stored in speeches]
    for question in questions:  # warm the parser's and the store's caches
        engine.respond(question)
    row = {"sessions": SESSIONS}
    for exchanges in SESSION_EXCHANGES:
        row[f"bytes_per_session_after_{exchanges}"] = measure_sessions(
            engine, questions, exchanges
        )
    return row


def time_index(size: int, repeats: int = 5) -> dict:
    """Best-of-``repeats`` dict-index build µs per speech and ``clone()`` ms."""
    speeches = build_speeches(build_keys(size))
    builds, clones = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        store = SpeechStore()
        for stored in speeches:
            store.add(stored)
        builds.append(time.perf_counter() - start)
        start = time.perf_counter()
        store.clone()
        clones.append(time.perf_counter() - start)
    return {
        "dict_index_build_us_per_speech": min(builds) / size * 1e6,
        "dict_clone_ms": min(clones) * 1e3,
    }


def run(sizes: list[int]) -> dict:
    sweep = []
    tracemalloc.start()
    try:
        for size in sizes:
            speeches = None  # frees the previous size's speeches first
            row, speeches = measure(size)
            sweep.append(row)
        sessions = session_layer()
    finally:
        tracemalloc.stop()
    for row in sweep:
        row.update(time_index(row["speeches"]))
    return {
        "workload": {
            "dimensions": DIMENSIONS,
            "values_per_dimension": VALUES,
            "targets": len(TARGETS),
            "seed": SEED,
        },
        "python": sys.version.split()[0],
        "sweep": sweep,
        "breakdown_bytes_per_speech": breakdown(speeches),
        "sessions": sessions,
        # Headline metrics, for the regression gate: the speeches at the
        # largest size, and a session after its last measured exchange.
        "speech_bytes_per_speech": sweep[-1]["speech_bytes_per_speech"],
        "session_bytes_per_session": sessions[
            f"bytes_per_session_after_{SESSION_EXCHANGES[-1]}"
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=[1_000, 10_000, 100_000],
        help="store sizes to measure",
    )
    parser.add_argument(
        "--quick", action="store_true", help="sizes 10^3 and 10^4 only (CI smoke)"
    )
    parser.add_argument("--output", default=None, help="also write the JSON to a file")
    args = parser.parse_args(argv)

    report = run([1_000, 10_000] if args.quick else args.sizes)
    text = json.dumps(report, indent=2)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
