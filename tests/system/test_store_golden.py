"""Golden digests of pre-processed stores: speed-ups must not move a byte.

The 300-row digest was computed before pre-processing built query
subsets from cached column codes and memoized the G-O cost model; the
full 5,000-row digest before fact generation handed its scope rows to
the kernel and the G-O pruner tracked facts by id.  Any change to the
enumerated queries, the candidate facts, the chosen plans, the greedy
selection, the utilities or the realized texts changes them.

The frozen-snapshot digest of the full store pins the compact layout,
the pool order and the file format, so it is re-pinned on a format
change; the test also attaches the file and checks it still holds the
full store's canonical digest, so only the layout moved.  It was last
pinned when format version 2 dropped the posting lists (version 1 was
pinned before compaction became incremental).

The maintained-store digest was computed when every (target, scope)
problem was still built from scratch, before the targets of a predicate
scope shared one set-up and maintenance kept its problem generator
across appends.  Its appends bring an unseen airline and a NULL
target, so both the extended column codes and the unshared path (one
target's kept rows differ from the other's) are pinned.

The stackoverflow G-O digest (six targets per predicate scope) and the
flights G-P digest (the naive pruning plan) were computed before the
pruned greedy summarizers shared one group lattice per group set, took
a speech's utility from the greedy's final state, skipped the copy
search for generated candidates and gathered each plan's source
entries once.

The acs and primaries G-O digests and the digest of a flights table
with NULLs in two dimension columns were computed before plan choice ran
on flat per-group lists, one bincount gave every target's bound, and
fact generation kept its fact groups across problems and read a base
column's census off its single-value coding.  The NULL-dimension table
pins the census fallback (a column with a NULL code is counted) and
the dropping of NULL keys, which no dataset reaches otherwise.

Every insertion-order digest but primaries' (one target) was re-pinned
when query enumeration became scope-major (each predicate scope
followed by all its targets); the frozen digest also moved to format
version 3 then.  Beside each stands an order-free digest, computed
before that change over the sorted canonical per-speech entries: it
holds across both orders, so the re-pin moved the order and nothing
else.  A property test checks that the order change cannot change an
answer.

The flights, stackoverflow, NULL-dimension, maintained and
target-major G-O digests and the flights G-P digest were re-pinned when
G-O's plans were priced by the one-pass gain kernel (G-O runs G-B's
loop) and pruned ties went to the lowest fact id, G-B's rule.  Only
tie picks moved, each with the same utility bits: 3 of 928 flights
speeches, 59 of 2,670 stackoverflow ones, 61 of 928 flights G-P ones
and 17 of 922 with NULL dimensions.  Each of those stores is asserted
equal to G-B's with the ``algorithm`` field dropped.  The full
5,000-row digests, acs and primaries did not move.

No digest moved when the scopes of a dimension combination came to
share one grouping pass over the table and the greedy loop dropped its
expectation vector and active mask (G-B then read its utility off the
loop's final error, as G-O did).  Only the full run's count of
grouping passes was re-pinned, from 513 to 67.

No digest or count moved either when a walked combination's problems
came to be solved one target at a time, in one greedy loop over all of
its scopes, each problem reading its speech off that loop.  The full
run's number of greedy loops (30 batches and 104 problems solved alone,
where each of the 1,026 problems ran its own) and of batch members
(922) were pinned then.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import greedy
from repro.datasets import load_dataset
from repro.facts.generation import FactGenerator
from repro.relational.table import Table
from repro.store import CompactSpeechStore, attach, freeze
from repro.system.config import SummarizationConfig
from repro.system.engine import VoiceQueryEngine
from repro.system.persistence import canonical_store_payload, store_to_dict
from repro.system.problem_generator import WalkedProblem
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore
from repro.system.updates import IncrementalMaintainer

FLIGHTS_300_G_O_DIGEST = "f3ba19ae3623e3cdbf72e483348421bbdd5d82569bccb631f542d1ddff8c4e10"
FLIGHTS_5000_G_O_DIGEST = "7c2287cd8172f1eb5c02b791958b3f771670d04970e5ef5c2e8753430262bf95"
FLIGHTS_300_G_O_MAINTAINED_DIGEST = (
    "014830c2e1cc263d46836f52e013dfa52c105c7a9dea7297716d8dd337fb9f9b"
)
FLIGHTS_5000_G_O_FROZEN_DIGEST = (
    "0128826d6ceb11a69ff1780d95e167ba930e4868578d2f321d215f7dcf354eba"
)
STACKOVERFLOW_300_G_O_DIGEST = (
    "1f6240fb961e8d2244dc3e2ed4febfaa6c8ce4be92ca0e8907b683870a8af708"
)
FLIGHTS_300_G_P_DIGEST = "a899e7e01de794d5cab10a487a2e290e51bb19405ae5bcce16c0f53961a1cd97"
ACS_300_G_O_DIGEST = "87cd4a6d01704c8af303929af719fca4c0a16e82fc3101ea073269f0ee77fd74"
PRIMARIES_300_G_O_DIGEST = "b919a9a101a83bcdb1258e0bc4ebc5780cffd61d643a5b13af2e75b10dfcfb4c"
FLIGHTS_300_NULL_DIMENSIONS_G_O_DIGEST = (
    "083357a15d33ef4521e00da8c7d5d41085d7a7b52dd28c0af69d167e45bf3b19"
)

#: Order-free digests (:func:`_order_free_digest`), one per store above.
ORDER_FREE_DIGESTS = {
    "flights G-O": "a7354a16b60d6f76c1ba6ca89b11ea873f2fac27dfaac6deb2faec67ddad101f",
    "flights full": "71f3c2cc61f3299ec95c1d03d1fe137eb95151c294108381fff4173bf10a3b23",
    "flights maintained": "edd1cea4774292f4c86dda83368feb9ef76475d53b9292be9edcd3a9164ba708",
    "stackoverflow": "70db2a0ad8ee771010957a428e9ffb3b90938099f5e5403fd82109f0d2e1f96e",
    "flights G-P": "083217b6d5defdc9034af088c29ea78995f463f623c7b46560d185e922ae877f",
    "acs": "bbcc6be8974a3433f31e8d91aa88f120e14501fe07b78dd59287fa3e3fa6830b",
    "primaries": "c64e86ff763accdd3108cf8c9933d3e592f35ce032a9c4ca076720ad5ca01e8c",
    "flights NULL dimensions": "a3e72a931cf987aa250c34b241a8f738ea1691287ddf6f5b5658783e386fa125",
}



def _engine(dataset, algorithm: str = "G-O") -> VoiceQueryEngine:
    config = SummarizationConfig.create(
        table=dataset.spec.key,
        dimensions=dataset.spec.dimensions,
        targets=dataset.spec.targets,
        max_query_length=2,
        algorithm=algorithm,
    )
    engine = VoiceQueryEngine(config, dataset.table)
    engine.preprocess()
    return engine


def _store_digest(engine: VoiceQueryEngine) -> tuple[int, str]:
    payload = canonical_store_payload(engine.store, engine.config)
    return len(engine.store), hashlib.sha256(payload).hexdigest()


def _order_free_digest(store) -> str:
    """sha256 over the store's canonical per-speech entries, sorted.

    Blind to insertion order only: any change to a speech, its query,
    its text or its utilities moves it.
    """
    entries = sorted(
        json.dumps(entry, sort_keys=True, separators=(",", ":"))
        for entry in store_to_dict(store)["speeches"]
    )
    return hashlib.sha256("\n".join(entries).encode("utf-8")).hexdigest()


def _assert_golden(engine: VoiceQueryEngine, name: str, speeches: int, digest: str) -> None:
    assert _order_free_digest(engine.store) == ORDER_FREE_DIGESTS[name]
    assert _store_digest(engine) == (speeches, digest)


def _without_algorithm(store, config) -> dict:
    """The store's dict form with the ``algorithm`` fields dropped."""
    payload = store_to_dict(store, config)
    payload["config"].pop("algorithm")
    for entry in payload["speeches"]:
        entry.pop("algorithm")
    return payload


def _assert_is_the_g_b_store(engine: VoiceQueryEngine, g_b: VoiceQueryEngine) -> None:
    assert g_b.config.algorithm == "G-B" != engine.config.algorithm
    assert _without_algorithm(engine.store, engine.config) == _without_algorithm(
        g_b.store, g_b.config
    )


def _append_batches(base: Table) -> list[Table]:
    """Four batches of five flights rows.

    The third brings two rows of an unseen airline and one NULL
    ``delay_minutes``.
    """
    rows = load_dataset("flights", num_rows=20, seed=7).table.to_dicts()
    rows[10]["airline"] = rows[12]["airline"] = "ZZ"
    rows[11]["delay_minutes"] = None
    names = base.column_names
    types = [column.ctype for column in base.columns]
    values = [[row[name] for name in names] for row in rows]
    return [Table.from_rows(base.name, names, types, values[i : i + 5]) for i in range(0, 20, 5)]


def with_null_dimensions(dataset):
    """``dataset`` with NULL ``origin_region`` on every 7th row and NULL
    ``season`` on every 5th."""
    table = dataset.table
    names = table.column_names
    types = [column.ctype for column in table.columns]
    rows = table.to_dicts()
    for i, row in enumerate(rows):
        if i % 7 == 3:
            row["origin_region"] = None
        if i % 5 == 1:
            row["season"] = None
    values = [[row[name] for name in names] for row in rows]
    return replace(dataset, table=Table.from_rows(table.name, names, types, values))


@pytest.fixture(scope="module")
def full_flights_run() -> tuple[VoiceQueryEngine, int, list[int], int]:
    """The full flights engine, pre-processed serially, and its work.

    The work is the number of fact generations, the scopes of each
    greedy loop run and the number of walked problems built.  The data
    and configuration of the ``voice_e2e`` ``preprocess`` workload.
    """
    generations, loops, members = [], [], []
    generate = FactGenerator.generate
    loop = greedy.greedy_loop
    walked = WalkedProblem.__init__

    def counted(self, base_scope=None, **kwargs):
        generations.append(base_scope)
        return generate(self, base_scope, **kwargs)

    def counted_loop(segments, *args):
        loops.append(segments.fact_starts.size - 1)
        return loop(segments, *args)

    def counted_member(self, *args):
        members.append(args[-1])
        walked(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FactGenerator, "generate", counted)
        patch.setattr(greedy, "greedy_loop", counted_loop)
        patch.setattr(WalkedProblem, "__init__", counted_member)
        engine = _engine(load_dataset("flights", num_rows=5000, seed=20210318))
    return engine, len(generations), loops, len(members)


@pytest.fixture(scope="module")
def full_flights_engine(full_flights_run) -> VoiceQueryEngine:
    return full_flights_run[0]


def test_full_flights_preprocessing_builds_each_scope_once(full_flights_run):
    """The work, not the clock: 67 grouping passes serve the 513 viable scopes.

    The empty scope and each of the 36 one-column scopes get a pass over
    their own rows.  Each of the 15 two-column combinations gets one
    for its first scope and one over the table for all of its scopes,
    which its other 461 viable scopes read: 1 + 36 + 15 + 15 = 67.  The
    targets of a scope share its pass.  The count was 513, one pass per
    viable scope, before a combination's scopes shared one pass (1,026
    when every problem was built from scratch).  The greedy's work is
    G-B's: 429,181 fact evaluations since G-O runs G-B's loop (393,901
    when G-O's plans pruned groups whose gains the one-pass kernel
    computed anyway).
    """
    engine, generations, _, _ = full_flights_run
    assert generations == 67
    assert engine.report.speeches_generated == 1026
    assert engine.report.fact_evaluations == 429_181


def test_full_flights_preprocessing_solves_each_walk_in_one_loop_per_target(full_flights_run):
    """The work, not the clock: 30 greedy loops solve the 922 walked problems.

    Each of the 15 walks makes one batch per target (30), whose first
    member to be solved runs one loop over every scope of the walk;
    the walk's other viable problems read their speeches off it.  The
    other 104 problems (the empty scope, the one-column scopes and each
    walk's first scope, for both targets) are batches of one: 134 loops
    in all, where each of the 1,026 problems ran its own loop before.
    """
    _, _, loops, members = full_flights_run
    batches = [scopes for scopes in loops if scopes > 1]
    assert len(batches) == 30
    assert members == 922
    assert len(loops) - len(batches) == 1026 - 922


def test_flights_store_matches_golden_digest():
    engine = _engine(load_dataset("flights", num_rows=300))
    _assert_golden(engine, "flights G-O", 928, FLIGHTS_300_G_O_DIGEST)
    _assert_is_the_g_b_store(engine, _engine(load_dataset("flights", num_rows=300), "G-B"))


def test_stackoverflow_store_matches_golden_digest():
    dataset = load_dataset("stackoverflow", num_rows=300)
    assert len(dataset.spec.targets) == 6
    engine = _engine(dataset)
    _assert_golden(engine, "stackoverflow", 2670, STACKOVERFLOW_300_G_O_DIGEST)
    _assert_is_the_g_b_store(engine, _engine(dataset, "G-B"))


def test_flights_g_p_store_matches_golden_digest():
    engine = _engine(load_dataset("flights", num_rows=300), algorithm="G-P")
    _assert_golden(engine, "flights G-P", 928, FLIGHTS_300_G_P_DIGEST)
    _assert_is_the_g_b_store(engine, _engine(load_dataset("flights", num_rows=300), "G-B"))


@pytest.mark.parametrize(
    "name, speeches, digest",
    [("acs", 252, ACS_300_G_O_DIGEST), ("primaries", 195, PRIMARIES_300_G_O_DIGEST)],
)
def test_other_datasets_match_golden_digests(name, speeches, digest):
    _assert_golden(_engine(load_dataset(name, num_rows=300)), name, speeches, digest)


def test_flights_with_null_dimensions_matches_golden_digest():
    dataset = with_null_dimensions(load_dataset("flights", num_rows=300))
    for column in ("origin_region", "season"):
        assert None in dataset.table.column(column).values
    engine = _engine(dataset)
    _assert_golden(
        engine, "flights NULL dimensions", 922, FLIGHTS_300_NULL_DIMENSIONS_G_O_DIGEST
    )
    _assert_is_the_g_b_store(engine, _engine(dataset, "G-B"))


def test_full_flights_store_matches_golden_digest(full_flights_engine):
    _assert_golden(full_flights_engine, "flights full", 1026, FLIGHTS_5000_G_O_DIGEST)


def test_full_flights_frozen_store_matches_golden_digest(full_flights_engine, tmp_path):
    path = freeze(full_flights_engine.store, tmp_path / "store.snap")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FLIGHTS_5000_G_O_FROZEN_DIGEST
    attached = attach(path)
    assert _order_free_digest(attached) == ORDER_FREE_DIGESTS["flights full"]
    payload = canonical_store_payload(attached, full_flights_engine.config)
    assert hashlib.sha256(payload).hexdigest() == FLIGHTS_5000_G_O_DIGEST


def _maintained(algorithm: str) -> VoiceQueryEngine:
    engine = _engine(load_dataset("flights", num_rows=300), algorithm)
    maintainer = IncrementalMaintainer(engine.config, engine.table)
    for batch in _append_batches(engine.table):
        maintainer.maintain(batch, engine.store)
    return engine


def test_maintained_flights_store_matches_golden_digest():
    engine = _maintained("G-O")
    _assert_golden(engine, "flights maintained", 944, FLIGHTS_300_G_O_MAINTAINED_DIGEST)
    _assert_is_the_g_b_store(engine, _maintained("G-B"))


#: The flights G-O digest when queries were enumerated target-major.
FLIGHTS_300_G_O_TARGET_MAJOR_DIGEST = (
    "a305e90dc54c4d58c353e9703ac525ccf4a33a45a50f3fd8de755458d6abb291"
)


def _target_major(engine: VoiceQueryEngine) -> SpeechStore:
    """``engine``'s speeches re-added sorted (stably) by target."""
    targets = engine.config.targets
    target_major = SpeechStore()
    for stored in sorted(engine.store, key=lambda stored: targets.index(stored.query.target)):
        target_major.add(stored)
    return target_major


@pytest.fixture(scope="module")
def flights_orders():
    """The flights G-O engine, and its speeches in scope-major and target-major order.

    The target-major store re-adds the scope-major store's speeches
    sorted (stably) by target, each store as a dict and a compact one.
    """
    engine = _engine(load_dataset("flights", num_rows=300))
    target_major = _target_major(engine)
    stores = [engine.store, target_major]
    return engine, target_major, [*stores, *map(CompactSpeechStore.from_store, stores)]


def test_the_store_is_the_target_major_store_reordered(flights_orders):
    engine, target_major, _ = flights_orders
    payload = canonical_store_payload(target_major, engine.config)
    assert hashlib.sha256(payload).hexdigest() == FLIGHTS_300_G_O_TARGET_MAJOR_DIGEST
    g_b = _engine(load_dataset("flights", num_rows=300), "G-B")
    assert _without_algorithm(target_major, engine.config) == _without_algorithm(
        _target_major(g_b), g_b.config
    )


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_insertion_order_does_not_change_an_answer(flights_orders, data):
    """Both orders answer every query alike, on the dict and the compact store.

    ``longest_subset_match`` breaks ties by id among one target's
    speeches, and both orders keep each target's speeches in the same
    relative order.
    """
    engine, _, stores = flights_orders
    predicates = {}
    for dim in engine.config.dimensions:
        values = engine.table.column(dim).distinct_values()
        value = data.draw(st.one_of(st.none(), st.sampled_from([*values, "Atlantis"])))
        if value is not None:
            predicates[dim] = value
    query = DataQuery.create(data.draw(st.sampled_from(engine.config.targets)), predicates)
    answers = set()
    for store in stores:
        match = store.best_match(query)
        answers.add(match and (match.stored, match.exact, match.overlap))
    assert len(answers) == 1
