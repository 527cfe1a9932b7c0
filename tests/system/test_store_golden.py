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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.facts.generation import FactGenerator
from repro.relational.table import Table
from repro.store import CompactSpeechStore, attach, freeze
from repro.system.config import SummarizationConfig
from repro.system.engine import VoiceQueryEngine
from repro.system.persistence import canonical_store_payload, store_to_dict
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore
from repro.system.updates import IncrementalMaintainer

FLIGHTS_300_G_O_DIGEST = "69bfd0eba9832ea9692e2ba71f257aaabc066962738c51badce4897f31fee0fc"
FLIGHTS_5000_G_O_DIGEST = "7c2287cd8172f1eb5c02b791958b3f771670d04970e5ef5c2e8753430262bf95"
FLIGHTS_300_G_O_MAINTAINED_DIGEST = (
    "c5fb816c05d5c3f60a582542b7107b64b0d6237d43621c0fc8be2cb8fa7c8caa"
)
FLIGHTS_5000_G_O_FROZEN_DIGEST = (
    "0128826d6ceb11a69ff1780d95e167ba930e4868578d2f321d215f7dcf354eba"
)
STACKOVERFLOW_300_G_O_DIGEST = (
    "746889ed0b2a44c8d6d587d4d76b794114be47a2c6f847672d1a3eca973e4d4c"
)
FLIGHTS_300_G_P_DIGEST = "6ed5bd6dfe03d7c725718f726ed156273bc92590654f753f7aeb62b474127292"
ACS_300_G_O_DIGEST = "87cd4a6d01704c8af303929af719fca4c0a16e82fc3101ea073269f0ee77fd74"
PRIMARIES_300_G_O_DIGEST = "b919a9a101a83bcdb1258e0bc4ebc5780cffd61d643a5b13af2e75b10dfcfb4c"
FLIGHTS_300_NULL_DIMENSIONS_G_O_DIGEST = (
    "d3a424e524629f4aa9ca5f97687cb1a402bf6e97540820f1206997aee81f2b3c"
)

#: Order-free digests (:func:`_order_free_digest`), one per store above.
ORDER_FREE_DIGESTS = {
    "flights G-O": "1d8a56f99c51a33280e5626d11c657cbf8c34fe74c2f184f873fcc4c038d3f7a",
    "flights full": "71f3c2cc61f3299ec95c1d03d1fe137eb95151c294108381fff4173bf10a3b23",
    "flights maintained": "ceb610a49bcc97bcd224ae4b60fd957070c60afad0b03c966590e040b8ee7c5f",
    "stackoverflow": "b3f587926f5a653f4b5c29c9f796e7fa0d894dc5f34d44ebd473eadb507cf422",
    "flights G-P": "795147c978a66369a5028e126fe4629a05ee8eadfb0722a67f720a636d3858b0",
    "acs": "bbcc6be8974a3433f31e8d91aa88f120e14501fe07b78dd59287fa3e3fa6830b",
    "primaries": "c64e86ff763accdd3108cf8c9933d3e592f35ce032a9c4ca076720ad5ca01e8c",
    "flights NULL dimensions": "f91deb42ddd8157ae641b1999692e284b7e703882bf67e32f4e088ca41016e2c",
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
def full_flights_run() -> tuple[VoiceQueryEngine, int]:
    """The full flights engine, pre-processed serially, and its fact generations.

    The data and configuration of the ``voice_e2e`` ``preprocess``
    workload.
    """
    generations = []
    generate = FactGenerator.generate

    def counted(self, base_scope=None):
        generations.append(base_scope)
        return generate(self, base_scope)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FactGenerator, "generate", counted)
        engine = _engine(load_dataset("flights", num_rows=5000, seed=20210318))
    return engine, len(generations)


@pytest.fixture(scope="module")
def full_flights_engine(full_flights_run) -> VoiceQueryEngine:
    return full_flights_run[0]


def test_full_flights_preprocessing_builds_each_scope_once(full_flights_run):
    """The work, not the clock: one fact generation per viable scope.

    Both targets of each of the 513 viable scopes share one generation
    (1,026 when every problem was built from scratch), and the greedy
    does exactly the work it did then.
    """
    engine, generations = full_flights_run
    assert generations == 513
    assert engine.report.speeches_generated == 1026
    assert engine.report.fact_evaluations == 393_901


def test_flights_store_matches_golden_digest():
    engine = _engine(load_dataset("flights", num_rows=300))
    _assert_golden(engine, "flights G-O", 928, FLIGHTS_300_G_O_DIGEST)


def test_stackoverflow_store_matches_golden_digest():
    dataset = load_dataset("stackoverflow", num_rows=300)
    assert len(dataset.spec.targets) == 6
    _assert_golden(_engine(dataset), "stackoverflow", 2670, STACKOVERFLOW_300_G_O_DIGEST)


def test_flights_g_p_store_matches_golden_digest():
    engine = _engine(load_dataset("flights", num_rows=300), algorithm="G-P")
    _assert_golden(engine, "flights G-P", 928, FLIGHTS_300_G_P_DIGEST)


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


def test_full_flights_store_matches_golden_digest(full_flights_engine):
    _assert_golden(full_flights_engine, "flights full", 1026, FLIGHTS_5000_G_O_DIGEST)


def test_full_flights_frozen_store_matches_golden_digest(full_flights_engine, tmp_path):
    path = freeze(full_flights_engine.store, tmp_path / "store.snap")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FLIGHTS_5000_G_O_FROZEN_DIGEST
    attached = attach(path)
    assert _order_free_digest(attached) == ORDER_FREE_DIGESTS["flights full"]
    payload = canonical_store_payload(attached, full_flights_engine.config)
    assert hashlib.sha256(payload).hexdigest() == FLIGHTS_5000_G_O_DIGEST


def test_maintained_flights_store_matches_golden_digest():
    engine = _engine(load_dataset("flights", num_rows=300))
    maintainer = IncrementalMaintainer(engine.config, engine.table)
    for batch in _append_batches(engine.table):
        maintainer.maintain(batch, engine.store)
    _assert_golden(engine, "flights maintained", 944, FLIGHTS_300_G_O_MAINTAINED_DIGEST)


#: The flights G-O digest when queries were enumerated target-major.
FLIGHTS_300_G_O_TARGET_MAJOR_DIGEST = (
    "ee2b0a22973f985bab028a742f7d6001a0575b6c538392a42b86dd59a0f12da7"
)


@pytest.fixture(scope="module")
def flights_orders():
    """The flights G-O engine, and its speeches in scope-major and target-major order.

    The target-major store re-adds the scope-major store's speeches
    sorted (stably) by target, each store as a dict and a compact one.
    """
    engine = _engine(load_dataset("flights", num_rows=300))
    targets = engine.config.targets
    target_major = SpeechStore()
    for stored in sorted(engine.store, key=lambda stored: targets.index(stored.query.target)):
        target_major.add(stored)
    stores = [engine.store, target_major]
    return engine, target_major, [*stores, *map(CompactSpeechStore.from_store, stores)]


def test_the_store_is_the_target_major_store_reordered(flights_orders):
    engine, target_major, _ = flights_orders
    payload = canonical_store_payload(target_major, engine.config)
    assert hashlib.sha256(payload).hexdigest() == FLIGHTS_300_G_O_TARGET_MAJOR_DIGEST


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
