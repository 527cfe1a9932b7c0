"""Byte-level parity between the compact store and the dict store.

The compact layout is only admissible because it is *indistinguishable*
from :class:`repro.system.speech_store.SpeechStore` at every observable
surface: canonical payload bytes, iteration order, exact/best match
results (including the insertion-order tie-breaks), and the thawed
clone a maintenance build starts from.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import Fact, Speech
from repro.store import CompactSpeechStore
from repro.system.persistence import canonical_store_payload
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore, StoredSpeech

from tests.store.conftest import (
    WIDE_COLUMNS,
    long_queries,
    queries,
    stored_speeches,
    stores,
)


def simple_speech(target: str, predicates: dict, text: str) -> StoredSpeech:
    query = DataQuery.create(target, predicates)
    fact = Fact(scope=query.scope(), value=1.0, support=1)
    return StoredSpeech(query=query, speech=Speech([fact]), text=text)


def assert_same_match(reference, compact, query) -> None:
    """One query, three implementations, identical observable results."""
    ref_exact = reference.exact_match(query)
    got_exact = compact.exact_match(query)
    assert got_exact == ref_exact
    ref_best = reference.best_match(query)
    got_best = compact.best_match(query)
    linear = reference.linear_best_match(query)
    if ref_best is None:
        assert got_best is None
        assert linear is None
        return
    assert got_best is not None and linear is not None
    assert got_best.stored == ref_best.stored == linear.stored
    assert got_best.exact == ref_best.exact == linear.exact


class TestPayloadParity:
    @given(store=stores())
    @settings(max_examples=60, deadline=None)
    def test_canonical_payload_bytes_identical(self, store):
        compact = CompactSpeechStore.from_store(store)
        assert canonical_store_payload(compact) == canonical_store_payload(store)

    @given(store=stores())
    @settings(max_examples=40, deadline=None)
    def test_iteration_targets_and_len(self, store):
        compact = CompactSpeechStore.from_store(store)
        assert len(compact) == len(store)
        assert list(compact) == list(store)
        assert compact.targets() == store.targets()
        for target in store.targets():
            assert [s for s in compact if s.query.target == target] == [
                s for s in store if s.query.target == target
            ]

    @given(store=stores())
    @settings(max_examples=40, deadline=None)
    def test_clone_thaws_to_equivalent_mutable_store(self, store):
        thawed = CompactSpeechStore.from_store(store).clone()
        assert isinstance(thawed, SpeechStore)
        assert canonical_store_payload(thawed) == canonical_store_payload(store)
        assert list(thawed) == list(store)


class TestMatchParity:
    @given(data=st.data(), store=stores(min_size=1))
    @settings(max_examples=150, deadline=None)
    def test_match_results_identical(self, data, store):
        compact = CompactSpeechStore.from_store(store)
        for _ in range(4):
            assert_same_match(store, compact, data.draw(queries(store)))
        assert_same_match(store, compact, data.draw(long_queries(store)))

    def test_long_query_ties_break_by_insertion_order(self):
        """Equally long matches of a long query go to the first-inserted
        key."""
        store = SpeechStore()
        store.add(simple_speech("delay", {}, "overall"))
        store.add(simple_speech("delay", {"season": "Winter"}, "winter"))
        store.add(simple_speech("delay", {"region": "East"}, "east"))
        compact = CompactSpeechStore.from_store(store)
        predicates = {column: "x" for column in WIDE_COLUMNS}
        predicates.update(region="East", season="Winter")
        query = DataQuery.create("delay", predicates)
        assert_same_match(store, compact, query)
        assert compact.best_match(query).stored.text == "winter"

    @given(store=stores(min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_every_stored_key_exact_matches(self, store):
        compact = CompactSpeechStore.from_store(store)
        for spec in store:
            assert compact.exact_match(spec.query) == spec
            best = compact.best_match(spec.query)
            assert best is not None and best.exact and best.stored == spec

    def test_cross_type_equality_classes(self):
        """1 == 1.0 == True must collapse, exactly like dict keys do."""
        store = SpeechStore()
        store.add(simple_speech("delay", {"region": 1}, "one"))
        compact = CompactSpeechStore.from_store(store)
        for alias in (1, 1.0, True):
            aliased = DataQuery.create("delay", {"region": alias})
            assert store.exact_match(aliased) is not None
            assert compact.exact_match(aliased) == store.exact_match(aliased)

    @given(spec=stored_speeches())
    @settings(max_examples=60, deadline=None)
    def test_single_speech_round_trip(self, spec):
        store = SpeechStore()
        store.add(spec)
        compact = CompactSpeechStore.from_store(store)
        assert compact.stored(0) == spec

    def test_replacement_keeps_id_order(self):
        store = SpeechStore()
        store.add(simple_speech("delay", {}, "a"))
        store.add(simple_speech("delay", {"region": "East"}, "b"))
        store.add(simple_speech("delay", {}, "a2"))
        compact = CompactSpeechStore.from_store(store)
        assert [s.text for s in compact] == ["a2", "b"]
        assert canonical_store_payload(compact) == canonical_store_payload(store)

    def test_from_store_accepts_compact_input(self):
        store = SpeechStore()
        store.add(simple_speech("delay", {}, "overall"))
        store.add(simple_speech("delay", {"region": "East"}, "east"))
        once = CompactSpeechStore.from_store(store)
        twice = CompactSpeechStore.from_store(once)
        assert canonical_store_payload(twice) == canonical_store_payload(store)
