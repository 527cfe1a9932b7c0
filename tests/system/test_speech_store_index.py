"""Tests for the speech store's indexed lookup.

``best_match`` probes the query's predicate subsets as exact keys, for
short and long queries alike; it must agree with the index-free linear
scan (``linear_best_match``) on every store/query combination,
including tie-breaking and replacements.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.model import Fact, Scope, Speech
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore, StoredSpeech

_VALUES = {
    "region": ["East", "West", "North"],
    "season": ["Winter", "Summer"],
    "carrier": ["AA", "BB"],
}
#: Nine columns: stored and looked-up queries up to nine predicates long.
_WIDE_VALUES = {f"d{i}": ["u", "v"] for i in range(9)}


def stored(target: str, predicates: dict, text: str = "speech") -> StoredSpeech:
    query = DataQuery.create(target, predicates)
    fact = Fact(scope=Scope(predicates), value=1.0, support=1)
    return StoredSpeech(query=query, speech=Speech([fact]), text=text)


def _predicate_strategy(vocabulary: dict):
    return st.fixed_dictionaries(
        {},
        optional={
            dim: st.sampled_from(values) for dim, values in vocabulary.items()
        },
    )


@st.composite
def stores_and_queries(draw, vocabulary: dict = _VALUES):
    """A random store (with possible duplicate adds) plus a lookup query."""
    entries = draw(
        st.lists(_predicate_strategy(vocabulary), min_size=1, max_size=12)
    )
    store = SpeechStore()
    for i, predicates in enumerate(entries):
        store.add(stored("delay", predicates, text=f"speech {i}"))
    lookup = DataQuery.create("delay", draw(_predicate_strategy(vocabulary)))
    return store, lookup


def assert_same_match(store: SpeechStore, lookup: DataQuery) -> None:
    indexed = store.best_match(lookup)
    linear = store.linear_best_match(lookup)
    if linear is None:
        assert indexed is None
        return
    assert indexed is not None
    assert indexed.stored is linear.stored
    assert indexed.exact == linear.exact
    assert indexed.overlap == linear.overlap


@settings(max_examples=200, deadline=None)
@given(
    data=st.one_of(stores_and_queries(), stores_and_queries(_WIDE_VALUES))
)
def test_indexed_match_agrees_with_linear_scan(data):
    store, lookup = data
    assert_same_match(store, lookup)


class TestDirectConstruction:
    def test_unsorted_direct_query_matches_stored_subsets(self):
        store = SpeechStore()
        store.add(stored("delay", {"region": "East", "season": "Winter"}, text="ew"))
        lookup = DataQuery(
            "delay",
            (("season", "Winter"), ("region", "East"), ("carrier", "AA")),
        )
        assert_same_match(store, lookup)
        match = store.best_match(lookup)
        assert match is not None
        assert match.stored.text == "ew"


class TestTieBreaking:
    def test_equal_length_matches_break_by_insertion_order(self):
        store = SpeechStore()
        store.add(stored("delay", {"season": "Winter"}, text="winter"))
        store.add(stored("delay", {"region": "East"}, text="east"))
        match = store.best_match(
            DataQuery.create("delay", {"region": "East", "season": "Winter"})
        )
        assert match is not None
        assert match.stored.text == "winter"  # first added wins

    def test_replacement_keeps_tie_break_position(self):
        store = SpeechStore()
        store.add(stored("delay", {"season": "Winter"}, text="winter v1"))
        store.add(stored("delay", {"region": "East"}, text="east"))
        store.add(stored("delay", {"season": "Winter"}, text="winter v2"))
        match = store.best_match(
            DataQuery.create("delay", {"region": "East", "season": "Winter"})
        )
        assert match is not None
        # The replacement carries the original insertion position, so the
        # winter speech still wins the tie — with the new content.
        assert match.stored.text == "winter v2"
        assert len(store) == 2

    def test_longer_match_beats_insertion_order(self):
        store = SpeechStore()
        store.add(stored("delay", {"season": "Winter"}, text="winter"))
        store.add(
            stored("delay", {"region": "East", "season": "Winter"}, text="east winter")
        )
        match = store.best_match(
            DataQuery.create(
                "delay", {"region": "East", "season": "Winter", "carrier": "AA"}
            )
        )
        assert match is not None
        assert match.stored.text == "east winter"
        assert match.overlap == 2


class TestReplacement:
    def test_replacement_is_in_place(self):
        store = SpeechStore()
        store.add(stored("delay", {}, text="overall"))
        store.add(stored("delay", {"region": "East"}, text="east"))
        store.add(stored("delay", {}, text="overall v2"))
        texts = [s.text for s in store if s.query.target == "delay"]
        assert texts == ["overall v2", "east"]
        assert [s.text for s in store] == ["overall v2", "east"]

    def test_replacement_does_not_grow_the_index(self):
        store = SpeechStore()
        for i in range(5):
            store.add(stored("delay", {"region": "East"}, text=f"v{i}"))
        assert len(store) == 1
        assert [s.text for s in store if s.query.target == "delay"] == ["v4"]
        match = store.best_match(
            DataQuery.create("delay", {"region": "East", "season": "Winter"})
        )
        assert match is not None
        assert match.stored.text == "v4"
        assert match.overlap == 1


class TestLongQueries:
    def test_nine_predicate_query_matches_longest_stored_subset(self):
        dims = [f"d{i}" for i in range(9)]
        store = SpeechStore()
        store.add(stored("delay", {}, text="overall"))
        store.add(stored("delay", {dims[0]: "v", dims[1]: "v"}, text="pair"))
        lookup = DataQuery.create("delay", {d: "v" for d in dims})
        match = store.best_match(lookup)
        assert match is not None
        assert match.stored.text == "pair"
        assert_same_match(store, lookup)

    def test_long_query_falls_back_to_overall(self):
        dims = [f"d{i}" for i in range(9)]
        store = SpeechStore()
        store.add(stored("delay", {}, text="overall"))
        match = store.best_match(DataQuery.create("delay", {d: "v" for d in dims}))
        assert match is not None
        assert match.stored.text == "overall"
        assert match.overlap == 0
