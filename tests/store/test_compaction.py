"""Incremental compaction equals compacting from scratch, byte for byte.

:meth:`repro.store.Compaction.advance` re-encodes only the speeches
whose object changed since the last compaction and rebuilds everything
else from the previous sections.  The oracle is the per-speech loop
every freeze used to run (``tests/store/compact_oracle.py``): after
every version of a ``clone()`` chain, each section and the frozen file
must be identical.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import Fact, Scope, Speech
from repro.store import CompactSpeechStore, Compaction, columnar, freeze
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore, StoredSpeech

from tests.store import compact_oracle
from tests.store.compact_oracle import oracle_sections

COLUMNS = ("region", "season", "carrier")

#: Python-equal classes (1 == 1.0 == True, -0.0 == 0.0 == 0 == False)
#: that intern as different values but share posting keys, and None.
VALUES = (1, 1.0, True, 0, 0.0, -0.0, False, None, "East", "West", "", 2.5)

#: Values only later versions use, so replacements introduce them.
LATE_VALUES = ("Zeta", 7, 7.5)


def assert_same_sections(got: dict, expected: dict) -> None:
    assert sorted(got) == sorted(expected)
    for name, value in expected.items():
        if isinstance(value, np.ndarray):
            assert got[name].dtype == value.dtype, name
            assert got[name].tobytes() == value.tobytes(), name
        else:
            assert bytes(got[name]) == bytes(value), name


def frozen(store: CompactSpeechStore) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        return freeze(store, Path(tmp) / "store.snap").read_bytes()


def assert_matches_oracle(compaction: Compaction, store: SpeechStore) -> None:
    expected = oracle_sections(store)
    assert_same_sections(compaction.store.sections(), expected)
    assert compaction.store.meta == {"speeches": len(store)}
    oracle_store = CompactSpeechStore(expected, {"speeches": len(store)})
    assert frozen(compaction.store) == frozen(oracle_store)


@st.composite
def speech_content(draw, query: DataQuery, late: bool) -> StoredSpeech:
    values = st.sampled_from(VALUES + (LATE_VALUES if late else ()))
    facts = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        columns = draw(st.lists(st.sampled_from(COLUMNS), unique=True, max_size=2))
        facts.append(
            Fact(
                scope=Scope({column: draw(values) for column in columns}),
                value=draw(st.sampled_from([0.0, -0.0, 1.5, 1e300])),
                support=draw(st.integers(min_value=1, max_value=9)),
            )
        )
    return StoredSpeech(
        query=query,
        speech=Speech(facts),
        text=draw(st.text(max_size=6)),
        utility=draw(st.sampled_from([0.0, 0.25, -1.0])),
        scaled_utility=draw(st.sampled_from([0.0, 0.5])),
        algorithm=draw(st.sampled_from(["", "G-B", "G-O"])),
    )


@st.composite
def new_speech(draw, late: bool) -> StoredSpeech:
    # "fare" is a target only later versions add.
    targets = ("delay", "cancellation", "fare") if late else ("delay",)
    target = draw(st.sampled_from(targets))
    values = st.sampled_from(VALUES + (LATE_VALUES if late else ()))
    columns = draw(st.lists(st.sampled_from(COLUMNS), unique=True, max_size=3))
    query = DataQuery.create(target, {column: draw(values) for column in columns})
    return draw(speech_content(query, late))


def advance_chain(data, versions: int) -> None:
    """Draw add/replace/copy batches on a clone chain; check every version."""
    store = SpeechStore()
    compaction = Compaction.empty()
    for version in range(versions):
        store = store.clone()
        late = version > 0
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            kind = "add"
            if len(store):
                kind = data.draw(st.sampled_from(["add", "replace", "copy"]))
            if kind == "add":
                store.add(data.draw(new_speech(late)))
                continue
            existing = list(store)[data.draw(st.integers(0, len(store) - 1))]
            if kind == "copy":
                # Equal content, new object: re-encoded, same bytes.
                store.add(dataclasses.replace(existing))
            else:
                store.add(data.draw(speech_content(existing.query, late)))
        compaction = compaction.advance(store)
        assert_matches_oracle(compaction, store)


class TestAgainstOracle:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_every_version_of_a_clone_chain(self, data):
        advance_chain(data, data.draw(st.integers(min_value=1, max_value=5)))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_digest_ties_keep_the_oracle_order(self, data):
        """Colliding key digests: ties break like the oracle's."""
        with pytest.MonkeyPatch.context() as patch:
            for module in (columnar, compact_oracle):
                patch.setattr(module, "_key_digest", lambda *key: len(key[1]) % 2)
            advance_chain(data, data.draw(st.integers(min_value=1, max_value=4)))

    def test_empty_store(self):
        empty = Compaction.empty()
        assert_matches_oracle(empty, SpeechStore())
        assert_matches_oracle(empty.advance(SpeechStore()), SpeechStore())


def speech(
    target: str, predicates: dict, scopes: list[dict], text: str = ""
) -> StoredSpeech:
    facts = [Fact(scope=Scope(scope), value=1.0, support=1) for scope in scopes]
    return StoredSpeech(
        query=DataQuery.create(target, predicates), speech=Speech(facts), text=text
    )


def three_speeches() -> SpeechStore:
    store = SpeechStore()
    store.add(speech("delay", {}, [{"region": "East"}], "a"))
    store.add(speech("delay", {"region": "West"}, [{"season": "Winter"}], "b"))
    store.add(speech("delay", {"season": "Winter"}, [{"region": "West"}], "c"))
    return store


def values_pool(compaction: Compaction) -> list[str]:
    return columnar._decode_pool(compaction.store.sections(), "values")


class TestVersions:
    def test_value_first_introduced_by_a_mid_range_replacement(self):
        before = three_speeches()
        first = Compaction.empty().advance(before)
        after = before.clone()
        after.add(speech("delay", {"region": "West"}, [{"season": "Zeta"}], "b2"))
        second = first.advance(after)
        assert_matches_oracle(second, after)
        # "Zeta" ranks where it first appears, before the values only
        # the last speech holds, not at the end of the pool.
        assert values_pool(second) == ['"East"', '"West"', '"Zeta"', '"Winter"']

    def test_replacement_that_drops_a_first_appearance(self):
        before = three_speeches()
        first = Compaction.empty().advance(before)
        after = before.clone()
        after.add(speech("delay", {}, [{"region": "North"}], "a2"))
        second = first.advance(after)
        assert_matches_oracle(second, after)
        assert values_pool(second) == ['"North"', '"West"', '"Winter"']

    def test_equal_content_replacement_writes_the_same_bytes(self):
        before = three_speeches()
        first = Compaction.empty().advance(before)
        after = before.clone()
        middle = list(after)[1]
        after.add(dataclasses.replace(middle))
        second = first.advance(after)
        assert second.store is not first.store
        assert frozen(second.store) == frozen(first.store)

    def test_unrelated_smaller_store(self):
        first = Compaction.empty().advance(three_speeches())
        other = SpeechStore()
        other.add(speech("cancellation", {"carrier": 1}, [{"carrier": True}], "x"))
        assert_matches_oracle(first.advance(other), other)

    def test_only_changed_speeches_are_encoded(self, monkeypatch):
        before = three_speeches()
        first = Compaction.empty().advance(before)
        after = before.clone()
        after.add(speech("delay", {"region": "West"}, [{"season": "Zeta"}], "b2"))
        after.add(speech("delay", {"carrier": "AA"}, [], "d"))
        encoded = []
        real = columnar._encode

        def spy(speeches, pools):
            encoded.extend(stored.text for stored in speeches)
            return real(speeches, pools)

        monkeypatch.setattr(columnar, "_encode", spy)
        second = first.advance(after)
        assert encoded == ["b2", "d"]
        encoded.clear()
        third = second.advance(after.clone())
        assert encoded == []
        assert frozen(third.store) == frozen(second.store)


class TestValueMemo:
    """Each distinct value is encoded once per compaction, by type and value."""

    #: Python-equal values with different storage forms, and values that
    #: hash or compare unusually: each must keep its own bytes.
    CLASHING = (0.0, -0.0, 1, 1.0, True, "1", None, float("nan"), 2**53 + 1)

    def clashing_store(self) -> SpeechStore:
        # Scope and query pairs are shared per (type, column, value), so
        # 0.0 and -0.0 in one column would be one object: each value gets
        # a column of its own, and the clashes meet in the value pool.
        cells = [(f"memo{i}", value) for i, value in enumerate(self.CLASHING)]
        store = SpeechStore()
        for i, cell in enumerate(cells):
            other = cells[-1 - i]
            store.add(speech("delay", dict([cell]), [dict([other])], f"q{i}"))
            store.add(speech("delay", dict([cell, other]), [dict([cell, other])], f"p{i}"))
        return store

    def test_sections_equal_a_per_value_reference(self):
        # Every section, values_blob, q_val, s_val and key_digest among them.
        store = self.clashing_store()
        assert_matches_oracle(Compaction.empty().advance(store), store)

    def test_every_storage_form_is_kept(self):
        compaction = Compaction.empty().advance(self.clashing_store())
        assert sorted(values_pool(compaction)) == sorted(
            ["0.0", "-0.0", "1", "1.0", "true", '"1"', "null", "NaN", str(2**53 + 1)]
        )

    def test_equal_values_share_a_key(self):
        # 0.0 and -0.0 (and 1, 1.0, True) are one key, as in SpeechStore.
        store = SpeechStore()
        store.add(speech("delay", {"memo_zero": -0.0}, [], "negative zero"))
        store.add(speech("delay", {"memo_one": True}, [], "true"))
        compact = Compaction.empty().advance(store).store
        for column, value, text in (
            ("memo_zero", 0.0, "negative zero"),
            ("memo_zero", 0, "negative zero"),
            ("memo_one", 1.0, "true"),
        ):
            query = DataQuery.create("delay", {column: value})
            assert compact.exact_match(query).text == text
            assert store.exact_match(query).text == text
