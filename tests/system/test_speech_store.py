"""Unit tests for repro.system.speech_store."""

from repro.core.model import Fact, Speech
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore, StoredSpeech


def stored(target: str, predicates: dict, text: str = "speech") -> StoredSpeech:
    query = DataQuery.create(target, predicates)
    fact = Fact(scope=query.scope(), value=1.0, support=1)
    return StoredSpeech(query=query, speech=Speech([fact]), text=text, utility=1.0)


class TestPopulation:
    def test_add_and_len(self):
        store = SpeechStore()
        store.add(stored("delay", {}))
        store.add(stored("delay", {"region": "East"}))
        assert len(store) == 2
        assert store.targets() == ["delay"]
        assert sum(s.query.target == "delay" for s in store) == 2

    def test_add_replaces_same_query(self):
        store = SpeechStore()
        store.add(stored("delay", {}, text="old"))
        store.add(stored("delay", {}, text="new"))
        assert len(store) == 1
        assert store.exact_match(DataQuery.create("delay", {})).text == "new"
        assert sum(s.query.target == "delay" for s in store) == 1

    def test_iteration(self):
        store = SpeechStore()
        store.add(stored("delay", {}))
        assert [s.text for s in store] == ["speech"]


class TestLookup:
    def build_store(self) -> SpeechStore:
        store = SpeechStore()
        store.add(stored("delay", {}, text="overall"))
        store.add(stored("delay", {"region": "East"}, text="east"))
        store.add(stored("delay", {"region": "East", "season": "Winter"}, text="east winter"))
        store.add(stored("cancellation", {}, text="cancel overall"))
        return store

    def test_exact_match_preferred(self):
        store = self.build_store()
        match = store.best_match(DataQuery.create("delay", {"region": "East"}))
        assert match is not None
        assert match.exact
        assert match.stored.text == "east"

    def test_most_specific_containing_subset(self):
        store = self.build_store()
        # No speech for (East, Summer); the East speech is the most specific
        # stored subset containing that query.
        match = store.best_match(
            DataQuery.create("delay", {"region": "East", "season": "Summer"})
        )
        assert match is not None
        assert not match.exact
        assert match.stored.text == "east"
        assert match.overlap == 1

    def test_falls_back_to_overall_speech(self):
        store = self.build_store()
        match = store.best_match(DataQuery.create("delay", {"region": "West"}))
        assert match is not None
        assert match.stored.text == "overall"
        assert match.overlap == 0

    def test_unknown_target_returns_none(self):
        store = self.build_store()
        assert store.best_match(DataQuery.create("support", {})) is None

    def test_targets_are_isolated(self):
        store = self.build_store()
        match = store.best_match(DataQuery.create("cancellation", {"region": "East"}))
        assert match is not None
        assert match.stored.text == "cancel overall"

    def test_empty_store(self):
        assert SpeechStore().best_match(DataQuery.create("delay", {})) is None
