"""Unit tests for Fact and Speech (repro.core.model)."""

import pytest

from repro.core.errors import InvalidFactError
from repro.core.model import Fact, Scope, Speech


def fact(assignments, value, support=4) -> Fact:
    return Fact(scope=Scope(assignments), value=value, support=support)


class TestFact:
    def test_dimensions(self):
        assert fact({"region": "East", "season": "Winter"}, 1.0).dimensions == (
            "region",
            "season",
        )

    def test_covers_row(self):
        winter = fact({"season": "Winter"}, 15.0)
        assert winter.covers_row({"season": "Winter", "region": "East"})
        assert not winter.covers_row({"season": "Summer", "region": "East"})

    def test_negative_support_rejected(self):
        with pytest.raises(InvalidFactError):
            Fact(scope=Scope(), value=1.0, support=-1)

    def test_facts_are_hashable_and_comparable(self):
        a = fact({"season": "Winter"}, 15.0)
        b = fact({"season": "Winter"}, 15.0)
        assert a == b
        assert len({a, b}) == 1


class TestSpeech:
    def test_length_and_iteration(self):
        speech = Speech([fact({"season": "Winter"}, 15.0), fact({"region": "North"}, 15.0)])
        assert speech.length == 2
        assert len(list(speech)) == 2

    def test_duplicates_are_removed(self):
        duplicate = fact({"season": "Winter"}, 15.0)
        speech = Speech([duplicate, duplicate])
        assert speech.length == 1

    def test_order_does_not_matter_for_equality(self):
        f1, f2 = fact({"a": 1}, 1.0), fact({"b": 2}, 2.0)
        assert Speech([f1, f2]) == Speech([f2, f1])
        assert hash(Speech([f1, f2])) == hash(Speech([f2, f1]))

    def test_extending_a_speech_leaves_it_unchanged(self):
        original = Speech([fact({"a": 1}, 1.0)])
        extended = Speech([*original, fact({"b": 2}, 2.0)])
        assert original.length == 1
        assert extended.length == 2
        assert isinstance(original.facts, tuple)

    def test_contains(self):
        member = fact({"a": 1}, 1.0)
        assert member in Speech([member])
        assert fact({"b": 2}, 2.0) not in Speech([member])

    def test_relevant_facts(self):
        winter = fact({"season": "Winter"}, 15.0)
        north = fact({"region": "North"}, 15.0)
        speech = Speech([winter, north])
        row = {"season": "Winter", "region": "South"}
        assert [f for f in speech.facts if f.covers_row(row)] == [winter]

    def test_empty_speech(self):
        speech = Speech()
        assert speech.length == 0
        assert speech.facts == ()
