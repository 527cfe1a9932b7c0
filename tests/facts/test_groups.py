"""Unit tests for repro.facts.groups."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import repro
from repro.facts.groups import FactGroup, enumerate_fact_groups, specializations


class TestFactGroup:
    def test_dimensions_are_sorted_and_deduplicated(self):
        group = FactGroup(["season", "region", "season"])
        assert group.dimensions == ("region", "season")
        assert group.arity == 2

    def test_equality_and_hash(self):
        assert FactGroup(["a", "b"]) == FactGroup(["b", "a"])
        assert len({FactGroup(["a", "b"]), FactGroup(["b", "a"])}) == 1

    def test_specialization_relation(self):
        region = FactGroup(["region"])
        region_season = FactGroup(["region", "season"])
        assert region_season.is_specialization_of(region)
        assert not region.is_specialization_of(region_season)
        # Reflexive, and everything specializes the empty group.
        assert region.is_specialization_of(region)
        assert region.is_specialization_of(FactGroup([]))

    def test_ordering_is_deterministic(self):
        groups = sorted([FactGroup(["b"]), FactGroup(["a"]), FactGroup([])])
        assert [g.dimensions for g in groups] == [(), ("a",), ("b",)]

    def test_specialization_is_the_subset_relation(self):
        universe = enumerate_fact_groups(["a", "b", "c"], include_empty=True)
        for group in universe:
            for other in universe:
                expected = set(other.dimensions).issubset(group.dimensions)
                assert group.is_specialization_of(other) == expected

    def test_cached_set_does_not_change_identity(self):
        group = FactGroup(["b", "a"])
        # Equality, hash and repr depend on the dimensions alone.
        assert hash(group) == hash((("a", "b"),))
        assert repr(group) == "FactGroup(a, b)"
        clone = pickle.loads(pickle.dumps(group))
        assert clone == group and hash(clone) == hash(group)
        assert clone.is_specialization_of(FactGroup(["a"]))

    def test_unpickled_group_hashes_in_the_new_process(self):
        # String hashes depend on PYTHONHASHSEED, so a dict keyed by a
        # group pickled under one seed must still be found under another
        # (spawned worker processes unpickle with their own seed).
        assert _python("print(hash(('a', 'b')))", seed=1) != _python(
            "print(hash(('a', 'b')))", seed=2
        )
        pickled = _python(
            "import pickle, sys\n"
            "from repro.facts.groups import FactGroup\n"
            "sys.stdout.buffer.write(pickle.dumps({FactGroup(['b', 'a']): 1}))",
            seed=1,
        )
        found = _python(
            "import pickle, sys\n"
            "from repro.facts.groups import FactGroup\n"
            "print(pickle.loads(sys.stdin.buffer.read()).get(FactGroup(['a', 'b'])))",
            seed=2,
            stdin=pickled,
        )
        assert found.strip() == b"1"


def _python(code: str, seed: int, stdin: bytes | None = None) -> bytes:
    """Stdout of ``code`` run by a fresh interpreter under ``PYTHONHASHSEED=seed``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, check=True
    ).stdout


class TestEnumeration:
    def test_powerset_without_empty(self):
        groups = enumerate_fact_groups(["a", "b"])
        assert {g.dimensions for g in groups} == {("a",), ("b",), ("a", "b")}

    def test_powerset_with_empty(self):
        groups = enumerate_fact_groups(["a", "b"], include_empty=True)
        assert FactGroup([]) in groups
        assert len(groups) == 4

    def test_max_arity_limits_groups(self):
        groups = enumerate_fact_groups(["a", "b", "c"], max_arity=1)
        assert all(g.arity == 1 for g in groups)
        assert len(groups) == 3

    def test_max_arity_above_dimension_count(self):
        groups = enumerate_fact_groups(["a"], max_arity=5)
        assert {g.dimensions for g in groups} == {("a",)}

    def test_duplicate_dimensions_collapse(self):
        groups = enumerate_fact_groups(["a", "a"])
        assert {g.dimensions for g in groups} == {("a",)}


class TestSpecializations:
    def test_specializations_include_self(self):
        universe = enumerate_fact_groups(["a", "b", "c"], include_empty=True)
        result = specializations(FactGroup(["a"]), universe)
        assert FactGroup(["a"]) in result
        assert FactGroup(["a", "b"]) in result
        assert FactGroup(["a", "b", "c"]) in result
        assert FactGroup(["b"]) not in result
