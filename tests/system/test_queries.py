"""Unit tests for repro.system.queries."""

from repro.core.model import Scope
from repro.system.queries import DataQuery


class TestDataQuery:
    def test_create_sorts_predicates(self):
        query = DataQuery.create("delay", {"season": "Winter", "region": "East"})
        assert query.predicates == (("region", "East"), ("season", "Winter"))
        assert query.predicate_map == {"region": "East", "season": "Winter"}
        assert query.length == 2

    def test_empty_query(self):
        query = DataQuery.create("delay")
        assert query.length == 0
        assert query.scope() == Scope()
        assert query.describe() == "delay overall"

    def test_scope(self):
        query = DataQuery.create("delay", {"region": "East"})
        assert query.scope() == Scope({"region": "East"})

    def test_key_is_canonical(self):
        a = DataQuery.create("delay", {"a": 1, "b": 2})
        b = DataQuery.create("delay", {"b": 2, "a": 1})
        assert a.key() == b.key()
        assert a == b
        assert hash(a) == hash(b)

    def test_is_refinement_of(self):
        broad = DataQuery.create("delay", {"region": "East"})
        narrow = DataQuery.create("delay", {"region": "East", "season": "Winter"})
        assert narrow.is_refinement_of(broad)
        assert narrow.is_refinement_of(narrow)
        assert not broad.is_refinement_of(narrow)

    def test_refinement_requires_same_target(self):
        a = DataQuery.create("delay", {"region": "East"})
        b = DataQuery.create("cancellation", {"region": "East"})
        assert not a.is_refinement_of(b)

    def test_refinement_requires_matching_values(self):
        narrow = DataQuery.create("delay", {"region": "East", "season": "Winter"})
        other = DataQuery.create("delay", {"region": "West"})
        assert not narrow.is_refinement_of(other)

    def test_none_predicate_is_not_contained_by_a_missing_column(self):
        query = DataQuery.create("delay", {"region": "East"})
        stored = DataQuery.create("delay", {"season": None})
        assert not query.is_refinement_of(stored)
        assert DataQuery.create(
            "delay", {"region": "East", "season": None}
        ).is_refinement_of(stored)

    def test_describe_mentions_predicates(self):
        query = DataQuery.create("delay", {"region": "East"})
        assert "region=East" in query.describe()
        assert query.describe().startswith("delay")

    def test_direct_construction_canonicalizes_predicate_order(self):
        direct = DataQuery("delay", (("season", "Winter"), ("region", "East")))
        created = DataQuery.create("delay", {"region": "East", "season": "Winter"})
        assert direct.predicates == (("region", "East"), ("season", "Winter"))
        assert direct == created
        assert direct.key() == created.key()

    def test_predicate_map_is_cached(self):
        query = DataQuery.create("delay", {"region": "East", "season": "Winter"})
        first = query.predicate_map
        assert query.predicate_map is first
        assert first == {"region": "East", "season": "Winter"}

    def test_cached_predicate_map_does_not_affect_equality_or_pickling(self):
        import pickle

        a = DataQuery.create("delay", {"region": "East"})
        b = DataQuery.create("delay", {"region": "East"})
        _ = a.predicate_map  # populate only a's cache
        assert a == b
        assert hash(a) == hash(b)
        restored = pickle.loads(pickle.dumps(a))
        assert restored == a
        assert restored.predicate_map == a.predicate_map
