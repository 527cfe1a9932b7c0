"""The slotted value objects every stored speech, query and answer is built from.

Scopes and data queries take each ``(column, value)`` pair from one
shared table, keyed by the value's type as well as its value, so equal
predicates share one tuple without ``1``, ``1.0`` and ``True`` ever
merging.  Every class here is slotted: no instance carries a
``__dict__``, and each survives ``pickle`` and ``deepcopy``.
"""

from __future__ import annotations

import copy
import math
import pickle

import pytest

from repro.api import VoiceRequest
from repro.core.model import Fact, Scope, Speech, shared_pairs
from repro.system.classification import RequestType
from repro.system.engine import ResponseKind, VoiceResponse
from repro.system.nlq import ParsedRequest, RequestKind
from repro.system.persistence import canonical_store_payload
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore, StoredSpeech


def stored_for(predicates: dict) -> StoredSpeech:
    query = DataQuery.create("delay", predicates)
    fact = Fact(scope=Scope(predicates), value=2.5, support=3)
    return StoredSpeech(query=query, speech=Speech([fact]), text=query.describe())


def value_objects() -> list:
    query = DataQuery.create("delay", {"region": "East", "season": "Winter"})
    return [
        query,
        Scope({"region": "East"}),
        Fact(scope=Scope({"region": "East"}), value=1.5, support=2),
        stored_for({"region": "East"}),
        VoiceRequest(text="delays for East", session_id="s1", deadline_ms=50.0),
        VoiceResponse(
            kind=ResponseKind.SPEECH,
            text="Delays average 2.5.",
            request_type=RequestType.SUPPORTED_QUERY,
            query=query,
            exact_match=True,
        ),
        ParsedRequest(
            text="delays for East",
            kind=RequestKind.QUERY,
            query=query,
            matched_values={"region": "East"},
            value_mentions=[("region", "East")],
        ),
    ]


class TestSharedPairs:
    @pytest.mark.parametrize("first", [1, 1.0, True])
    def test_equal_values_of_other_types_keep_their_type(self, first):
        # Whichever of the three equal values is seen first, each query
        # keeps its own value, so text, JSON and hashes stay as they were.
        values = [first] + [v for v in (1, 1.0, True) if type(v) is not type(first)]
        queries = {type(v): DataQuery.create("delay", {"stops": v}) for v in values}
        assert [type(q.predicates[0][1]) for q in queries.values()] == list(queries)
        assert queries[int].describe() == "delay for stops=1"
        assert queries[float].describe() == "delay for stops=1.0"
        assert queries[bool].describe() == "delay for stops=True"
        for value_type, query in queries.items():
            scope = query.scope()
            assert type(scope.value("stops")) is value_type
            assert hash(query) == hash(("delay", (("stops", value_type(1)),)))
            assert hash(scope) == hash((("stops", value_type(1)),))

        store = SpeechStore()
        for value in values:
            store.add(stored_for({"stops": value}))
        payload = canonical_store_payload(store).decode()
        # 1, 1.0 and True are equal keys: the last speech replaces the others.
        expected = {int: "1", float: "1.0", bool: "true"}[type(values[-1])]
        assert f'"predicates":{{"stops":{expected}}}' in payload
        assert f'"scope":{{"stops":{expected}}}' in payload

    def test_equal_predicates_from_different_dicts_share_pairs(self):
        # Strings built at run time, so equal values are distinct objects.
        east = "".join(["Ea", "st"])
        winter = "".join(["Win", "ter"])
        a = DataQuery.create("delay", {"season": winter, "region": "East"})
        b = DataQuery.create("cancellations", dict(region=east, season="Winter"))
        scope = Scope({"region": east, "season": winter})
        assert a.predicates == b.predicates == tuple(scope)
        for left, middle, right in zip(a.predicates, b.predicates, scope):
            assert left is middle is right
        assert a.predicates == shared_pairs([("region", "East"), ("season", "Winter")])
        assert a.predicates[0] is shared_pairs([("region", "East")])[0]

    def test_a_value_unequal_to_itself_is_not_shared(self):
        nan = float("nan")
        first, second = shared_pairs([("region", nan), ("region", nan)])
        assert first is not second
        query = DataQuery.create("delay", {"region": nan})
        assert math.isnan(query.predicates[0][1])
        assert query.predicates[0] is not first

    def test_unpickled_values_share_pairs_again(self):
        query = DataQuery.create("delay", {"region": "East"})
        scope = Scope({"region": "East"})
        loaded_query, loaded_scope = pickle.loads(pickle.dumps((query, scope)))
        assert loaded_query.predicates[0] is query.predicates[0]
        assert tuple(loaded_scope)[0] is tuple(scope)[0]


class TestSlottedClasses:
    @pytest.mark.parametrize("obj", value_objects(), ids=lambda obj: type(obj).__name__)
    def test_no_instance_dict(self, obj):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "extra", 1)

    @pytest.mark.parametrize("obj", value_objects(), ids=lambda obj: type(obj).__name__)
    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))])
    def test_round_trip(self, obj, clone):
        again = clone(obj)
        assert type(again) is type(obj)
        assert again == obj
        assert repr(again) == repr(obj)

    def test_unpickling_resets_the_predicate_map_cache(self):
        query = DataQuery.create("delay", {"region": "East", "season": "Winter"})
        assert query.predicate_map == {"region": "East", "season": "Winter"}
        assert query._predicate_map is not None
        for again in (pickle.loads(pickle.dumps(query)), copy.deepcopy(query)):
            assert again._predicate_map is None
            assert again.predicate_map == query.predicate_map
            assert again == query and hash(again) == hash(query)

    def test_the_cache_is_not_part_of_equality_or_repr(self):
        cached = DataQuery.create("delay", {"region": "East"})
        _ = cached.predicate_map
        fresh = DataQuery.create("delay", {"region": "East"})
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh) == (
            "DataQuery(target='delay', predicates=(('region', 'East'),))"
        )
