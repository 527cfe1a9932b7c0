"""Parity tests: fragment-cached realizer vs. the uncached render path.

The fragment cache must be invisible: every rendered string —
full speeches, prefixes, standalone facts, formatted values — is
byte-identical to :class:`UncachedRealizer`, which renders every
fragment from scratch, including on inputs engineered to collide under
naive cache keys (0.0 vs -0.0, True vs 1).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import Fact, Scope, Speech
from repro.system.queries import DataQuery
from repro.system.templates import SpeechRealizer, TargetPhrasing


class UncachedRealizer(SpeechRealizer):
    """Never serves a cached fragment (the oracle)."""

    def _fragment(self, cache, key):
        return None


def make_realizers():
    kwargs = dict(
        target_phrasings={
            "delay": TargetPhrasing(subject="the average delay", unit=" minutes"),
            "rate": TargetPhrasing(subject="the rate", unit="%", scale=100.0, decimals=0),
        },
        dimension_labels={"region": "region", "season": "the season"},
    )
    return (
        SpeechRealizer(**kwargs),
        UncachedRealizer(**kwargs),
    )


VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([0.0, -0.0, 1.0, 15.0, 0.004, -0.004, 123456.789]),
)
DIM_VALUES = st.sampled_from(["Winter", "Summer", "East", "West", True, 1, 0, "1", 2.5])
TARGETS = st.sampled_from(["delay", "rate", "on_time_percentage"])


def scopes(min_size=0):
    return st.dictionaries(
        st.sampled_from(["region", "season", "carrier_name"]),
        DIM_VALUES,
        min_size=min_size,
        max_size=3,
    )


class TestByteIdenticalRendering:
    @settings(max_examples=200, deadline=None)
    @given(
        target=TARGETS,
        query_predicates=scopes(),
        fact_values=st.lists(VALUES, min_size=0, max_size=4),
        fact_scopes=st.lists(scopes(), min_size=0, max_size=4),
    )
    def test_realize_identical(self, target, query_predicates, fact_values, fact_scopes):
        cached, uncached = make_realizers()
        query = DataQuery.create(target, query_predicates)
        facts = [
            Fact(scope=Scope(scope), value=value, support=1)
            for value, scope in zip(fact_values, fact_scopes)
        ]
        speech = Speech(facts)
        # Render twice with the cached realizer: first populates the
        # caches, second must serve from them — both byte-identical to
        # the uncached render.
        expected = uncached.realize(query, speech)
        assert cached.realize(query, speech) == expected
        assert cached.realize(query, speech) == expected
        assert cached.subset_prefix(query) == uncached.subset_prefix(query)

    @settings(max_examples=100, deadline=None)
    @given(target=TARGETS, value=VALUES)
    def test_format_value_identical(self, target, value):
        cached, uncached = make_realizers()
        expected = uncached.format_value(target, value)
        assert cached.format_value(target, value) == expected
        assert cached.format_value(target, value) == expected


class TestCacheKeyCollisions:
    def test_negative_zero_distinct_from_zero(self):
        cached, uncached = make_realizers()
        for value in (0.0, -0.0, 0.0):
            assert cached.format_value("delay", value) == uncached.format_value(
                "delay", value
            )

    def test_bool_scope_value_distinct_from_int(self):
        cached, uncached = make_realizers()
        for value in (True, 1, True):
            query = DataQuery.create("delay", {"cancelled": value})
            assert cached.subset_prefix(query) == uncached.subset_prefix(query)

    def test_negative_zero_scope_value_distinct_from_zero(self):
        cached, uncached = make_realizers()
        for value in (0.0, -0.0, 0.0):
            query = DataQuery.create("delay", {"threshold": value})
            assert cached.subset_prefix(query) == uncached.subset_prefix(query)
            fact = Fact(scope=Scope({"threshold": value}), value=5.0, support=1)
            assert cached.realize_fact("delay", fact) == uncached.realize_fact(
                "delay", fact
            )

    def test_int_scope_value_distinct_from_float(self):
        cached, uncached = make_realizers()
        for value in (1, 1.0):
            fact = Fact(scope=Scope({"month": value}), value=5.0, support=1)
            assert cached.realize_fact("delay", fact) == uncached.realize_fact(
                "delay", fact
            )


class TestCacheBehaviour:
    def test_repeated_speech_hits_sentence_cache(self):
        cached, _ = make_realizers()
        query = DataQuery.create("delay", {"season": "Winter"})
        fact = Fact(scope=Scope({"season": "Winter"}), value=15.0, support=4)
        first = cached.realize(query, Speech([fact]))
        assert cached._sentence_fragments  # populated
        assert cached.realize(query, Speech([fact])) == first

    def test_pickling_drops_caches(self):
        import pickle

        cached, uncached = make_realizers()
        query = DataQuery.create("delay", {"season": "Winter"})
        fact = Fact(scope=Scope({"season": "Winter"}), value=15.0, support=4)
        expected = uncached.realize(query, Speech([fact]))
        cached.realize(query, Speech([fact]))
        clone = pickle.loads(pickle.dumps(cached))
        assert not clone._sentence_fragments
        assert clone.realize(query, Speech([fact])) == expected
