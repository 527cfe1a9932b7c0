"""Parity tests: the realizer vs. a reference renderer, and no retained text.

:class:`SpeechRealizer` renders each sentence straight from its fact and
the query's predicate map and keeps no rendered fragment.  Every string
it renders — full speeches, prefixes, standalone facts, formatted
values — must be byte-identical to :class:`ReferenceRealizer`, which
renders as the fragment-caching realizer did: it builds the query's
:class:`Scope`, keeps the fact's items the scope does not fix
(``restricts``/``value``) and sorts them.  The inputs include values
that compare equal but render differently (0.0 vs -0.0, True vs 1 vs
1.0, "1" vs 1), on the query side and on the fact side.
"""

from __future__ import annotations

import gc
import math
import pickle
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import Fact, Scope, Speech
from repro.system.queries import DataQuery
from repro.system.templates import SpeechRealizer, TargetPhrasing

PHRASINGS = {
    "delay": TargetPhrasing(subject="the average delay", unit=" minutes"),
    "rate": TargetPhrasing(subject="the rate", unit="%", scale=100.0, decimals=0),
}
LABELS = {"region": "region", "season": "the season"}


class ReferenceRealizer:
    """The scope-filtering renderer the realizer must match byte for byte."""

    def __init__(self, target_phrasings, dimension_labels):
        self._phrasings = dict(target_phrasings)
        self._dimension_labels = dict(dimension_labels)

    def realize(self, query: DataQuery, speech: Speech) -> str:
        prefix = self.subset_prefix(query)
        base_scope = query.scope()
        sentences = [
            self._sentence(query.target, fact, base_scope, position == 0)
            for position, fact in enumerate(speech.facts)
        ]
        body = " ".join(sentences) if sentences else "No summary is available."
        return f"{prefix} {body}".strip() if prefix else body

    def subset_prefix(self, query: DataQuery) -> str:
        if not query.predicates:
            return ""
        return f"For {self._join([self._item(c, v) for c, v in query.predicates])}:"

    def realize_fact(self, target: str, fact: Fact) -> str:
        return self._sentence(target, fact, Scope(), leading=True)

    def format_value(self, target: str, value: float) -> str:
        phrasing = self._phrasing(target)
        scaled = value * phrasing.scale
        decimals = phrasing.decimals
        if scaled != 0.0 and abs(scaled) < 10 ** (-decimals):
            decimals = max(decimals, 2 - int(math.floor(math.log10(abs(scaled)))))
        formatted = f"{scaled:.{decimals}f}"
        if "." in formatted:
            formatted = formatted.rstrip("0").rstrip(".")
        return f"{formatted}{phrasing.unit}"

    def _phrasing(self, target: str) -> TargetPhrasing:
        return self._phrasings.get(target) or TargetPhrasing(
            subject=f"the average {target.replace('_', ' ')}"
        )

    def _item(self, column, value) -> str:
        return f"{self._dimension_labels.get(column, column.replace('_', ' '))} {value}"

    @staticmethod
    def _join(parts: list[str]) -> str:
        if not parts:
            return ""
        if len(parts) == 1:
            return parts[0]
        return ", ".join(parts[:-1]) + " and " + parts[-1]

    def _sentence(self, target: str, fact: Fact, base_scope: Scope, leading: bool) -> str:
        subject = self._phrasing(target).subject
        value_text = self.format_value(target, fact.value)
        extra = {
            col: val
            for col, val in fact.scope.assignments.items()
            if not (base_scope.restricts(col) and base_scope.value(col) == val)
        }
        scope_text = self._join([self._item(c, v) for c, v in sorted(extra.items())])
        if leading:
            if scope_text:
                return f"{subject.capitalize()} for {scope_text} is {value_text}."
            return f"{subject.capitalize()} is {value_text} overall."
        if scope_text:
            return f"It is {value_text} for {scope_text}."
        return f"It is {value_text} overall."


def make_realizers():
    return (
        SpeechRealizer(target_phrasings=PHRASINGS, dimension_labels=LABELS),
        ReferenceRealizer(PHRASINGS, LABELS),
    )


VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([0.0, -0.0, 1.0, 15.0, 0.004, -0.004, 123456.789]),
)
#: Dimension values, including ones that compare equal but render
#: differently.
DIM_VALUES = st.sampled_from(
    ["Winter", "Summer", "East", "West", True, 1, 1.0, 0, 0.0, -0.0, "1", 2.5]
)
COLUMNS = ["region", "season", "carrier_name"]
TARGETS = st.sampled_from(["delay", "rate", "on_time_percentage"])


def scopes():
    return st.dictionaries(st.sampled_from(COLUMNS), DIM_VALUES, max_size=3)


@st.composite
def fact_scopes(draw, query_predicates):
    """A fact scope that may restrict a query column to its value or to another."""
    scope = draw(scopes())
    for column, value in query_predicates.items():
        choice = draw(st.sampled_from(["same", "other", "keep"]))
        if choice == "same":
            scope[column] = value
        elif choice == "other":
            scope[column] = draw(DIM_VALUES)
    return scope


class TestByteIdenticalRendering:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), target=TARGETS, query_predicates=scopes())
    def test_realize_identical(self, data, target, query_predicates):
        realizer, reference = make_realizers()
        query = DataQuery.create(target, query_predicates)
        count = data.draw(st.integers(min_value=0, max_value=4))
        facts = [
            Fact(
                scope=Scope(data.draw(fact_scopes(query_predicates))),
                value=data.draw(VALUES),
                support=1,
            )
            for _ in range(count)
        ]
        speech = Speech(facts)
        expected = reference.realize(query, speech)
        assert realizer.realize(query, speech) == expected
        assert realizer.realize(query, speech) == expected
        assert realizer.subset_prefix(query) == reference.subset_prefix(query)
        for fact in facts:
            assert realizer.realize_fact(target, fact) == reference.realize_fact(target, fact)

    @settings(max_examples=100, deadline=None)
    @given(target=TARGETS, value=VALUES)
    def test_format_value_identical(self, target, value):
        realizer, reference = make_realizers()
        assert realizer.format_value(target, value) == reference.format_value(target, value)


class TestCacheKeyCollisions:
    """Values that compare (and hash) equal but render differently."""

    def test_negative_zero_distinct_from_zero(self):
        realizer, reference = make_realizers()
        assert realizer.format_value("delay", -0.0) == "-0 minutes"
        for value in (0.0, -0.0, 0.0):
            assert realizer.format_value("delay", value) == reference.format_value(
                "delay", value
            )

    def test_bool_scope_value_distinct_from_int(self):
        realizer, reference = make_realizers()
        for value in (True, 1, True):
            query = DataQuery.create("delay", {"cancelled": value})
            assert realizer.subset_prefix(query) == f"For cancelled {value}:"
            assert realizer.subset_prefix(query) == reference.subset_prefix(query)

    def test_negative_zero_scope_value_distinct_from_zero(self):
        realizer, reference = make_realizers()
        for value in (0.0, -0.0, 0.0):
            query = DataQuery.create("delay", {"threshold": value})
            assert realizer.subset_prefix(query) == reference.subset_prefix(query)
            fact = Fact(scope=Scope({"threshold": value}), value=5.0, support=1)
            assert realizer.realize_fact("delay", fact) == reference.realize_fact(
                "delay", fact
            )

    def test_int_scope_value_distinct_from_float(self):
        realizer, reference = make_realizers()
        for value in (1, 1.0):
            fact = Fact(scope=Scope({"month": value}), value=5.0, support=1)
            text = realizer.realize_fact("delay", fact)
            assert text == f"The average delay for month {value} is 5 minutes."
            assert text == reference.realize_fact("delay", fact)

    def test_equal_query_value_suppresses_the_fact_item(self):
        realizer, reference = make_realizers()
        # True == 1 == 1.0: the query fixes the column, so the fact's
        # item is not repeated whichever of the three either side holds.
        for query_value, fact_value in ((True, 1), (1, 1.0), (1.0, True)):
            query = DataQuery.create("delay", {"month": query_value})
            fact = Fact(scope=Scope({"month": fact_value}), value=5.0, support=1)
            text = realizer.realize(query, Speech([fact]))
            assert text == f"For month {query_value}: The average delay is 5 minutes overall."
            assert text == reference.realize(query, Speech([fact]))
        # "1" != 1: the fact restricts the column to another value.
        query = DataQuery.create("delay", {"month": "1"})
        fact = Fact(scope=Scope({"month": 1}), value=5.0, support=1)
        assert realizer.realize(query, Speech([fact])) == reference.realize(
            query, Speech([fact])
        )
        assert "for month 1 is" in realizer.realize(query, Speech([fact]))


class TestCacheBehaviour:
    def test_pickle_round_trip_renders_the_same_text(self):
        realizer, reference = make_realizers()
        query = DataQuery.create("delay", {"season": "Winter"})
        speech = Speech(
            [
                Fact(scope=Scope({"season": "Winter"}), value=15.0, support=4),
                Fact(scope=Scope({"season": "Winter", "region": "East"}), value=9.0, support=2),
            ]
        )
        expected = reference.realize(query, speech)
        assert realizer.realize(query, speech) == expected
        clone = pickle.loads(pickle.dumps(realizer))
        assert clone.realize(query, speech) == expected
        assert clone.realize_fact("on_time", speech.facts[1]) == realizer.realize_fact(
            "on_time", speech.facts[1]
        )

    def test_realizer_keeps_no_per_speech_state(self):
        realizer, _ = make_realizers()
        targets = ["delay", "rate", "on_time_percentage"]
        cases = []
        for i in range(2000):
            query = DataQuery.create(
                targets[i % 3], {"region": f"R{i % 37}", "season": f"S{i // 37}"}
            )
            _ = query.predicate_map  # built (and kept) by the query, not the realizer
            facts = [
                Fact(scope=Scope({"region": f"R{i % 37}"}), value=i + 0.5, support=1),
                Fact(scope=Scope({"carrier_name": f"C{i}"}), value=i / 7, support=1),
            ]
            cases.append((query, Speech(facts)))
        realizer.realize(*cases[0])  # the first call's one-off allocations
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for query, speech in cases:
                realizer.realize(query, speech)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024, retained
