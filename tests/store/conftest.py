"""Shared strategies for the compact-store tests.

The generators deliberately draw predicate values across Python's
cross-type equality classes (``1 == 1.0 == True``) because the dict
store keys on raw values — the compact store's canonical value tokens
must collapse exactly the same classes or lookups diverge.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.model import Fact, Scope, Speech
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore, StoredSpeech

COLUMNS = ("region", "season", "carrier", "month")
#: Enough columns for queries past the compact store's subset-enumeration
#: threshold (6 predicates), so its posting-list path is drawn too.
WIDE_COLUMNS = COLUMNS + ("airport", "weekday", "hour", "origin", "dest")
TARGETS = ("delay", "cancellation")

finite_floats = st.floats(allow_nan=False, allow_infinity=False)

#: Values usable in query predicates and fact scopes.
predicate_values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5, -0.0, 1e300]),
    st.sampled_from(["East", "West", "North", "", "Winter"]),
    st.none(),
)


@st.composite
def stored_speeches(draw) -> StoredSpeech:
    target = draw(st.sampled_from(TARGETS))
    columns = draw(
        st.lists(st.sampled_from(COLUMNS), unique=True, min_size=0, max_size=4)
    )
    predicates = {column: draw(predicate_values) for column in columns}
    facts = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        scope_columns = draw(
            st.lists(st.sampled_from(COLUMNS), unique=True, max_size=2)
        )
        scope = Scope({column: draw(predicate_values) for column in scope_columns})
        facts.append(
            Fact(
                scope=scope,
                value=draw(finite_floats),
                support=draw(st.integers(min_value=1, max_value=100)),
            )
        )
    return StoredSpeech(
        query=DataQuery.create(target, predicates),
        speech=Speech(facts),
        text=draw(st.text(max_size=12)),
        utility=draw(finite_floats),
        scaled_utility=draw(finite_floats),
        algorithm=draw(st.sampled_from(["", "G-B", "greedy"])),
    )


@st.composite
def stores(draw, min_size: int = 0, max_size: int = 12) -> SpeechStore:
    """A random dict store, including same-key replacements."""
    store = SpeechStore()
    for spec in draw(
        st.lists(stored_speeches(), min_size=min_size, max_size=max_size)
    ):
        store.add(spec)
    return store


@st.composite
def queries(draw, store: SpeechStore) -> DataQuery:
    """A query biased toward stored keys, supersets and near-misses."""
    stored = list(store)
    if stored and draw(st.booleans()):
        base = draw(st.sampled_from(stored)).query
        predicates = dict(base.predicates)
        if draw(st.booleans()):
            extra = draw(st.sampled_from(COLUMNS))
            predicates.setdefault(extra, draw(predicate_values))
        if predicates and draw(st.booleans()):
            predicates.pop(draw(st.sampled_from(sorted(predicates))))
        return DataQuery.create(base.target, predicates)
    target = draw(st.sampled_from(TARGETS))
    columns = draw(
        st.lists(st.sampled_from(COLUMNS), unique=True, min_size=0, max_size=4)
    )
    return DataQuery.create(
        target, {column: draw(predicate_values) for column in columns}
    )


@st.composite
def long_queries(draw, store: SpeechStore) -> DataQuery:
    """A 7-9 predicate query built over up to three stored keys of one target.

    The stored keys it contains compete for the longest match.
    """
    stored = list(store)
    target = draw(st.sampled_from([s.query.target for s in stored] or TARGETS))
    same_target = [s for s in stored if s.query.target == target]
    predicates = {}
    if same_target:
        for base in draw(st.lists(st.sampled_from(same_target), max_size=3)):
            for column, value in base.query.predicates:
                predicates.setdefault(column, value)
    free = [column for column in WIDE_COLUMNS if column not in predicates]
    length = draw(st.integers(min_value=7, max_value=len(WIDE_COLUMNS)))
    for column in draw(st.permutations(free))[: length - len(predicates)]:
        predicates[column] = draw(predicate_values)
    return DataQuery.create(target, predicates)
