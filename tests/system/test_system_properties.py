"""Property-based tests for the system layer.

Three invariants the deployment relies on are checked over randomly
generated inputs:

* the speech store's most-specific-match rule (S ⊆ Q with |S| maximal),
* lossless persistence of arbitrary stores,
* equivalence of incremental maintenance and a full rebuild.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.model import Fact, Scope, Speech
from repro.core.priors import ZeroPrior
from repro.relational.column import ColumnType
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.persistence import store_from_dict, store_to_dict
from repro.system.preprocessor import Preprocessor
from repro.system.problem_generator import ProblemGenerator
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore, StoredSpeech
from repro.system.updates import IncrementalMaintainer

_DIMENSIONS = ["region", "season"]
_VALUES = {"region": ["East", "West", "North"], "season": ["Winter", "Summer"]}


def _predicate_strategy():
    """Random predicate mappings over the two toy dimensions."""
    return st.fixed_dictionaries(
        {},
        optional={
            "region": st.sampled_from(_VALUES["region"]),
            "season": st.sampled_from(_VALUES["season"]),
        },
    )


@st.composite
def stores_and_queries(draw):
    """A random store plus a random lookup query over the same vocabulary."""
    entries = draw(st.lists(_predicate_strategy(), min_size=1, max_size=8))
    store = SpeechStore()
    for predicates in entries:
        query = DataQuery.create("delay", predicates)
        fact = Fact(scope=Scope(predicates), value=1.0, support=1)
        store.add(StoredSpeech(query=query, speech=Speech([fact]), text=str(predicates)))
    lookup = DataQuery.create("delay", draw(_predicate_strategy()))
    return store, lookup


@settings(max_examples=80, deadline=None)
@given(data=stores_and_queries())
def test_best_match_is_most_specific_containing_subset(data):
    store, lookup = data
    match = store.best_match(lookup)
    stored_queries = [s.query for s in store]
    containing = [q for q in stored_queries if lookup.is_refinement_of(q)]
    if not containing:
        assert match is None
        return
    assert match is not None
    # The matched subset contains the query...
    assert lookup.is_refinement_of(match.stored.query)
    # ...and no containing stored subset is more specific.
    best_length = max(q.length for q in containing)
    assert match.stored.query.length == best_length


@settings(max_examples=60, deadline=None)
@given(data=stores_and_queries())
def test_persistence_round_trip_preserves_lookups(data):
    store, lookup = data
    restored, _ = store_from_dict(store_to_dict(store))
    assert len(restored) == len(store)
    original = store.best_match(lookup)
    reloaded = restored.best_match(lookup)
    if original is None:
        assert reloaded is None
    else:
        assert reloaded is not None
        assert reloaded.stored.query == original.stored.query
        assert reloaded.stored.speech == original.stored.speech


def _rows_strategy(min_size: int, max_size: int):
    return st.lists(
        st.tuples(
            st.sampled_from(_VALUES["region"]),
            st.sampled_from(_VALUES["season"]),
            st.floats(min_value=0, max_value=60, allow_nan=False),
        ),
        min_size=min_size,
        max_size=max_size,
    )


@settings(max_examples=20, deadline=None)
@given(initial=_rows_strategy(6, 14), appended=_rows_strategy(1, 5))
def test_incremental_maintenance_matches_full_rebuild(initial, appended):
    def build_table(rows) -> Table:
        return Table.from_rows(
            "delays",
            ["region", "season", "delay"],
            [ColumnType.CATEGORICAL, ColumnType.CATEGORICAL, ColumnType.NUMERIC],
            rows,
        )

    config = SummarizationConfig.create(
        "delays",
        dimensions=tuple(_DIMENSIONS),
        targets=("delay",),
        max_query_length=1,
        max_facts_per_speech=2,
        max_fact_dimensions=1,
        algorithm="G-B",
    )
    base_table = build_table(initial)
    generator = ProblemGenerator(config, base_table, prior=ZeroPrior())
    store, _ = Preprocessor(config).run(generator)

    maintainer = IncrementalMaintainer(config, base_table, prior=ZeroPrior())
    maintainer.maintain(build_table(appended), store)

    full_generator = ProblemGenerator(config, build_table(initial + appended), prior=ZeroPrior())
    full_store, _ = Preprocessor(config).run(full_generator)

    assert len(store) >= len(full_store)
    for stored in full_store:
        incremental = store.exact_match(stored.query)
        assert incremental is not None
        assert abs(incremental.utility - stored.utility) < 1e-6
