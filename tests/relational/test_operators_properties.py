"""Property-based tests for the relational selection operator.

Over randomly generated small tables, selection matches row-wise
predicate evaluation, a conjunction selects what successive selections
do, and the selections of a column's values partition its non-NULL rows.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.relational.column import Column
from repro.relational.operators import select
from repro.relational.table import Table
from tests.relational.predicates import EqualsPredicate, conjunction_of_equalities

_CATEGORIES = ["a", "b", "c", None]


@st.composite
def small_tables(draw):
    """Random tables with two categorical dimensions and one numeric target."""
    num_rows = draw(st.integers(min_value=0, max_value=12))
    dim1 = draw(st.lists(st.sampled_from(_CATEGORIES), min_size=num_rows, max_size=num_rows))
    dim2 = draw(st.lists(st.sampled_from(_CATEGORIES), min_size=num_rows, max_size=num_rows))
    values = draw(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=num_rows,
            max_size=num_rows,
        )
    )
    return Table(
        "random",
        [
            Column.categorical("d1", dim1),
            Column.categorical("d2", dim2),
            Column.numeric("v", values),
        ],
    )


@settings(max_examples=60, deadline=None)
@given(table=small_tables(), value=st.sampled_from(["a", "b", "c"]))
def test_select_matches_rowwise_filter(table, value):
    predicate = EqualsPredicate("d1", value)
    result = select(table, predicate)
    expected = [row for row in table.iter_rows() if row["d1"] == value]
    assert result.to_dicts() == expected



@settings(max_examples=60, deadline=None)
@given(
    table=small_tables(),
    first=st.sampled_from(["a", "b", "c"]),
    second=st.sampled_from(["a", "b", "c"]),
)
def test_select_of_conjunction_matches_successive_selects(table, first, second):
    assignments = {"d1": first, "d2": second}
    once = select(table, conjunction_of_equalities(assignments))
    twice = select(select(table, EqualsPredicate("d1", first)), EqualsPredicate("d2", second))
    assert once == twice
    assert all(row["d1"] == first and row["d2"] == second for row in once.iter_rows())


@settings(max_examples=60, deadline=None)
@given(table=small_tables(), value=st.sampled_from(["a", "b", "c"]))
def test_select_partitions_non_null_rows(table, value):
    """Selecting each value of d1 in turn splits the non-NULL rows."""
    sizes = {v: select(table, EqualsPredicate("d1", v)).num_rows for v in ("a", "b", "c")}
    assert sum(sizes.values()) == table.num_rows - table.column("d1").values.count(None)
    assert select(table, EqualsPredicate("d1", value)).num_rows == sizes[value]
