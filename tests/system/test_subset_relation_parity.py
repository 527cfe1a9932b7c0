"""The generator's code-derived subset relation equals ``select`` + a fresh relation.

:meth:`ProblemGenerator.build_problem` finds a query's rows on the
table's cached column codes and seeds the subset relation with those
codes (:func:`subset_relation` takes that path alone).  These
properties pin it to the row-by-row oracle on random tables: NULL
dimensions and targets, predicate values absent from the column, and
values equal across types (``1 == 1.0 == True``).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidProblemError
from repro.core.model import Scope, SummarizationRelation
from repro.relational.column import ColumnType
from repro.relational.operators import select
from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.problem_generator import ProblemGenerator
from repro.system.queries import DataQuery
from tests.relational.predicates import conjunction_of_equalities

DIMENSIONS = ("airline", "hub", "gate")
CATEGORIES = ["a", "b", "1", "True", None]
NUMBERS = [0.0, 1.0, 2.5, None]
#: Predicate values: present, absent, NULL, and cross-type equal ones.
PREDICATE_VALUES = ["a", "b", "1", "True", "zzz", None, 0, 1, 1.0, True, False, 2.5, 99]


@st.composite
def tables(draw) -> Table:
    rows = draw(st.integers(min_value=0, max_value=24))
    cells = {
        "airline": draw(st.lists(st.sampled_from(CATEGORIES), min_size=rows, max_size=rows)),
        "hub": draw(st.lists(st.sampled_from(CATEGORIES), min_size=rows, max_size=rows)),
        # A numeric dimension: stored as floats, so 1 and True match 1.0.
        "gate": draw(st.lists(st.sampled_from(NUMBERS), min_size=rows, max_size=rows)),
        "delay": draw(
            st.lists(
                st.one_of(st.none(), st.sampled_from([0.0, 1.5, 10.0, -3.25])),
                min_size=rows,
                max_size=rows,
            )
        ),
    }
    types = {
        "airline": ColumnType.CATEGORICAL,
        "hub": ColumnType.CATEGORICAL,
        "gate": ColumnType.NUMERIC,
        "delay": ColumnType.NUMERIC,
    }
    return Table.from_dict("flights", cells, types)


predicate_maps = st.dictionaries(
    st.sampled_from(DIMENSIONS), st.sampled_from(PREDICATE_VALUES), max_size=3
)


def generator_for(table: Table, min_subset_rows: int) -> ProblemGenerator:
    config = SummarizationConfig.create(
        "flights", dimensions=DIMENSIONS, targets=("delay",), max_query_length=3
    )
    return ProblemGenerator(config, table, min_subset_rows=min_subset_rows)


def subset_relation(generator: ProblemGenerator, query: DataQuery):
    """The relation ``build_problem`` summarizes for ``query``; None when too small.

    Its table is the one ``select`` returns for the query's predicates,
    named ``<table>_subset``; ``min_subset_rows`` counts its rows before
    the relation drops NULL-target rows.  The rows are found on the
    table's cached column codes, and the relation inherits those codes
    and the cached target floats at the rows instead of reading its
    columns.
    """
    rows = generator._subset_rows(query.predicate_map)
    if rows.size < generator._min_subset_rows:
        return None
    return generator._relation_at(rows, query)


def oracle(table: Table, predicates: dict, min_subset_rows: int):
    """The historical path: ``select`` the subset, then a fresh relation."""
    predicate = conjunction_of_equalities(predicates)
    subset = select(table, predicate, name=f"{table.name}_subset")
    if subset.num_rows < min_subset_rows:
        return None
    return SummarizationRelation(subset, list(DIMENSIONS), "delay")


def outcome(build):
    try:
        return build()
    except InvalidProblemError as exc:
        return ("error", str(exc))


def typed(values) -> list[tuple[str, str]]:
    """Values with their types, so 1.0 and True do not compare equal."""
    return [(type(value).__name__, repr(value)) for value in values]


def assert_same_relation(actual: SummarizationRelation, expected: SummarizationRelation):
    assert actual.name == expected.name
    assert actual.table.name == expected.table.name
    assert actual.num_rows == expected.num_rows
    for column in expected.table.column_names:
        assert typed(actual.table.column(column)) == typed(expected.table.column(column))
    assert actual.target_values.tobytes() == expected.target_values.tobytes()
    for length in range(len(DIMENSIONS) + 1):
        for columns in combinations(DIMENSIONS, length):
            inverse = actual.group_layout(columns)[0]
            expected_inverse = expected.group_layout(columns)[0]
            assert np.array_equal(inverse, expected_inverse), columns
            keys, expected_keys = actual.group_keys(columns), expected.group_keys(columns)
            assert [typed(key) for key in keys] == [typed(key) for key in expected_keys]


@settings(max_examples=150, deadline=None)
@given(
    table=tables(),
    predicates=predicate_maps,
    min_subset_rows=st.integers(min_value=0, max_value=3),
)
def test_subset_relation_matches_select(table, predicates, min_subset_rows):
    generator = generator_for(table, min_subset_rows)
    query = DataQuery.create("delay", predicates)
    actual = outcome(lambda: subset_relation(generator, query))
    expected = outcome(lambda: oracle(table, predicates, min_subset_rows))
    if expected is None or isinstance(expected, tuple):
        assert actual == expected
        return
    assert isinstance(actual, SummarizationRelation)
    assert_same_relation(actual, expected)


@settings(max_examples=60, deadline=None)
@given(
    table=tables(),
    predicates=predicate_maps,
    scope=st.dictionaries(st.sampled_from(DIMENSIONS), st.sampled_from(PREDICATE_VALUES)),
)
def test_scope_masks_match_on_inherited_codes(table, predicates, scope):
    """Inherited codes may list values the subset lacks; masks must not care."""
    generator = generator_for(table, 1)
    expected = outcome(lambda: oracle(table, predicates, 1))
    if not isinstance(expected, SummarizationRelation):
        return
    actual = subset_relation(generator, DataQuery.create("delay", predicates))
    assert np.array_equal(actual.scope_mask(Scope(scope)), expected.scope_mask(Scope(scope)))
