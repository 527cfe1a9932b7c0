"""One batched grouping pass equals the per-combination oracle.

:meth:`SummarizationRelation.group_layouts` groups the rows by many
column combinations at once.  For every combination it must give the
``(inverse, order, offsets)`` that ``tests/core/grouping_oracle.py``
computes with one sort per combination, whatever the codes look like:
NULL values, seeded parent codes whose numbering does not follow first
appearance, code tables wide enough to overflow an int64 radix code,
and single-row relations.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import SummarizationRelation, factorize
from repro.relational.column import Column
from repro.relational.table import Table
from tests.core.grouping_oracle import group

DIMENSIONS = ("a", "b", "c", "d")
VALUES = ["x", "y", "z", "w", None]


class _WideDecode(list):
    """A code table that claims 2**32 entries: two such columns overflow the radix."""

    def __len__(self) -> int:
        return 2**32


@st.composite
def relations(draw) -> SummarizationRelation:
    n = draw(st.integers(min_value=1, max_value=30))
    cells = {}
    for d in DIMENSIONS:
        domain = VALUES[: draw(st.integers(1, 5))]
        cells[d] = draw(st.lists(st.sampled_from(domain), min_size=n, max_size=n))
    table = Table(
        "t",
        [Column.categorical(d, cells[d]) for d in DIMENSIONS]
        + [Column.numeric("v", list(range(n)))],
    )
    seeded = {}
    for d in DIMENSIONS:
        if not draw(st.booleans()):
            continue
        # A parent numbering: values absent from the rows, in any order.
        parent = draw(st.permutations(VALUES + ["p", "q"]))
        code_of = {value: code for code, value in enumerate(parent)}
        codes = np.array([code_of[value] for value in cells[d]], dtype=np.int64)
        decode = _WideDecode(parent) if draw(st.booleans()) else list(parent)
        seeded[d] = (codes, decode, code_of)
    return SummarizationRelation(table, list(DIMENSIONS), "v", codes=seeded)


ALL_COMBINATIONS = [
    combination for arity in range(4) for combination in combinations(DIMENSIONS, arity)
]


def assert_same_layout(got, expected, columns):
    for name, g, e in zip(("inverse", "order", "offsets"), got, expected):
        np.testing.assert_array_equal(g, e, err_msg=f"{name} of {columns}")
        assert g.dtype == e.dtype, (name, columns)


@settings(max_examples=150, deadline=None)
@given(
    relation=relations(),
    chosen=st.lists(st.sampled_from(ALL_COMBINATIONS), min_size=1, max_size=8, unique=True),
    data=st.data(),
)
def test_batched_pass_matches_the_oracle(relation, chosen, data):
    """Property: every combination of one batched pass (columns in any
    order) is laid out as the oracle lays it out alone."""
    batch = [tuple(data.draw(st.permutations(columns))) for columns in chosen]
    layouts = relation.group_layouts(batch)
    n = relation.num_rows
    assert layouts.bounds[0] == 0 and layouts.offsets[0] == 0
    assert layouts.order.size == n * len(batch)
    for c, columns in enumerate(batch):
        expected = group(relation, columns)
        assert_same_layout(relation.group_layout(columns), expected, columns)
        lo, hi = layouts.bounds[c], layouts.bounds[c + 1]
        np.testing.assert_array_equal(layouts.offsets[lo : hi + 1] - c * n, expected[2])
        np.testing.assert_array_equal(layouts.order[c * n : (c + 1) * n], expected[1])


@settings(max_examples=60, deadline=None)
@given(relation=relations(), columns=st.sampled_from(ALL_COMBINATIONS))
def test_single_combination_matches_the_oracle(relation, columns):
    """A cache miss groups one combination through the same pass."""
    assert_same_layout(relation.group_layout(columns), group(relation, columns), columns)


def test_wide_combinations_really_overflow_the_radix():
    """The strategy's wide code tables do reach the dense-rank keys."""
    codes, decode, code_of = factorize(["x", "y", "x"])
    wide = (codes, _WideDecode(decode), code_of)
    table = Table(
        "t",
        [Column.categorical("a", ["x", "y", "x"]), Column.categorical("b", ["x", "y", "x"])]
        + [Column.numeric("v", [1, 2, 3])],
    )
    relation = SummarizationRelation(table, ["a", "b"], "v", codes={"a": wide, "b": wide})
    assert len(wide[1]) ** 2 > 2**62
    assert_same_layout(relation.group_layout(("a", "b")), group(relation, ("a", "b")), ("a", "b"))


def test_no_rows_and_no_combinations():
    """All-NULL targets leave no rows: no groups, except the empty
    combination's single group; an empty batch lays out nothing."""
    table = Table("t", [Column.categorical("a", ["x", "y"]), Column.numeric("v", [None, None])])
    relation = SummarizationRelation(table, ["a"], "v")
    for columns in ((), ("a",)):
        assert_same_layout(relation.group_layout(columns), group(relation, columns), columns)
    empty = relation.group_layouts([])
    assert empty.order.size == 0 and empty.offsets.tolist() == [0] and empty.bounds.tolist() == [0]


@settings(max_examples=120, deadline=None)
@given(
    relation=relations(),
    batch=st.lists(st.sampled_from(ALL_COMBINATIONS[1:]), max_size=6, unique=True),
    chosen=st.lists(st.sampled_from(ALL_COMBINATIONS), max_size=6),
)
def test_stacked_group_ids_number_each_combination_after_the_ones_before(
    relation, batch, chosen
):
    """Combinations of an earlier pass, of no pass, repeated ones and the
    empty one: block ``k`` is the oracle's inverse shifted by the groups
    of the blocks before it."""
    if batch:
        relation.group_layouts(batch)
    ids, starts = relation.stacked_group_ids(chosen)
    n = relation.num_rows
    assert ids.size == n * len(chosen) and starts.size == len(chosen)
    total = 0
    for k, columns in enumerate(chosen):
        inverse, _, offsets = group(relation, columns)
        assert starts[k] == total
        np.testing.assert_array_equal(ids[k * n : (k + 1) * n], inverse + total)
        total += offsets.size - 1


@settings(max_examples=120, deadline=None)
@given(relation=relations(), batched=st.lists(st.sampled_from(DIMENSIONS), unique=True))
def test_census_after_a_pass_counts_the_codes_present(relation, batched):
    """A single column's census read off a grouping pass (or off a
    one-value code table) equals counting its codes."""
    relation.group_layouts([(column,) for column in batched])
    for column in DIMENSIONS:
        codes, _, code_of = relation.dimension_codes(column)
        present = set(codes.tolist())
        non_null = len(present) - int(code_of.get(None) in present)
        assert relation.distinct_count(column) == non_null
        assert relation.is_constant(column) == (len(present) <= 1)
