"""Parity tests: vectorized fact enumeration vs. the per-row oracle.

`FactGenerator` replaces per-row Python set membership
(`PerRowFactGenerator`) with bincount/segment operations on the
relation's cached dimension codes.  It is an execution strategy, not a model change: facts must
match the reference path exactly — same order, same scopes, bitwise
identical values — across NULL dimension values, min_support filters
and arbitrary base scopes.  The scope rows it hands to the kernel must
lay out the same index `FactScopeIndex.build` resolves by regrouping.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernel import FactScopeIndex
from repro.core.model import SummarizationRelation
from repro.facts.generation import FactGenerator, PerRowFactGenerator
from repro.relational.column import Column
from repro.relational.table import Table


def random_relation(rng: np.random.Generator) -> SummarizationRelation:
    num_rows = int(rng.integers(5, 120))
    dimensions = ["a", "b", "c"][: int(rng.integers(1, 4))]
    columns = []
    for dim in dimensions:
        values = [
            None if rng.random() < 0.08 else f"{dim}{int(v)}"
            for v in rng.integers(0, 5, size=num_rows)
        ]
        columns.append(Column.categorical(dim, values))
    columns.append(Column.numeric("t", rng.normal(0.0, 10.0, size=num_rows)))
    return SummarizationRelation(Table("rand", columns), dimensions, "t")


_DIM1 = ["a", "b", "c", None]
_DIM2 = ["x", "y", None]


@st.composite
def hypothesis_relations(draw) -> SummarizationRelation:
    num_rows = draw(st.integers(min_value=3, max_value=14))
    dim1 = draw(st.lists(st.sampled_from(_DIM1), min_size=num_rows, max_size=num_rows))
    dim2 = draw(st.lists(st.sampled_from(_DIM2), min_size=num_rows, max_size=num_rows))
    values = draw(
        st.lists(
            st.floats(min_value=0, max_value=50, allow_nan=False),
            min_size=num_rows,
            max_size=num_rows,
        )
    )
    table = Table(
        "random",
        [
            Column.categorical("d1", dim1),
            Column.categorical("d2", dim2),
            Column.numeric("v", values),
        ],
    )
    return SummarizationRelation(table, ["d1", "d2"], "v")


def assert_identical_facts(generated, reference):
    assert len(generated.facts) == len(reference.facts)
    for fact, expected in zip(generated.facts, reference.facts):
        assert fact.scope == expected.scope
        assert fact.support == expected.support
        assert fact.value == expected.value  # bitwise, not approx


class TestVectorizedParity:
    def test_example_relation_matches_reference(self, example_relation):
        generated = FactGenerator(example_relation, max_extra_dimensions=2).generate()
        reference = PerRowFactGenerator(example_relation, max_extra_dimensions=2).generate()
        assert_identical_facts(generated, reference)

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_relations_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        relation = random_relation(rng)
        min_support = int(rng.integers(1, 4))
        base = {}
        if rng.random() < 0.5:
            dim = relation.dimensions[0]
            domain = relation.dimension_domain(dim)
            if domain:
                base[dim] = domain[0]
        kwargs = {"max_extra_dimensions": 2, "min_support": min_support}
        generated = FactGenerator(relation, **kwargs).generate(base_scope=base)
        reference = PerRowFactGenerator(relation, **kwargs).generate(base_scope=base)
        assert_identical_facts(generated, reference)

    @settings(max_examples=60, deadline=None)
    @given(
        relation=hypothesis_relations(),
        base=st.fixed_dictionaries(
            {}, optional={"d1": st.sampled_from(_DIM1[:-1]), "d2": st.sampled_from(_DIM2[:-1])}
        ),
        min_support=st.integers(min_value=1, max_value=3),
    )
    def test_hypothesis_relations_match_reference(self, relation, base, min_support):
        """Property: small relations with NULL dimension values, random
        base scopes and support floors give the oracle's facts, and the
        rows the generator hands on lay out the index the regrouping
        build resolves, array for array."""
        kwargs = {"max_extra_dimensions": 2, "min_support": min_support}
        generated = FactGenerator(relation, **kwargs).generate(base)
        reference = PerRowFactGenerator(relation, **kwargs).generate(base)
        assert_identical_facts(generated, reference)

        seeded = generated.scope_index(relation)
        rebuilt = FactScopeIndex.build(relation, generated.facts)
        for name in ("row_indices", "offsets", "fact_ids", "supports"):
            np.testing.assert_array_equal(getattr(seeded, name), getattr(rebuilt, name))
            assert getattr(seeded, name).dtype == getattr(rebuilt, name).dtype
        for name in ("values", "fact_errors"):
            assert getattr(seeded, name).tobytes() == getattr(rebuilt, name).tobytes()
        assert list(seeded.groups) == list(rebuilt.groups)
        for columns, ids in seeded.groups.items():
            np.testing.assert_array_equal(ids, rebuilt.groups[columns])
        target = relation.target_values
        for fact_id, fact in enumerate(generated.facts):
            assert fact.value == float(target[seeded.rows_of(fact_id)].mean())  # bitwise

    def test_base_scope_value_absent_from_data(self, example_relation):
        for generator in (FactGenerator, PerRowFactGenerator):
            generated = generator(example_relation).generate(
                base_scope={"region": "Atlantis"}
            )
            assert generated.count == 0

    def test_min_support_filters_identically(self, example_relation):
        kwargs = {"max_extra_dimensions": 2, "min_support": 2}
        generated = FactGenerator(example_relation, **kwargs).generate()
        reference = PerRowFactGenerator(example_relation, **kwargs).generate()
        assert_identical_facts(generated, reference)
        assert generated.count == 9
