"""Parity tests: vectorized fact enumeration vs. the per-row oracle.

`FactGenerator` replaces per-row Python set membership
(`tests.facts.per_row_generator.PerRowFactGenerator`) with bincount/segment operations on the
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

from repro.core.expectation import ClosestRelevantFactModel
from repro.core.kernel import FactScopeIndex
from repro.core.model import SummarizationRelation
from repro.core.priors import GlobalAveragePrior
from repro.core.problem import SummarizationProblem
from repro.facts.generation import FactGenerator
from repro.relational.column import Column
from repro.relational.table import Table
from tests.facts.per_row_generator import PerRowFactGenerator


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
_DIM3 = ["p", "q"]
_DIM4 = ["m", "n", "o", None]


@st.composite
def hypothesis_relations(draw) -> SummarizationRelation:
    num_rows = draw(st.integers(min_value=3, max_value=14))
    domains = {"d1": _DIM1, "d2": _DIM2, "d3": _DIM3, "d4": _DIM4}
    columns = [
        Column.categorical(
            dim, draw(st.lists(st.sampled_from(domain), min_size=num_rows, max_size=num_rows))
        )
        for dim, domain in domains.items()
    ]
    values = draw(
        st.lists(
            st.floats(min_value=0, max_value=50, allow_nan=False),
            min_size=num_rows,
            max_size=num_rows,
        )
    )
    table = Table("random", [*columns, Column.numeric("v", values)])
    return SummarizationRelation(table, list(domains), "v")


#: Optional base scopes over the relations' dimensions.
_BASES = st.fixed_dictionaries(
    {},
    optional={
        "d1": st.sampled_from(_DIM1[:-1]),
        "d2": st.sampled_from(_DIM2[:-1]),
        "d3": st.sampled_from(_DIM3),
    },
)


def by_group(generated) -> dict:
    """The generated facts keyed by fact group, each group read as one slice."""
    return {
        group: generated.facts[ids.start : ids.stop]
        for group, ids in generated.group_ranges.items()
    }


def facts_in_groups(generated, groups) -> list:
    """The facts of any of ``groups``, in generation order."""
    wanted = set(groups)
    return [fact for group, facts in by_group(generated).items() if group in wanted for fact in facts]


def scope_rows(index: FactScopeIndex, fact_id: int) -> np.ndarray:
    """Scope row indices of fact ``fact_id`` in the CSR index (ascending)."""
    return index.row_indices[index.offsets[fact_id] : index.offsets[fact_id + 1]]


def assert_identical_facts(generated, reference):
    assert len(generated.facts) == len(reference.facts)
    for fact, expected in zip(generated.facts, reference.facts):
        assert_same_fact(fact, expected)


def assert_same_fact(fact, expected):
    assert fact == expected
    assert hash(fact) == hash(expected)
    assert fact.scope == expected.scope
    assert fact.support == expected.support
    assert fact.value.hex() == expected.value.hex()  # bitwise, not approx


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
        base=_BASES,
        other=_BASES,
        max_extra=st.integers(min_value=0, max_value=3),
    )
    def test_a_warm_group_cache_gives_the_fresh_facts(self, relation, base, other, max_extra):
        """Fact groups a generator built for another base scope (maybe
        the same shape) change nothing in the facts or their index."""
        cache = {}
        FactGenerator(relation, max_extra, group_cache=cache).generate(other)
        warm = FactGenerator(relation, max_extra, group_cache=cache).generate(base)
        fresh = FactGenerator(relation, max_extra).generate(base)
        assert_identical_facts(warm, fresh)
        assert warm.group_ranges == fresh.group_ranges
        assert warm.index_keys == fresh.index_keys
        warm_index, fresh_index = warm.scope_index(relation), fresh.scope_index(relation)
        assert warm_index.groups.keys() == fresh_index.groups.keys()

    @settings(max_examples=100, deadline=None)
    @given(
        relation=hypothesis_relations(),
        base=_BASES,
        min_support=st.integers(min_value=1, max_value=3),
        max_extra=st.integers(min_value=0, max_value=3),
    )
    def test_hypothesis_relations_match_reference(self, relation, base, min_support, max_extra):
        """Property: small relations with NULL dimension values, random
        base scopes, support floors and facts restricting up to three
        extra columns give the oracle's facts, and the rows the
        generator hands on lay out the index the regrouping build
        resolves, array for array."""
        kwargs = {"max_extra_dimensions": max_extra, "min_support": min_support}
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
            assert fact.value == float(target[scope_rows(seeded, fact_id)].mean())  # bitwise
            # Scope masks compare codes row by row, without any grouping.
            rows = relation.scope_row_indices(fact.scope)
            np.testing.assert_array_equal(scope_rows(seeded, fact_id), rows)

    @settings(max_examples=60, deadline=None)
    @given(
        relation=hypothesis_relations(),
        base=_BASES,
        min_support=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    def test_facts_built_on_demand_match_reference(self, relation, base, min_support, data):
        """Property: the generator's facts, built one by one as they are
        read (in any order, by index, slice, iteration or group), equal
        the oracle's eagerly built facts, hash for hash."""
        kwargs = {"max_extra_dimensions": 2, "min_support": min_support}
        reference = PerRowFactGenerator(relation, **kwargs).generate(base)
        expected = list(reference.facts)

        def fresh():
            return FactGenerator(relation, **kwargs).generate(base)

        lazy = fresh().facts
        assert len(lazy) == len(expected)
        for i in data.draw(st.permutations(range(len(expected)))):
            index = i - len(expected) if data.draw(st.booleans()) else i
            assert_same_fact(lazy[index], expected[i])
            assert lazy[index] is lazy[i]
        with pytest.raises(IndexError):
            fresh().facts[len(expected)]

        bounds = st.integers(min_value=-len(expected) - 1, max_value=len(expected) + 1)
        window = slice(data.draw(bounds), data.draw(bounds), data.draw(st.sampled_from([1, 2, -1])))
        assert fresh().facts[window] == expected[window]
        assert list(fresh().facts) == expected

        generated = fresh()
        assert by_group(generated) == by_group(reference)
        groups = data.draw(st.lists(st.sampled_from(generated.groups()))) if expected else []
        assert facts_in_groups(fresh(), groups) == facts_in_groups(reference, groups)

        if expected:
            shared = {"prior": GlobalAveragePrior(), "expectation_model": ClosestRelevantFactModel()}
            lazy_problem = SummarizationProblem(relation, fresh().facts, 3, **shared)
            assert lazy_problem == SummarizationProblem(relation, expected, 3, **shared)
            assert lazy_problem == SummarizationProblem(relation, fresh().facts, 3, **shared)
            assert lazy_problem != SummarizationProblem(relation, expected * 2, 3, **shared)

    def test_scope_values_come_from_the_code_table(self):
        """A subset relation seeded with its parent's codes names a
        value as the parent's code table does (0.0 seen first), not as
        the subset's first row holds it (-0.0)."""
        table = Table("t", [Column.numeric("d", [-0.0, 2.0, 0.0]), Column.numeric("v", [1, 2, 3])])
        seeded = (np.array([0, 1, 0]), [0.0, 2.0], {0.0: 0, 2.0: 1})
        relation = SummarizationRelation(table, ["d"], "v", codes={"d": seeded})
        generated = FactGenerator(relation, max_extra_dimensions=1).generate()
        reference = PerRowFactGenerator(relation, max_extra_dimensions=1).generate()
        assert [repr(f.scope) for f in generated.facts] == [repr(f.scope) for f in reference.facts]
        assert repr(generated.facts[1].scope) == "Scope(d=0.0)"

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
