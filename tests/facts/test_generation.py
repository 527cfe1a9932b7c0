"""Unit tests for repro.facts.generation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.model import Scope, SummarizationRelation
from repro.facts.generation import FactGenerator, FactGroups
from repro.facts.groups import FactGroup, enumerate_fact_groups
from repro.relational.column import ColumnType
from repro.relational.table import Table

from tests.facts.test_generation_vectorized import by_group, facts_in_groups, random_relation


class TestGroupCache:
    def test_a_shared_cache_builds_each_shape_once(self, example_relation):
        cache = {}
        east = FactGenerator(example_relation, group_cache=cache).generate({"region": "East"})
        (shape,) = cache.values()
        west = FactGenerator(example_relation, group_cache=cache).generate({"region": "West"})
        assert [cached is shape for cached in cache.values()] == [True]
        fresh = FactGenerator(example_relation).generate({"region": "West"})
        assert west.facts == fresh.facts
        assert west.group_ranges == fresh.group_ranges
        assert west.index_keys == fresh.index_keys == east.index_keys
        assert west.index_keys[FactGroup(["season"])] == ("region", "season")
        # Another arity limit or another base scope is another shape.
        FactGenerator(example_relation, 1, group_cache=cache).generate({"region": "West"})
        FactGenerator(example_relation, group_cache=cache).generate({"season": "Winter"})
        FactGenerator(example_relation, group_cache=cache).generate()
        assert len(cache) == 4

    def test_a_group_without_an_index_key_gets_it_from_the_base_scope(self, example_relation):
        generated = FactGenerator(example_relation).generate({"region": "East"})
        bare = replace(generated, index_keys={})
        expected = generated.scope_index(example_relation).groups
        actual = bare.scope_index(example_relation).groups
        assert list(actual) == list(expected)
        assert ("region", "season") in actual
        for key, ids in expected.items():
            np.testing.assert_array_equal(actual[key], ids)

    def test_shapes_list_the_power_set_over_the_free_columns(self):
        shape = FactGroups.of(("a", "b", "c", "d"), ("b",), 2)
        assert shape.groups == enumerate_fact_groups(["a", "c", "d"], 2, include_empty=True)
        assert shape.combinations == [group.dimensions for group in shape.groups[1:]]
        assert shape.columns == ("a", "c", "d")
        assert shape.index_keys[FactGroup([])] == ("b",)
        assert shape.index_keys[FactGroup(["a", "d"])] == ("a", "b", "d")


class TestGeneration:
    def test_counts_without_base_scope(self, example_relation):
        generated = FactGenerator(example_relation, max_extra_dimensions=2).generate()
        # 1 overall + 4 regions + 4 seasons + 16 combinations = 25 facts.
        assert generated.count == 25
        assert len(by_group(generated)) == 4

    def test_groups_partition_facts(self, example_relation):
        generated = FactGenerator(example_relation, max_extra_dimensions=2).generate()
        assert sum(len(v) for v in by_group(generated).values()) == generated.count
        assert by_group(generated)[FactGroup([])][0].scope == Scope()
        assert len(by_group(generated)[FactGroup(["region"])]) == 4
        assert len(by_group(generated)[FactGroup(["region", "season"])]) == 16

    def test_max_extra_dimensions_one(self, example_relation):
        generated = FactGenerator(example_relation, max_extra_dimensions=1).generate()
        assert generated.count == 9  # overall + 4 + 4

    def test_max_extra_dimensions_zero(self, example_relation):
        generated = FactGenerator(example_relation, max_extra_dimensions=0).generate()
        assert generated.count == 1

    @pytest.mark.parametrize("seed", [None, *range(8)])
    def test_fact_values_are_scope_averages(self, example_relation, seed):
        """Each fact's value and support are its scope's average and row
        count over the whole relation.  Seeded cases use random relations
        with NULL dimension values and a base scope on the first dimension."""
        relation, base = example_relation, {}
        if seed is not None:
            relation = random_relation(np.random.default_rng(seed))
            first = relation.dimensions[0]
            base = {first: relation.dimension_domain(first)[0]}
        generated = FactGenerator(relation, max_extra_dimensions=2).generate(base)
        assert generated.facts
        for fact in generated.facts:
            expected, support = relation.average_target(fact.scope)
            assert fact.value == pytest.approx(expected)
            assert fact.support == support
            assert fact.support >= 1
            assert None not in fact.scope.assignments.values()
            assert all(fact.scope.value(dim) == value for dim, value in base.items())

    def test_null_dimension_values_excluded(self):
        table = Table.from_rows(
            "with_nulls",
            ["dim", "target"],
            [ColumnType.CATEGORICAL, ColumnType.NUMERIC],
            [("x", 1.0), (None, 2.0), ("x", 3.0), ("y", 4.0)],
        )
        relation = SummarizationRelation(table, ["dim"], "target")
        generated = FactGenerator(relation, max_extra_dimensions=1).generate()
        members = by_group(generated)[FactGroup(["dim"])]
        assert {f.scope.value("dim"): (f.value, f.support) for f in members} == {
            "x": (pytest.approx(2.0), 2),
            "y": (pytest.approx(4.0), 1),
        }
        # The overall fact still covers the row with a NULL dimension.
        assert by_group(generated)[FactGroup([])][0].support == 4

    @pytest.mark.parametrize("seed", range(4))
    def test_group_sizes_equal_distinct_value_combinations(self, seed):
        """Each fact group holds exactly one fact per distinct NULL-free
        value combination of its dimensions in the data."""
        relation = random_relation(np.random.default_rng(seed))
        generated = FactGenerator(relation, max_extra_dimensions=2).generate()
        rows = list(relation.table.iter_rows())
        groups = enumerate_fact_groups(relation.dimensions, max_arity=2, include_empty=True)
        assert set(by_group(generated)) <= set(groups)
        for group in groups:
            dims = group.dimensions
            expected = {tuple(row[d] for d in dims) for row in rows}
            expected = {combo for combo in expected if None not in combo}
            members = by_group(generated).get(group, [])
            assert len(members) == len(expected)
            assert {tuple(f.scope.value(d) for d in dims) for f in members} == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_min_support_respected_on_random_relations(self, seed):
        """A support threshold drops exactly the facts below it."""
        relation = random_relation(np.random.default_rng(seed))
        unfiltered = FactGenerator(relation, max_extra_dimensions=2).generate()
        filtered = FactGenerator(relation, max_extra_dimensions=2, min_support=3).generate()
        assert filtered.facts, "expected some facts above the support threshold"
        assert filtered.facts == [f for f in unfiltered.facts if f.support >= 3]

    @pytest.mark.parametrize("seed", [None, *range(5)])
    def test_base_scope_matches_subset_relation(self, example_relation, seed):
        """Facts for a base scope over the whole relation equal the facts
        over the relation cut down to the base-scope rows (the subset the
        problem generator builds for a query)."""
        relation, base = example_relation, {"season": "Winter"}
        if seed is not None:
            relation = random_relation(np.random.default_rng(seed))
            first = relation.dimensions[0]
            base = {first: relation.dimension_domain(first)[0]}
        keep = relation.scope_mask(Scope(base))
        subset = SummarizationRelation(
            relation.table.mask(list(keep)), relation.dimensions, relation.target
        )
        from_full = FactGenerator(relation, max_extra_dimensions=2).generate(base)
        from_subset = FactGenerator(subset, max_extra_dimensions=2).generate(base)
        assert from_full.facts
        assert len(from_subset.facts) == len(from_full.facts)
        assert set(from_subset.facts) == set(from_full.facts)
        assert set(by_group(from_subset)) == set(by_group(from_full))

    def test_base_scope_restricts_candidates(self, example_relation):
        generated = FactGenerator(example_relation, max_extra_dimensions=1).generate(
            base_scope={"season": "Winter"}
        )
        # Facts: the Winter subset itself + one per region within Winter.
        assert generated.base_scope == Scope({"season": "Winter"})
        assert all(fact.scope.restricts("season") for fact in generated.facts)
        assert generated.count == 5
        # Values are averages over the Winter subset (all 15 in the fixture).
        assert all(fact.value == pytest.approx(15.0) for fact in generated.facts)

    def test_base_scope_accepts_scope_object(self, example_relation):
        generated = FactGenerator(example_relation, max_extra_dimensions=0).generate(
            base_scope=Scope({"region": "North"})
        )
        assert generated.count == 1
        assert generated.facts[0].support == 4

    def test_min_support_filters_facts(self, example_relation):
        generated = FactGenerator(
            example_relation, max_extra_dimensions=2, min_support=2
        ).generate()
        # Single (region, season) cells have support 1 and are filtered out.
        assert FactGroup(["region", "season"]) not in by_group(generated)
        assert generated.count == 9

    def test_empty_base_scope_subset(self, example_relation):
        generated = FactGenerator(example_relation).generate(
            base_scope={"region": "Atlantis"}
        )
        assert generated.count == 0

    def test_invalid_parameters(self, example_relation):
        with pytest.raises(ValueError):
            FactGenerator(example_relation, max_extra_dimensions=-1)
        with pytest.raises(ValueError):
            FactGenerator(example_relation, min_support=0)

    def test_facts_in_groups_helper(self, example_relation):
        generated = FactGenerator(example_relation, max_extra_dimensions=2).generate()
        selected = facts_in_groups(generated, [FactGroup(["region"]), FactGroup(["season"])])
        assert len(selected) == 8
        assert generated.groups()
