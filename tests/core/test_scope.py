"""Unit tests for repro.core.model.Scope."""

import pytest

from repro.core.model import Scope


class TestScopeBasics:
    def test_empty_scope(self):
        scope = Scope()
        assert len(scope) == 0
        assert not scope
        assert scope.columns == ()
        assert scope.assignments == {}

    def test_assignments_are_sorted_by_column(self):
        scope = Scope({"season": "Winter", "region": "East"})
        assert scope.columns == ("region", "season")
        assert list(scope) == [("region", "East"), ("season", "Winter")]

    def test_value_and_restricts(self):
        scope = Scope({"region": "East"})
        assert scope.value("region") == "East"
        assert scope.restricts("region")
        assert not scope.restricts("season")
        with pytest.raises(KeyError):
            scope.value("season")

    def test_equality_and_hash(self):
        a = Scope({"region": "East", "season": "Winter"})
        b = Scope({"season": "Winter", "region": "East"})
        assert a == b
        assert hash(a) == hash(b)
        assert a != Scope({"region": "East"})

    def test_usable_as_dict_key(self):
        mapping = {Scope({"a": 1}): "x"}
        assert mapping[Scope({"a": 1})] == "x"

    def test_repr_mentions_assignments(self):
        assert "region" in repr(Scope({"region": "East"}))
        assert "all rows" in repr(Scope())


class TestScopeRelations:
    def test_contains_row(self):
        scope = Scope({"region": "East", "season": "Winter"})
        assert scope.contains_row({"region": "East", "season": "Winter", "delay": 5})
        assert not scope.contains_row({"region": "East", "season": "Summer"})
        assert Scope().contains_row({"anything": 1})

    def test_contains_row_requires_equal_values(self):
        assert not Scope({"region": "East"}).contains_row({"region": "West"})
        assert not Scope({"region": "East"}).contains_row({"season": "Winter"})

    def test_scope_mask_agrees_with_contains_row(self, example_relation):
        rows = list(example_relation.table.iter_rows())
        for scope in (
            Scope(),
            Scope({"region": "East"}),
            Scope({"region": "South", "season": "Summer"}),
            Scope({"region": "Atlantis"}),
        ):
            expected = [scope.contains_row(row) for row in rows]
            assert example_relation.scope_mask(scope).tolist() == expected

    def test_more_specific_scope_selects_a_subset_of_rows(self, example_relation):
        general = set(example_relation.scope_row_indices(Scope({"region": "East"})))
        specific = example_relation.scope_row_indices(Scope({"region": "East", "season": "Winter"}))
        everything = set(example_relation.scope_row_indices(Scope()))
        assert 0 < len(specific) < len(general) < len(everything)
        assert set(specific) <= general <= everything

    def test_combined_scope_selects_the_intersection(self, example_relation):
        def rows(assignments):
            return set(example_relation.scope_row_indices(Scope(assignments)).tolist())

        combined = rows({"region": "East", "season": "Winter"})
        assert combined == rows({"region": "East"}) & rows({"season": "Winter"})
        assert rows({"region": "East"}) == rows({"region": "East"}) & rows({"region": "East"})

    def test_conflicting_values_select_no_rows(self, example_relation):
        east = example_relation.scope_row_indices(Scope({"region": "East"}))
        west = example_relation.scope_row_indices(Scope({"region": "West"}))
        assert len(east) and len(west)
        assert not set(east.tolist()) & set(west.tolist())
        assert example_relation.average_target(Scope({"region": "Atlantis"})) == (None, 0)
