"""Unit tests for SummarizationRelation (repro.core.model)."""

import numpy as np
import pytest

from repro.core.errors import InvalidFactError, InvalidProblemError
from repro.core.model import Scope, SummarizationRelation, factorize
from repro.relational.column import Column
from repro.relational.table import Table


class TestConstruction:
    def test_basic_properties(self, example_relation):
        assert example_relation.dimensions == ("region", "season")
        assert example_relation.target == "delay"
        assert example_relation.num_rows == 16

    def test_requires_dimensions(self, example_table):
        with pytest.raises(InvalidProblemError):
            SummarizationRelation(example_table, [], "delay")

    def test_unknown_dimension_rejected(self, example_table):
        with pytest.raises(InvalidProblemError):
            SummarizationRelation(example_table, ["missing"], "delay")

    def test_unknown_target_rejected(self, example_table):
        with pytest.raises(InvalidProblemError):
            SummarizationRelation(example_table, ["region"], "missing")

    def test_target_cannot_be_dimension(self, example_table):
        with pytest.raises(InvalidProblemError):
            SummarizationRelation(example_table, ["region", "delay"], "delay")

    def test_categorical_target_rejected(self, example_table):
        with pytest.raises(InvalidProblemError):
            SummarizationRelation(example_table, ["region"], "season")

    def test_empty_table_rejected(self):
        table = Table("t", [Column.categorical("d", []), Column.numeric("v", [])])
        with pytest.raises(InvalidProblemError):
            SummarizationRelation(table, ["d"], "v")

    def test_null_target_rows_are_dropped(self):
        table = Table(
            "t",
            [
                Column.categorical("d", ["a", "b", "c"]),
                Column.numeric("v", [1.0, None, 3.0]),
            ],
        )
        relation = SummarizationRelation(table, ["d"], "v")
        assert relation.num_rows == 2
        assert list(relation.target_values) == [1.0, 3.0]


class TestSeededCodes:
    def test_factorize_codes_in_first_appearance_order(self):
        codes, decode, code_of = factorize(["b", None, "a", "b", None])
        assert codes.tolist() == [0, 1, 2, 0, 1]
        assert decode == ["b", None, "a"]
        assert code_of == {"b": 0, None: 1, "a": 2}

    def test_seeded_codes_are_used_and_filtered_by_null_targets(self):
        table = Table(
            "t",
            [
                Column.categorical("d", ["x", "y", "x"]),
                Column.numeric("v", [1.0, None, 3.0]),
            ],
        )
        # Parent numbering: "z" (code 0) is absent from this table.
        seeded = (np.array([1, 2, 1]), ["z", "x", "y"], {"z": 0, "x": 1, "y": 2})
        relation = SummarizationRelation(table, ["d"], "v", codes={"d": seeded})
        codes, decode, _ = relation.dimension_codes("d")
        assert codes.tolist() == [1, 1]
        assert decode == ["z", "x", "y"]
        fresh = SummarizationRelation(table, ["d"], "v")
        inverse, keys = relation.grouping(["d"])
        assert inverse.tolist() == fresh.grouping(["d"])[0].tolist() == [0, 0]
        assert keys == fresh.grouping(["d"])[1] == [("x",)]
        assert not relation.scope_mask(Scope({"d": "z"})).any()

    def test_seeded_codes_must_fit(self, example_table):
        codes = factorize(example_table.column("region"))
        with pytest.raises(InvalidProblemError):
            SummarizationRelation(example_table, ["season"], "delay", codes={"region": codes})
        short = (codes[0][:3], codes[1], codes[2])
        with pytest.raises(InvalidProblemError):
            SummarizationRelation(example_table, ["region"], "delay", codes={"region": short})


class TestScopeMachinery:
    def test_scope_mask_and_indices(self, example_relation):
        mask = example_relation.scope_mask(Scope({"region": "North"}))
        assert mask.sum() == 4
        indices = example_relation.scope_row_indices(Scope({"season": "Winter"}))
        assert len(indices) == 4

    def test_empty_scope_covers_all_rows(self, example_relation):
        assert example_relation.scope_mask(Scope()).all()

    def test_unknown_scope_column_rejected(self, example_relation):
        with pytest.raises(InvalidFactError):
            example_relation.scope_mask(Scope({"airline": "AA"}))

    def test_average_target(self, example_relation):
        value, support = example_relation.average_target(Scope({"region": "North"}))
        assert value == pytest.approx(15.0)
        assert support == 4

    def test_average_target_empty_scope_value(self, example_relation):
        value, support = example_relation.average_target(Scope({"region": "Atlantis"}))
        assert value is None
        assert support == 0

    def test_make_fact(self, example_relation):
        fact = example_relation.make_fact({"season": "Winter"})
        assert fact.value == pytest.approx(15.0)
        assert fact.support == 4

    def test_make_fact_for_empty_scope_rejected(self, example_relation):
        with pytest.raises(InvalidFactError):
            example_relation.make_fact({"season": "Monsoon"})

    def test_dimension_domain(self, example_relation):
        assert set(example_relation.dimension_domain("season")) == {
            "Spring", "Summer", "Fall", "Winter",
        }
        with pytest.raises(InvalidProblemError):
            example_relation.dimension_domain("delay")

    def test_group_rows_by(self, example_relation):
        groups = example_relation.group_rows_by(["region"])
        assert len(groups) == 4
        assert all(len(indices) == 4 for indices in groups.values())
        # Empty column list: one group with all rows.
        all_rows = example_relation.group_rows_by([])
        assert list(all_rows) == [()]
        assert len(all_rows[()]) == 16

    def test_group_rows_by_unknown_column(self, example_relation):
        with pytest.raises(InvalidProblemError):
            example_relation.group_rows_by(["delay"])

    def test_target_values_is_float_array(self, example_relation):
        values = example_relation.target_values
        assert isinstance(values, np.ndarray)
        assert values.dtype == float
        assert values.shape == (16,)
