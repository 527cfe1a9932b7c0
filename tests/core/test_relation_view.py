"""Unit tests for SummarizationRelation (repro.core.model)."""

import numpy as np
import pytest

from repro.core.errors import InvalidFactError, InvalidProblemError
from repro.core.model import Scope, SummarizationRelation, factorize
from repro.relational.column import Column
from repro.relational.table import Table
from tests.facts.per_row_generator import group_rows_by


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
        inverse = relation.group_layout(["d"])[0]
        assert inverse.tolist() == fresh.group_layout(["d"])[0].tolist() == [0, 0]
        assert relation.group_keys(["d"]) == fresh.group_keys(["d"]) == [("x",)]
        assert not relation.scope_mask(Scope({"d": "z"})).any()

    def test_rows_restrict_the_table_and_seeds_follow_them(self):
        """``rows`` picks rows of the table without copying them up
        front; seeded codes and target floats are aligned with ``rows``
        and lose the NULL-target rows with them."""
        table = Table(
            "t",
            [
                Column.categorical("d", ["x", "y", "x", "z", "y"]),
                Column.numeric("v", [1.0, None, 3.0, 4.0, None]),
            ],
        )
        rows = np.array([4, 0, 1, 3])
        parent_codes, decode, code_of = factorize(table.column("d"))
        relation = SummarizationRelation(
            table,
            ["d"],
            "v",
            codes={"d": (parent_codes[rows], decode, code_of)},
            rows=rows,
            target_values=table.column("v").to_numpy()[rows],
        )
        expected = SummarizationRelation(table.take([4, 0, 1, 3]), ["d"], "v")
        assert relation.num_rows == expected.num_rows == 2
        assert relation.target_values.tolist() == [1.0, 4.0]
        assert relation.dimension_codes("d")[0].tolist() == [0, 2]
        assert relation.table == expected.table
        assert relation.group_layout(["d"])[0].tolist() == [0, 1]
        assert relation.group_keys(["d"]) == [("x",), ("z",)]
        unseeded = SummarizationRelation(table, ["d"], "v", rows=rows)
        assert unseeded.table == expected.table
        assert unseeded.target_values.tobytes() == expected.target_values.tobytes()
        with pytest.raises(InvalidProblemError, match="is empty"):
            SummarizationRelation(table, ["d"], "v", rows=rows[:0])

    def test_seeded_codes_must_fit(self, example_table):
        codes = factorize(example_table.column("region"))
        with pytest.raises(InvalidProblemError):
            SummarizationRelation(example_table, ["season"], "delay", codes={"region": codes})
        short = (codes[0][:3], codes[1], codes[2])
        with pytest.raises(InvalidProblemError):
            SummarizationRelation(example_table, ["region"], "delay", codes={"region": short})


class _HugeDecode(list):
    """A code table that claims 2**32 entries, to push grouping past int64 radix codes."""

    def __len__(self) -> int:
        return 2**32


class TestGrouping:
    @pytest.mark.parametrize("seed", range(6))
    def test_wide_code_tables_group_like_radix_codes(self, seed):
        """Column codes too wide for one int64 radix code are sorted
        column by column; the layout and keys stay the same."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        values = {d: [None if v == 3 else f"{d}{v}" for v in rng.integers(0, 4, n)] for d in "abc"}
        table = Table(
            "t",
            [Column.categorical(d, values[d]) for d in "abc"]
            + [Column.numeric("v", rng.normal(size=n))],
        )
        plain = SummarizationRelation(table, list("abc"), "v")
        wide = {}
        for d in "abc":
            codes, decode, code_of = factorize(values[d])
            wide[d] = (codes, _HugeDecode(decode), code_of)
        widened = SummarizationRelation(table, list("abc"), "v", codes=wide)
        for columns in (["a"], ["a", "b"], ["c", "a", "b"]):
            for got, expected in zip(widened.group_layout(columns), plain.group_layout(columns)):
                np.testing.assert_array_equal(got, expected)
            assert widened.group_keys(columns) == plain.group_keys(columns)

    @pytest.mark.parametrize("seed", range(6))
    def test_distinct_counts_and_constant_columns_follow_the_rows(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        parent = [None if v == 0 else f"x{v}" for v in rng.integers(0, 4, 2 * n)]
        rows = np.sort(rng.choice(2 * n, size=n, replace=False))
        dim_codes, decode, code_of = factorize(parent)
        column = [parent[r] for r in rows]
        constant = [column[0]] * n
        table = Table(
            "t",
            [
                Column.categorical("d", column),
                Column.categorical("k", constant),
                Column.numeric("v", rng.normal(size=n)),
            ],
        )
        relation = SummarizationRelation(
            table, ["d", "k"], "v", codes={"d": (dim_codes[rows], decode, code_of)}
        )
        assert relation.distinct_count("d") == table.column("d").distinct_count()
        assert relation.distinct_count("k") == table.column("k").distinct_count()
        assert relation.is_constant("k")
        assert relation.is_constant("d") == (len(set(column)) == 1)


class TestScopeMachinery:
    def test_a_one_value_code_table_matches_every_row_without_a_pass(self, example_table):
        """A column coded with one value holds it on every row: its scope
        rows are all rows, and another value matches none."""
        n = example_table.num_rows
        region = (np.zeros(n, dtype=np.int64), ["East"], {"East": 0})
        relation = SummarizationRelation(
            example_table, ["region", "season"], "delay", codes={"region": region}
        )
        np.testing.assert_array_equal(
            relation.scope_row_indices(Scope({"region": "East"})), np.arange(n)
        )
        assert relation.scope_mask(Scope({"region": "East"})).all()
        assert relation.scope_row_indices(Scope({"region": "West"})).size == 0
        assert relation.distinct_count("region") == 1 and relation.is_constant("region")
        both = Scope({"region": "East", "season": "Winter"})
        np.testing.assert_array_equal(
            relation.scope_row_indices(both),
            np.flatnonzero(np.array(example_table.column("season").values) == "Winter"),
        )

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
        groups = group_rows_by(example_relation, ["region"])
        assert len(groups) == 4
        assert all(len(indices) == 4 for indices in groups.values())
        # Empty column list: one group with all rows.
        all_rows = group_rows_by(example_relation, [])
        assert list(all_rows) == [()]
        assert len(all_rows[()]) == 16

    def test_group_rows_by_unknown_column(self, example_relation):
        with pytest.raises(InvalidProblemError):
            group_rows_by(example_relation, ["delay"])

    def test_target_values_is_float_array(self, example_relation):
        values = example_relation.target_values
        assert isinstance(values, np.ndarray)
        assert values.dtype == float
        assert values.shape == (16,)
