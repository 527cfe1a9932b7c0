"""Facts, scopes, speeches and the relation view they summarize.

These classes are direct counterparts of Definitions 1-3 of the paper:

* :class:`SummarizationRelation` — a relation with designated dimension
  columns and one numeric target column (Definition 1).
* :class:`Scope` / :class:`Fact` — a fact assigns values to a subset of
  the dimension columns and carries a typical value, the average of the
  target column over all rows within scope (Definition 2).
* :class:`Speech` — a set of facts with bounded cardinality
  (Definition 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import InvalidFactError, InvalidProblemError
from repro.relational.column import ColumnType
from repro.relational.table import Table


class Scope:
    """An assignment of values to a subset of dimension columns.

    Scopes are immutable and hashable so they can key dictionaries and
    be members of sets.  The empty scope covers the whole relation.
    """

    __slots__ = ("_items", "_columns", "_values")

    def __init__(self, assignments: Mapping[str, Any] | None = None):
        items = tuple(sorted((assignments or {}).items()))
        object.__setattr__(self, "_items", items)
        # Precomputed projections: scopes are created once per fact but
        # queried per candidate per greedy iteration.
        object.__setattr__(self, "_columns", tuple(col for col, _ in items))
        object.__setattr__(self, "_values", tuple(val for _, val in items))

    # Mapping-like interface -------------------------------------------------
    @property
    def assignments(self) -> dict[str, Any]:
        """The scope's column -> value assignments as a dict."""
        return dict(self._items)

    @property
    def columns(self) -> tuple[str, ...]:
        """The restricted dimension columns, sorted by name."""
        return self._columns

    @property
    def sorted_values(self) -> tuple[Any, ...]:
        """The assigned values, in sorted-column order (pairs ``columns``)."""
        return self._values

    def value(self, column: str) -> Any:
        """Value assigned to ``column`` (KeyError if unrestricted)."""
        for col, val in self._items:
            if col == column:
                return val
        raise KeyError(column)

    def restricts(self, column: str) -> bool:
        """True when the scope restricts ``column``."""
        return any(col == column for col, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        return iter(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scope):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        if not self._items:
            return "Scope(<all rows>)"
        inner = ", ".join(f"{col}={val!r}" for col, val in self._items)
        return f"Scope({inner})"

    # Set-like relations between scopes --------------------------------------
    def is_subscope_of(self, other: "Scope") -> bool:
        """True when this scope's assignments are a subset of ``other``'s.

        A sub-scope restricts fewer (or equal) dimensions, i.e. covers a
        superset of the data rows.
        """
        mine = dict(self._items)
        theirs = dict(other._items)
        return all(col in theirs and theirs[col] == val for col, val in mine.items())

    def contains_row(self, row: Mapping[str, Any]) -> bool:
        """True when a data row (dict) falls within this scope."""
        return all(row.get(col) == val for col, val in self._items)

    def merged_with(self, other: "Scope") -> "Scope | None":
        """Combine two scopes; None when they conflict on some column."""
        merged = dict(self._items)
        for col, val in other._items:
            if col in merged and merged[col] != val:
                return None
            merged[col] = val
        return Scope(merged)


@dataclass(frozen=True)
class Fact:
    """A fact: a scope plus the typical (average) target value within it.

    ``support`` records how many relation rows fall within the scope;
    facts with zero support are invalid (they describe no data).
    """

    scope: Scope
    value: float
    support: int = 0

    def __post_init__(self) -> None:
        if self.support < 0:
            raise InvalidFactError(f"fact support must be non-negative, got {self.support}")

    @property
    def dimensions(self) -> tuple[str, ...]:
        """The dimension columns this fact restricts."""
        return self.scope.columns

    def covers_row(self, row: Mapping[str, Any]) -> bool:
        """True when the data row is within this fact's scope."""
        return self.scope.contains_row(row)

    def __repr__(self) -> str:
        return f"Fact({self.scope!r}, value={self.value:.4g}, support={self.support})"


class Speech:
    """An unordered set of facts (Definition 3).

    Speeches compare equal regardless of fact order; the *speech
    length* is the number of facts.
    """

    __slots__ = ("_facts",)

    def __init__(self, facts: Iterable[Fact] = ()):
        unique: dict[Fact, None] = {}
        for fact in facts:
            unique.setdefault(fact, None)
        object.__setattr__(self, "_facts", tuple(unique))

    @property
    def facts(self) -> tuple[Fact, ...]:
        """The speech's facts (deduplicated, insertion-ordered)."""
        return self._facts

    @property
    def length(self) -> int:
        """Number of facts in the speech."""
        return len(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Speech):
            return NotImplemented
        return frozenset(self._facts) == frozenset(other._facts)

    def __hash__(self) -> int:
        return hash(frozenset(self._facts))

    def __repr__(self) -> str:
        return f"Speech({list(self._facts)!r})"

    def with_fact(self, fact: Fact) -> "Speech":
        """Return a new speech with ``fact`` added."""
        return Speech(self._facts + (fact,))

    def relevant_facts(self, row: Mapping[str, Any]) -> list[Fact]:
        """Facts whose scope contains ``row``."""
        return [fact for fact in self._facts if fact.covers_row(row)]


#: Integer codes of one column: ``(codes, decode, code_of)`` — per-row
#: codes, the code -> value table and the value -> code lookup.
DimensionCodes = tuple[np.ndarray, list[Any], dict[Any, int]]


def factorize(values: Iterable[Any]) -> DimensionCodes:
    """Integer-code ``values`` in first-appearance order.

    NULL is coded like any other value; equal values (``1 == 1.0``)
    share the code of their first occurrence.
    """
    values = list(values)
    code_of: dict[Any, int] = {}
    # ``len(code_of)`` is evaluated before ``setdefault`` inserts, so a
    # new value gets the next free code.
    codes = np.fromiter(
        (code_of.setdefault(value, len(code_of)) for value in values),
        dtype=np.int64,
        count=len(values),
    )
    return codes, list(code_of), code_of


class SummarizationRelation:
    """A relation with designated dimensions and a numeric target column.

    This view wraps a :class:`repro.relational.Table` and provides the
    numpy-backed access paths the utility evaluator and the algorithms
    need: the target vector, per-fact row masks, and grouping by
    dimension-value combinations.

    ``codes`` optionally seeds :meth:`dimension_codes` with codes aligned
    to ``table``'s rows, e.g. a parent table's codes taken at the rows of
    a subset, so the relation does not factorize those dimensions again.
    """

    def __init__(
        self,
        table: Table,
        dimensions: Sequence[str],
        target: str,
        codes: Mapping[str, DimensionCodes] | None = None,
    ):
        if not dimensions:
            raise InvalidProblemError("at least one dimension column is required")
        if table.num_rows == 0:
            raise InvalidProblemError(f"relation {table.name!r} is empty")
        for dim in dimensions:
            if not table.has_column(dim):
                raise InvalidProblemError(
                    f"dimension column {dim!r} not present in table {table.name!r}"
                )
        if not table.has_column(target):
            raise InvalidProblemError(
                f"target column {target!r} not present in table {table.name!r}"
            )
        if target in dimensions:
            raise InvalidProblemError(
                f"target column {target!r} cannot also be a dimension"
            )
        target_col = table.column(target)
        if target_col.ctype is ColumnType.CATEGORICAL:
            raise InvalidProblemError(f"target column {target!r} must be numeric")

        self._table = table
        self._dimensions = tuple(dimensions)
        self._target = target
        # Rows with NULL target values carry no information for the
        # summarization problem; they are dropped from the view.
        keep = [v is not None for v in target_col]
        all_kept = all(keep)
        self._view = table if all_kept else table.mask(keep)
        self._codes_cache: dict[str, DimensionCodes] = {}
        for dimension, (dim_codes, decode, code_of) in (codes or {}).items():
            if dimension not in self._dimensions or len(dim_codes) != table.num_rows:
                raise InvalidProblemError(
                    f"codes for {dimension!r} do not fit relation {self.name!r}"
                )
            if not all_kept:
                dim_codes = dim_codes[np.asarray(keep)]
            self._codes_cache[dimension] = (dim_codes, decode, code_of)
        self._grouping_cache: dict[tuple[str, ...], tuple[np.ndarray, list[tuple[Any, ...]]]] = {}
        self._segments_cache: dict[
            tuple[str, ...], tuple[np.ndarray, np.ndarray, dict[tuple[Any, ...], int]]
        ] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def table(self) -> Table:
        """The underlying (filtered) table."""
        return self._view

    @property
    def name(self) -> str:
        """Name of the underlying table."""
        return self._table.name

    @property
    def dimensions(self) -> tuple[str, ...]:
        """The dimension columns."""
        return self._dimensions

    @property
    def target(self) -> str:
        """The target column name."""
        return self._target

    @property
    def num_rows(self) -> int:
        """Number of rows with a non-NULL target value."""
        return self._view.num_rows

    @cached_property
    def target_values(self) -> np.ndarray:
        """The target column as a float array (one entry per row)."""
        return np.array(
            [float(v) for v in self._view.column(self._target)], dtype=float
        )

    @cached_property
    def _dimension_values(self) -> dict[str, list[Any]]:
        return {dim: self._view.column(dim).values for dim in self._dimensions}

    def dimension_domain(self, dimension: str) -> list[Any]:
        """Distinct non-NULL values of a dimension, in appearance order."""
        if dimension not in self._dimensions:
            raise InvalidProblemError(f"{dimension!r} is not a dimension of this relation")
        return self._view.column(dimension).distinct_values()

    def row(self, index: int) -> dict[str, Any]:
        """Row ``index`` as a dict (dimensions + target)."""
        return self._view.row(index)

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over rows as dicts."""
        return self._view.iter_rows()

    # ------------------------------------------------------------------
    # Scope machinery
    # ------------------------------------------------------------------
    def dimension_codes(self, dimension: str) -> DimensionCodes:
        """Integer codes for one dimension column (cached).

        Returns ``(codes, decode, code_of)``: per-row integer codes, the
        code -> value table, and the value -> code lookup.  NULL is
        treated as a regular value; the callers that must skip NULLs
        filter on the decoded values.  Codes the relation factorizes
        itself follow first appearance; codes seeded through the
        constructor keep the parent's numbering, so they need not follow
        first appearance here and ``decode`` may list values no row of
        this relation holds.  Callers rely only on the code <-> value
        bijection.
        """
        cached = self._codes_cache.get(dimension)
        if cached is None:
            if dimension not in self._dimensions:
                raise InvalidProblemError(
                    f"{dimension!r} is not a dimension of relation {self.name!r}"
                )
            cached = factorize(self._dimension_values[dimension])
            self._codes_cache[dimension] = cached
        return cached

    def grouping(self, columns: Sequence[str]) -> tuple[np.ndarray, list[tuple[Any, ...]]]:
        """Compact group ids per row for a column combination (cached).

        Returns ``(inverse, keys)``: ``inverse[r]`` is the group id of
        row ``r`` and ``keys[g]`` the value tuple of group ``g`` (in
        ``columns`` order).  Group ids follow first appearance in the
        data, matching the historical dict-insertion order of
        :meth:`group_rows_by`.
        """
        key = tuple(columns)
        cached = self._grouping_cache.get(key)
        if cached is not None:
            return cached
        if not key:
            cached = (np.zeros(self.num_rows, dtype=np.int64), [()])
            self._grouping_cache[key] = cached
            return cached

        # Compose one mixed-radix code per row from the per-column codes.
        # When the radix product could overflow int64 (extreme per-column
        # cardinalities), fall back to dict-based grouping: silent
        # wrap-around would merge distinct groups.
        per_column = [self.dimension_codes(c) for c in key]
        radix_product = 1
        for _, decode, _ in per_column:
            radix_product *= max(len(decode), 1)
        if radix_product > 2**62:
            value_lists = [self._dimension_values[c] for c in key]
            group_of: dict[tuple[Any, ...], int] = {}
            keys = []
            inverse = np.empty(self.num_rows, dtype=np.int64)
            for i, row_key in enumerate(zip(*value_lists)):
                group = group_of.get(row_key)
                if group is None:
                    group = len(keys)
                    group_of[row_key] = group
                    keys.append(row_key)
                inverse[i] = group
            cached = (inverse, keys)
            self._grouping_cache[key] = cached
            return cached
        combined = per_column[0][0]
        for codes, decode, _ in per_column[1:]:
            combined = combined * len(decode) + codes
        uniques, first_pos, inverse = np.unique(
            combined, return_index=True, return_inverse=True
        )
        # np.unique sorts by code value; renumber groups by first appearance.
        appearance = np.argsort(first_pos, kind="stable")
        rank = np.empty(uniques.size, dtype=np.int64)
        rank[appearance] = np.arange(uniques.size)
        inverse = rank[inverse]

        keys: list[tuple[Any, ...]] = []
        for code in uniques[appearance]:
            parts: list[Any] = []
            for codes, decode, _ in reversed(per_column[1:]):
                code, part = divmod(int(code), len(decode))
                parts.append(decode[part])
            parts.append(per_column[0][1][int(code)])
            keys.append(tuple(reversed(parts)))
        cached = (inverse, keys)
        self._grouping_cache[key] = cached
        return cached

    def group_segments(
        self, columns: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray, dict[tuple[Any, ...], int]]:
        """Cached grouped row layout for one column combination.

        Returns ``(order, offsets, key_to_group)``: ``order`` holds all
        row indices sorted by group (ascending within each group),
        ``order[offsets[g]:offsets[g + 1]]`` slices group ``g``'s rows,
        and ``key_to_group`` maps value tuples to group ids.  Because
        the relation is immutable this is computed once per combination;
        the batch kernel's index build then resolves each fact's scope
        rows with a dict lookup and a slice instead of a row scan.
        """
        key = tuple(columns)
        cached = self._segments_cache.get(key)
        if cached is None:
            inverse, keys = self.grouping(key)
            order = np.argsort(inverse, kind="stable")
            counts = np.bincount(inverse, minlength=len(keys))
            offsets = np.zeros(len(keys) + 1, dtype=np.intp)
            np.cumsum(counts, out=offsets[1:])
            key_to_group = {group_key: g for g, group_key in enumerate(keys)}
            cached = (order, offsets, key_to_group)
            self._segments_cache[key] = cached
        return cached

    def scope_row_indices(self, scope: Scope) -> np.ndarray:
        """Indices of rows within ``scope`` (ascending)."""
        mask = self.scope_mask(scope)
        return np.nonzero(mask)[0]

    def scope_mask(self, scope: Scope) -> np.ndarray:
        """Boolean mask of rows within ``scope``."""
        mask = np.ones(self.num_rows, dtype=bool)
        for column, value in scope:
            if column not in self._dimensions:
                raise InvalidFactError(
                    f"scope restricts {column!r}, which is not a dimension of "
                    f"relation {self.name!r}"
                )
            codes, _, code_of = self.dimension_codes(column)
            # A value absent from the column matches no row (-1 is never a code).
            mask &= codes == code_of.get(value, -1)
        return mask

    def average_target(self, scope: Scope) -> tuple[float | None, int]:
        """Average target value and support within ``scope``.

        Returns ``(None, 0)`` when no rows fall within the scope.
        """
        indices = self.scope_row_indices(scope)
        if indices.size == 0:
            return None, 0
        return float(self.target_values[indices].mean()), int(indices.size)

    def make_fact(self, assignments: Mapping[str, Any]) -> Fact:
        """Build the fact for a scope given by ``assignments``.

        Raises :class:`InvalidFactError` when the scope selects no rows.
        """
        scope = Scope(assignments)
        value, support = self.average_target(scope)
        if value is None:
            raise InvalidFactError(f"scope {scope!r} matches no rows")
        return Fact(scope=scope, value=value, support=support)

    def group_rows_by(self, columns: Sequence[str]) -> dict[tuple[Any, ...], np.ndarray]:
        """Group row indices by value combinations of ``columns``.

        Returns a mapping from value tuples (in ``columns`` order) to
        arrays of row indices.  The empty column list produces a single
        group covering all rows, keyed by the empty tuple.
        """
        if not columns:
            return {(): np.arange(self.num_rows)}
        order, offsets, key_to_group = self.group_segments(columns)
        return {
            key: order[offsets[g] : offsets[g + 1]]
            for key, g in key_to_group.items()
        }
