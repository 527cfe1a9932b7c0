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
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.errors import InvalidFactError, InvalidProblemError
from repro.relational.column import ColumnType
from repro.relational.table import Table


#: Every ``(column, value)`` pair a :class:`Scope` or a data query holds,
#: keyed by ``(type(value), column, value)`` so equal values of different
#: types (``1``, ``1.0``, ``True``) keep pairs of their own.  Scopes and
#: queries range over the data's dimension values, so the table grows
#: with the distinct pairs of the data, not with the number of scopes
#: and speeches, which share them instead of holding copies.
_PAIRS: dict[tuple[type, str, Any], tuple[str, Any]] = {}
#: Bound once: the lookup runs per pair of every scope and query built.
_pair_of = _PAIRS.get


def shared_pairs(items: Iterable[tuple[str, Any]]) -> tuple[tuple[str, Any], ...]:
    """``items`` as a tuple of the shared ``(column, value)`` pairs, in order."""
    return tuple([_pair_of((type(v), c, v)) or _new_pair(c, v) for c, v in items])


def _new_pair(column: str, value: Any) -> tuple[str, Any]:
    """A pair not in the table yet, entered unless the value is unequal to itself.

    Such a value (NaN) keeps a pair of its own: it would never find its
    entry again.
    """
    pair = (column, value)
    if value != value:
        return pair
    return _PAIRS.setdefault((type(value), column, value), pair)


class Scope:
    """An assignment of values to a subset of dimension columns.

    Scopes are immutable and hashable so they can key dictionaries and
    be members of sets.  The empty scope covers the whole relation.
    Its assignments are :func:`shared_pairs`.
    """

    __slots__ = ("_items",)

    def __init__(self, assignments: Mapping[str, Any] | None = None):
        items = sorted((assignments or {}).items())
        object.__setattr__(self, "_items", shared_pairs(items))

    def __getstate__(self) -> tuple[tuple[str, Any], ...]:
        return self._items

    def __setstate__(self, items: tuple[tuple[str, Any], ...]) -> None:
        object.__setattr__(self, "_items", shared_pairs(items))

    # Mapping-like interface -------------------------------------------------
    @property
    def assignments(self) -> dict[str, Any]:
        """The scope's column -> value assignments as a dict."""
        return dict(self._items)

    @property
    def columns(self) -> tuple[str, ...]:
        """The restricted dimension columns, sorted by name."""
        return tuple(col for col, _ in self._items)

    @property
    def sorted_values(self) -> tuple[Any, ...]:
        """The assigned values, in sorted-column order (pairs ``columns``)."""
        return tuple(val for _, val in self._items)

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

    def contains_row(self, row: Mapping[str, Any]) -> bool:
        """True when a data row (dict) falls within this scope."""
        return all(row.get(col) == val for col, val in self._items)


@dataclass(frozen=True, slots=True)
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


#: Integer codes of one column: ``(codes, decode, code_of)`` — per-row
#: codes, the code -> value table and the value -> code lookup.
DimensionCodes = tuple[np.ndarray, list[Any], dict[Any, int]]

#: Rows grouped by a column combination: ``(inverse, order, offsets)`` —
#: each row's group id (groups numbered by first appearance), all rows
#: sorted by group (ascending within a group), and group ``g``'s slice
#: ``order[offsets[g]:offsets[g + 1]]``.
GroupLayout = tuple[np.ndarray, np.ndarray, np.ndarray]


class GroupLayouts(NamedTuple):
    """Rows grouped by each of several column combinations, laid end to end.

    Combination ``c`` owns the group ids ``bounds[c]:bounds[c + 1]``
    (numbered by first appearance) and the positions ``c * n:(c + 1) * n``
    of ``order``, where ``n`` is the row count; group ``g``'s rows are
    ``order[offsets[g]:offsets[g + 1]]``, ascending.
    """

    order: np.ndarray
    offsets: np.ndarray
    bounds: np.ndarray

    def layout(self, c: int) -> GroupLayout:
        """Combination ``c``'s :data:`GroupLayout`."""
        n = self.order.size // (self.bounds.size - 1)
        order = self.order[c * n : (c + 1) * n]
        offsets = self.offsets[self.bounds[c] : self.bounds[c + 1] + 1] - c * n
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        return inverse, order, offsets


#: Radix codes above this could overflow int64 once multiplied out.
_RADIX_LIMIT = 2**62


def factorize(values: Iterable[Any]) -> DimensionCodes:
    """Integer-code ``values`` in first-appearance order.

    NULL is coded like any other value; equal values (``1 == 1.0``)
    share the code of their first occurrence.
    """
    return extend_codes((np.empty(0, dtype=np.int64), [], {}), values)


def extend_codes(codes: DimensionCodes, values: Iterable[Any]) -> DimensionCodes:
    """A column's ``codes`` followed by ``values``, coded as :func:`factorize` would.

    Old codes stay and a value not seen before takes the next free code,
    so the result equals factorizing the concatenated values.  ``codes``
    is left unchanged.
    """
    old, _, code_of = codes
    code_of = dict(code_of)
    values = list(values)
    # ``len(code_of)`` is evaluated before ``setdefault`` inserts, so a
    # new value gets the next free code.
    new = np.fromiter(
        (code_of.setdefault(value, len(code_of)) for value in values),
        dtype=np.int64,
        count=len(values),
    )
    return np.concatenate((old, new)), list(code_of), code_of


class SummarizationRelation:
    """A relation with designated dimensions and a numeric target column.

    This view wraps a :class:`repro.relational.Table` and provides the
    numpy-backed access paths the utility evaluator and the algorithms
    need: the target vector, per-fact row masks, and grouping by
    dimension-value combinations.

    ``rows`` optionally restricts the relation to those rows of
    ``table`` without copying them: the restricted table is gathered
    when :attr:`table` (or a row) is first read.  ``codes`` optionally
    seeds :meth:`dimension_codes` with codes aligned to the relation's
    rows (``table``'s, or ``rows``), e.g. a parent table's codes taken at
    the rows of a subset, so the relation does not factorize those
    dimensions again; ``target_values`` likewise seeds the target as
    floats, NaN for NULL.
    """

    def __init__(
        self,
        table: Table,
        dimensions: Sequence[str],
        target: str,
        codes: Mapping[str, DimensionCodes] | None = None,
        rows: np.ndarray | None = None,
        target_values: np.ndarray | None = None,
    ):
        num_rows = table.num_rows if rows is None else len(rows)
        if not dimensions:
            raise InvalidProblemError("at least one dimension column is required")
        if num_rows == 0:
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
        if target_values is None:
            target_values = target_col.to_numpy()
            if rows is not None:
                target_values = target_values[rows]
        # Rows with NULL target values carry no information for the
        # summarization problem; they are dropped from the view.
        keep = ~np.isnan(target_values)
        all_kept = bool(keep.all())
        #: The target column as a float array (one entry per row).
        self.target_values: np.ndarray = target_values if all_kept else target_values[keep]
        if rows is None:
            self._rows = None if all_kept else np.flatnonzero(keep)
        else:
            self._rows = rows if all_kept else rows[keep]
        self._codes_cache: dict[str, DimensionCodes] = {}
        for dimension, (dim_codes, decode, code_of) in (codes or {}).items():
            if dimension not in self._dimensions or len(dim_codes) != num_rows:
                raise InvalidProblemError(
                    f"codes for {dimension!r} do not fit relation {self.name!r}"
                )
            if not all_kept:
                dim_codes = dim_codes[keep]
            self._codes_cache[dimension] = (dim_codes, decode, code_of)
        self._layout_cache: dict[tuple[str, ...], GroupLayout] = {}
        self._batched: dict[tuple[str, ...], tuple[GroupLayouts, int]] = {}
        self._keys_cache: dict[tuple[str, ...], list[tuple[Any, ...]]] = {}
        self._distinct_cache: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @cached_property
    def table(self) -> Table:
        """The underlying (filtered) table."""
        if self._rows is None:
            return self._table
        return self._table.take(self._rows.tolist())

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
        return self.target_values.size

    @cached_property
    def _dimension_values(self) -> dict[str, list[Any]]:
        return {dim: self.table.column(dim).values for dim in self._dimensions}

    def dimension_domain(self, dimension: str) -> list[Any]:
        """Distinct non-NULL values of a dimension, in appearance order."""
        if dimension not in self._dimensions:
            raise InvalidProblemError(f"{dimension!r} is not a dimension of this relation")
        return self.table.column(dimension).distinct_values()

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

    def distinct_count(self, dimension: str) -> int:
        """Number of distinct non-NULL values of a dimension, from its codes."""
        return self._code_census(dimension)[1]

    def is_constant(self, dimension: str) -> bool:
        """True when every row holds the same value (NULL included) of ``dimension``."""
        return self._code_census(dimension)[0] <= 1

    def _code_census(self, dimension: str) -> tuple[int, int]:
        """``(codes, non-NULL codes)`` present among the rows (cached).

        A column whose decode table holds one value is that value on
        every row.  A column of an earlier :meth:`group_layouts` pass
        has as many codes present as that pass found groups; without a
        NULL code they are all non-NULL.  Any other column is counted.
        """
        cached = self._distinct_cache.get(dimension)
        if cached is None:
            codes, decode, code_of = self.dimension_codes(dimension)
            null = code_of.get(None)
            batched = self._batched.get((dimension,))
            if len(decode) == 1 and codes.size:
                cached = (1, int(null is None))
            elif batched is not None and null is None:
                layouts, c = batched
                groups = int(layouts.bounds[c + 1] - layouts.bounds[c])
                cached = (groups, groups)
            else:
                rows = np.bincount(codes)
                distinct = int(np.count_nonzero(rows))
                null_rows = null is not None and null < rows.size and bool(rows[null])
                cached = (distinct, distinct - int(null_rows))
            self._distinct_cache[dimension] = cached
        return cached

    def group_layout(self, columns: Sequence[str]) -> GroupLayout:
        """Rows grouped by a column combination (cached).

        Returns ``(inverse, order, offsets)`` (see :data:`GroupLayout`).
        Group ids follow first appearance in the data.  The
        empty combination is one group, even over no rows; any other is
        read off an earlier :meth:`group_layouts` pass when there was one.
        """
        key = tuple(columns)
        cached = self._layout_cache.get(key)
        if cached is None and not key:
            n = self.num_rows
            cached = np.zeros(n, dtype=np.int64), np.arange(n), np.array([0, n], dtype=np.intp)
        elif cached is None:
            layouts, c = self._batched.get(key) or (self.group_layouts([key]), 0)
            cached = layouts.layout(c)
        self._layout_cache[key] = cached
        return cached

    def group_layouts(self, combinations: Sequence[tuple[str, ...]]) -> GroupLayouts:
        """Rows grouped by each column combination, in one pass.

        Every combination gets one key per row, injective on its code
        tuples; one stable sort per key row, one sort of all runs by
        (combination, first row) and one shift lay out every group at
        once.  The pass is kept for :meth:`group_layout`.  The empty
        combination is a single group when there are rows.
        """
        n = self.num_rows
        keys = self._sort_keys(combinations)
        perm = np.argsort(keys, axis=1, kind="stable")
        starts_run = np.ones(keys.shape, dtype=bool)
        ordered = keys[np.arange(len(combinations))[:, None], perm]
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts_run[:, 1:])
        starts = np.flatnonzero(starts_run)
        rows = perm.ravel()
        # The sort is stable, so each run starts at its group's first row;
        # number the runs by combination, then by first appearance.
        combination = starts // max(n, 1)
        appearance = np.argsort(combination * n + rows[starts])
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1:] = keys.size
        counts = (ends - starts)[appearance]
        offsets = np.zeros(starts.size + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        bounds = np.zeros(len(combinations) + 1, dtype=np.intp)
        np.cumsum(np.bincount(combination, minlength=len(combinations)), out=bounds[1:])
        # Lay the runs out in group order: position p of group g reads
        # the run's entry p - offsets[g].
        shift = np.repeat(starts[appearance] - offsets[:-1], counts)
        layouts = GroupLayouts(rows[np.arange(keys.size) + shift], offsets, bounds)
        for c, columns in enumerate(combinations):
            self._batched[tuple(columns)] = layouts, c
        return layouts

    def stacked_group_ids(
        self, combinations: Sequence[tuple[str, ...]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every row's group under each combination in turn, numbered across all.

        Returns ``(ids, starts)``: ``ids[k * n + r]`` is row ``r``'s
        :meth:`group_layout` id under combination ``k`` plus ``starts[k]``,
        the number of groups of the combinations before it (``n`` rows).
        """
        n = self.num_rows
        ids = np.empty((len(combinations), n), dtype=np.intp)
        starts = [0]
        for k, columns in enumerate(combinations):
            inverse, _, offsets = self.group_layout(columns)
            np.add(inverse, starts[k], out=ids[k])
            starts.append(starts[k] + offsets.size - 1)
        return ids.ravel(), np.array(starts[:-1], dtype=np.intp)

    def _sort_keys(self, combinations: Sequence[tuple[str, ...]]) -> np.ndarray:
        """One row of group keys per combination: its mixed-radix codes.

        Where the radix product could overflow int64 (extreme per-column
        cardinalities), the row holds the code tuples' dense ranks in
        lexicographic order instead: silent wrap-around would merge
        distinct groups.  Keys that fit 16 bits come as ``uint16``, which
        NumPy's stable sort orders by radix sort, several times faster
        than the timsort it runs on int64.
        """
        n = self.num_rows
        columns = list(dict.fromkeys(c for combination in combinations for c in combination))
        position = {column: i for i, column in enumerate(columns)}
        per_column = [self.dimension_codes(column) for column in columns]
        radices = [max(len(decode), 1) for _, decode, _ in per_column]
        weights = [[0] * len(columns) for _ in combinations]
        wide = []
        largest = 1
        for c, (row, combination) in enumerate(zip(weights, combinations)):
            place = 1
            for column in reversed(combination):
                row[position[column]] = place
                place *= radices[position[column]]
            if place > _RADIX_LIMIT:
                wide.append(c)
                row[:] = [0] * len(columns)
                place = n
            largest = max(largest, place)
        stacked = np.array([codes for codes, _, _ in per_column], dtype=np.int64)
        keys = np.array(weights, dtype=np.int64).reshape(len(combinations), len(columns))
        keys = keys @ stacked.reshape(len(columns), n)
        for c in wide:
            tuples = [per_column[position[column]][0] for column in combinations[c]]
            perm = np.lexsort(tuples[::-1])
            new_tuple = np.zeros(n, dtype=bool)
            for column_codes in tuples:
                ordered = column_codes[perm]
                new_tuple[1:] |= ordered[1:] != ordered[:-1]
            keys[c, perm] = np.cumsum(new_tuple)
        return keys.astype(np.uint16) if largest <= 2**16 else keys

    def group_keys(self, columns: Sequence[str]) -> list[tuple[Any, ...]]:
        """Value tuple (in ``columns`` order) of every group of :meth:`group_layout` (cached)."""
        key = tuple(columns)
        cached = self._keys_cache.get(key)
        if cached is None and not key:
            # One group, even over no rows.
            cached = self._keys_cache[key] = [()]
        elif cached is None:
            _, order, offsets = self.group_layout(key)
            per_column = [self.dimension_codes(c) for c in key]
            # Decode each group's values at its first row.
            cached = self._keys_cache[key] = [
                tuple(decode[codes[row]] for codes, decode, _ in per_column)
                for row in order[offsets[:-1]].tolist()
            ]
        return cached

    def group_segments(
        self, columns: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray, dict[tuple[Any, ...], int]]:
        """Grouped row layout for one column combination.

        Returns ``(order, offsets, key_to_group)``: ``order`` holds all
        row indices sorted by group (ascending within each group),
        ``order[offsets[g]:offsets[g + 1]]`` slices group ``g``'s rows,
        and ``key_to_group`` maps value tuples to group ids, so the
        batch kernel's index build resolves each fact's scope rows with
        a dict lookup and a slice instead of a row scan.
        """
        _, order, offsets = self.group_layout(columns)
        return order, offsets, {key: g for g, key in enumerate(self.group_keys(columns))}

    def scope_row_indices(self, scope: Scope) -> np.ndarray:
        """Indices of rows within ``scope`` (ascending)."""
        mask = self._scope_hits(scope)
        return np.arange(self.num_rows) if mask is None else np.flatnonzero(mask)

    def scope_mask(self, scope: Scope) -> np.ndarray:
        """Boolean mask of rows within ``scope``."""
        mask = self._scope_hits(scope)
        return np.ones(self.num_rows, dtype=bool) if mask is None else mask

    def _scope_hits(self, scope: Scope) -> np.ndarray | None:
        """The rows within ``scope`` as a mask; None when they are all rows.

        A column whose decode table holds only the scope's value holds it
        on every row, so it needs no comparison.
        """
        mask = None
        for column, value in scope:
            if column not in self._dimensions:
                raise InvalidFactError(
                    f"scope restricts {column!r}, which is not a dimension of "
                    f"relation {self.name!r}"
                )
            codes, decode, code_of = self.dimension_codes(column)
            # A value absent from the column matches no row (-1 is never a code).
            code = code_of.get(value, -1)
            if code == 0 and len(decode) == 1:
                continue
            hits = codes == code
            mask = hits if mask is None else mask & hits
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
