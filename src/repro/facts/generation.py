"""Candidate fact enumeration.

Following Section III, the facts considered for summarizing the answer
to a query are the averages of the target column over data subsets
defined by the query's predicates plus up to ``max_extra_dimensions``
additional equality predicates on the dimension columns, for every
value combination that actually appears in the data subset.

The generator also always includes the "overall" fact — the average
over the whole data subset (no additional predicates) — which the
paper's example speeches use ("It is 35 overall.").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, NamedTuple

import numpy as np

from repro.core.kernel import FactScopeIndex, ScopeSegments, segment_sums
from repro.core.model import DimensionCodes, Fact, Scope, SummarizationRelation
from repro.facts.groups import FactGroup, enumerate_fact_groups

_EMPTY_ROWS = np.empty(0, dtype=np.intp)


def _segment_means(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of each consecutive segment of ``values``, bit for bit ``float(segment.mean())``.

    A segment's mean is its sum, as ``np.add.reduce`` makes it
    (:func:`~repro.core.kernel.segment_sums`), over its size.
    """
    return segment_sums(values, sizes) / sizes


def _means_and_errors(entries: np.ndarray, supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Facts' values and their entries' errors, from one gather of the target.

    ``entries`` holds the target value of each fact's rows, fact by
    fact, ``supports[i]`` of them for fact ``i``.  Returns each fact's
    value (:func:`_segment_means`) and each entry's ``|value − v_r|``,
    computed in ``entries``' place: the bits of
    :meth:`FactScopeIndex.from_rows`' fact errors.
    """
    values = _segment_means(entries, supports)
    # |v_r − value| has the bits of |value − v_r|.
    entries -= values.repeat(supports)
    np.abs(entries, out=entries)
    return values, entries


class CandidateFacts(Sequence):
    """Candidate facts held as arrays; each :class:`Fact` is built on first access.

    Fact ``i`` restricts the base scope plus the columns of
    ``groups[group_of[i]]``, whose values it takes from ``codes`` (a
    relation's
    :meth:`~repro.core.model.SummarizationRelation.dimension_codes` of
    each column) at ``first_rows[i]`` (any row of its scope), with
    value ``values[i]`` and support ``supports[i]``.  ``values`` may be
    a function that returns them, called on the first read: a walked
    problem's solver knows the values of the facts it selects
    (:meth:`fact`).  A summarizer typically reads a handful of the
    candidates, so most are never built.  Built facts are kept, and the
    sequence compares equal to a list of equal facts.
    """

    __slots__ = (
        "supports",
        "_values",
        "_codes",
        "_base",
        "_groups",
        "_group_of",
        "_first_rows",
        "_built",
    )

    #: No two candidates share a scope: each group holds one fact per
    #: key, and groups differ in their columns.  A selected fact then has
    #: no copies to retire (see :meth:`FactScopeIndex.copies_of`).
    distinct_scopes = True

    def __init__(
        self,
        codes: Mapping[str, DimensionCodes],
        base: Scope,
        groups: Sequence[FactGroup],
        group_of: np.ndarray,
        first_rows: np.ndarray,
        values: np.ndarray | Callable[[], np.ndarray],
        supports: np.ndarray,
    ):
        self.supports = supports
        self._values = values
        self._codes = codes
        self._base = base
        self._groups = groups
        self._group_of = group_of
        self._first_rows = first_rows
        self._built: list[Fact | None] = [None] * len(group_of)

    @property
    def values(self) -> np.ndarray:
        """Each fact's value."""
        if callable(self._values):
            self._values = self._values()
        return self._values

    def __len__(self) -> int:
        return len(self._built)

    def fact(self, index: int, value: float | None = None) -> Fact:
        """Fact ``index``; ``value``, when given, is its value (``values[index]``)."""
        fact = self._built[index]
        if fact is None:
            assignments = self._base.assignments
            row = self._first_rows[index]
            for column in self._groups[self._group_of[index]].dimensions:
                codes, decode, _ = self._codes[column]
                assignments[column] = decode[codes[row]]
            fact = self._built[index] = Fact(
                scope=Scope(assignments),
                value=float(self.values[index] if value is None else value),
                support=int(self.supports[index]),
            )
        return fact

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self.fact(index)

    def __iter__(self) -> Iterator[Fact]:
        return map(self.fact, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (CandidateFacts, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"CandidateFacts({list(self)!r})"


@dataclass
class GeneratedFacts:
    """Result of candidate fact generation.

    Attributes
    ----------
    facts:
        All candidate facts, group by group.
    base_scope:
        The scope shared by every candidate (the query's predicates).
    values / supports:
        Each fact's value and row count, aligned with ``facts``.
    row_indices:
        Every fact's scope rows (each fact's ascending), concatenated in
        fact order.
    group_ranges:
        The fact ids of each fact group (set of restricted *additional*
        dimensions, excluding the fixed base-scope columns).
    index_keys:
        Each fact group's key in the scope index: its columns and the
        base-scope columns, sorted.  A group missing here gets that key
        worked out from ``base_scope``.
    fact_errors:
        Each row entry's ``|value − v_r|``, when already known.
    """

    facts: Sequence[Fact]
    base_scope: Scope = field(default_factory=Scope)
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    supports: np.ndarray = field(default_factory=lambda: _EMPTY_ROWS)
    row_indices: np.ndarray = field(default_factory=lambda: _EMPTY_ROWS)
    group_ranges: dict[FactGroup, range] = field(default_factory=dict)
    index_keys: Mapping[FactGroup, tuple[str, ...]] = field(default_factory=dict)
    fact_errors: np.ndarray | None = None

    @property
    def count(self) -> int:
        """Number of candidate facts."""
        return len(self.facts)

    def scope_index(self, relation: SummarizationRelation) -> FactScopeIndex:
        """The facts' CSR scope index over ``relation``, from the known rows."""

        def by_columns() -> dict[tuple[str, ...], np.ndarray]:
            keys = self.index_keys
            base_columns = self.base_scope.columns
            fact_ids = np.arange(self.count, dtype=np.intp)
            return {
                keys.get(group) or tuple(sorted((*base_columns, *group.dimensions))): fact_ids[
                    ids.start : ids.stop
                ]
                for group, ids in self.group_ranges.items()
            }

        return FactScopeIndex.from_rows(
            relation,
            self.facts,
            self.values,
            self.row_indices,
            self.supports,
            by_columns,
            self.fact_errors,
        )

    def groups(self) -> list[FactGroup]:
        """Fact groups with at least one candidate fact."""
        return list(self.group_ranges)


class FactGroups(NamedTuple):
    """The fact groups over the columns a base scope leaves free.

    ``groups`` is the POWERSET of Algorithms 3 and 4 over the free
    columns up to the arity limit, the empty group first;
    ``combinations`` lists the other groups' columns, in order, for the
    grouping pass; ``columns`` holds every column they restrict; and
    ``index_keys`` maps each group to its key in the scope index.  They
    depend only on the columns, so a :class:`FactGenerator` given a
    cache builds them once per base-scope shape (see :meth:`of`).
    """

    groups: list[FactGroup]
    combinations: list[tuple[str, ...]]
    columns: tuple[str, ...]
    index_keys: dict[FactGroup, tuple[str, ...]]

    @classmethod
    def of(
        cls, dimensions: Sequence[str], base_columns: tuple[str, ...], max_arity: int
    ) -> "FactGroups":
        """The fact groups of ``dimensions`` beyond ``base_columns``."""
        free = [dim for dim in dimensions if dim not in base_columns]
        groups = enumerate_fact_groups(free, max_arity=max_arity, include_empty=True)
        combinations = [group.dimensions for group in groups[1:]]
        return cls(
            groups,
            combinations,
            tuple(dict.fromkeys(column for columns in combinations for column in columns)),
            {group: tuple(sorted((*base_columns, *group.dimensions))) for group in groups},
        )


@dataclass
class ScopeFamily:
    """The candidate facts of every scope over some columns, from one grouping pass.

    A *scope* fixes one value of each of the family's columns (the
    base-scope columns, a query's predicate columns); the family holds
    the facts of each scope present in the generating relation exactly
    as :meth:`FactGenerator.generate` lays out the facts of that scope's
    own subset: the overall fact, then each fact group's facts in order
    of first appearance, each fact's rows ascending.  Scope ``s`` owns
    the facts ``fact_starts[s]:fact_starts[s + 1]``, the entries
    ``entry_starts[s]:entry_starts[s + 1]`` of ``rows`` and the
    generating relation's rows ``scope_rows[scope_starts[s]:scope_starts[s
    + 1]]``.  A fact's first row is a row of the generating relation,
    whose ``codes`` of the free columns give the fact's scope.  A fact's
    rows are positions in ``scope_rows``, or for a family of one scope
    (columns that do not split the generating relation, such as a
    subset's own predicates) the generating relation's rows.  Fact values depend on the target:
    a problem computes its own (:meth:`generated`), and a batch of
    every scope's problems over one target all of them at once
    (:meth:`segments`).
    """

    shape: FactGroups
    #: Each scope's id by its values of the columns; None for one scope.
    keys: dict[tuple, int] | None
    codes: dict[str, DimensionCodes]
    scope_rows: np.ndarray
    scope_starts: np.ndarray
    fact_starts: np.ndarray
    entry_starts: np.ndarray
    #: Each fact's rows, concatenated in fact order: int32 when the
    #: family splits scopes, which it keeps for the scopes' later problems.
    rows: np.ndarray
    supports: np.ndarray
    first_rows: np.ndarray
    #: Each fact's group, by its index in ``shape.groups``.
    group_of: np.ndarray
    _caches: dict[int, dict] = field(default_factory=dict)

    def scope(self, values: tuple) -> int | None:
        """The id of the scope holding ``values`` (in column order); None if absent."""
        return 0 if self.keys is None else self.keys.get(values)

    def relation_rows(self, scope: int) -> np.ndarray:
        """The generating relation's rows of ``scope``, ascending."""
        return self.scope_rows[self.scope_starts[scope] : self.scope_starts[scope + 1]]

    def num_facts(self, scope: int) -> int:
        """Number of ``scope``'s candidate facts."""
        return int(self.fact_starts[scope + 1] - self.fact_starts[scope])

    def cache(self, scope: int) -> dict:
        """A dict kept for ``scope``: the :attr:`FactScopeIndex.cache` of its problems."""
        return self._caches.setdefault(scope, {})

    def candidates(
        self, scope: int, base: Scope, values: np.ndarray | Callable[[], np.ndarray]
    ) -> CandidateFacts:
        """``scope``'s facts with base ``base`` and ``values`` (see :class:`CandidateFacts`)."""
        first, last = self.fact_starts[scope], self.fact_starts[scope + 1]
        return CandidateFacts(
            self.codes,
            base,
            self.shape.groups,
            self.group_of[first:last],
            self.first_rows[first:last],
            values,
            self.supports[first:last],
        )

    def values(self, scope: int, relation: SummarizationRelation) -> np.ndarray:
        """Each of ``scope``'s facts' value over ``relation``, the relation of its rows."""
        supports = self.supports[self.fact_starts[scope] : self.fact_starts[scope + 1]]
        return _segment_means(relation.target_values[self._rows(scope)], supports)

    def generated(
        self,
        scope: int,
        relation: SummarizationRelation,
        base: Scope,
        facts: CandidateFacts | None = None,
    ) -> GeneratedFacts:
        """``scope``'s facts over ``relation``, the relation of its rows, with base ``base``.

        A fact's value is the mean of ``relation``'s target over its
        rows, computed as for the scope generated on its own; ``facts``
        (from :meth:`candidates`) may already hold them.
        """
        first, last = self.fact_starts[scope], self.fact_starts[scope + 1]
        rows = self._rows(scope)
        supports = self.supports[first:last]
        values, errors = _means_and_errors(relation.target_values[rows], supports)
        if facts is None:
            facts = self.candidates(scope, base, values)
        group_of = self.group_of[first:last]
        shape = self.shape
        # A scope's facts come group by group, in the order of ``shape.groups``.
        bounds = group_of.searchsorted(np.arange(len(shape.groups) + 1)).tolist()
        ranges = {
            group: range(start, stop)
            for group, start, stop in zip(shape.groups, bounds, bounds[1:])
            if stop > start
        }
        return GeneratedFacts(facts, base, values, supports, rows, ranges, shape.index_keys, errors)

    def segments(self, target: np.ndarray, prior: float) -> ScopeSegments:
        """Every scope's facts over ``target`` and a constant prior ``prior``, as one batch.

        ``target`` is the generating relation's target, with no NULL.
        Each scope's values, fact errors and per-row errors have the
        bits of its problem's own (:meth:`generated`,
        :meth:`FactScopeIndex.from_rows`,
        :meth:`UtilityEvaluator.initial_error`): the same operations on
        the same values, each scope's rows in ascending order.
        """
        # intp positions: NumPy gathers through them several times faster.
        rows = self.rows.astype(np.intp)
        at = target[self.scope_rows]
        values, fact_errors = _means_and_errors(at[rows], self.supports)
        offsets = np.zeros(self.supports.size + 1, dtype=np.intp)
        self.supports.cumsum(out=offsets[1:])
        fact_ids = np.arange(self.supports.size, dtype=np.intp).repeat(self.supports)
        return ScopeSegments(
            self.fact_starts,
            np.diff(self.scope_starts),
            offsets,
            rows,
            fact_ids,
            fact_errors,
            values,
            np.abs(prior - at),
        )

    def _rows(self, scope: int) -> np.ndarray:
        """Each of ``scope``'s facts' rows in the relation of the scope's rows, concatenated."""
        rows = self.rows[self.entry_starts[scope] : self.entry_starts[scope + 1]]
        if self.keys is None:
            return rows
        return np.subtract(rows, self.scope_starts[scope], dtype=np.intp)


class FactGenerator:
    """Enumerates candidate facts for one relation / data subset.

    Enumeration lays out every fact group in one batched grouping pass
    over the relation's codes (:meth:`SummarizationRelation.group_layouts`,
    which also caches each group's layout for the bounds of Algorithm 3)
    and decides support and NULL keys for all groups at once; facts stay
    arrays until something reads them
    (see :class:`CandidateFacts`).  The same pass can lay out a whole
    family of base scopes at once (``scope_columns``): it then groups by
    the scope columns too and sorts the groups scope by scope.

    Parameters
    ----------
    relation:
        The relation (already restricted to the query's data subset) to
        generate facts for.
    max_extra_dimensions:
        Maximal number of additional dimension columns a fact may
        restrict beyond the base scope (the paper's default is two).
    min_support:
        Minimal number of rows a fact's scope must cover; scopes with
        fewer rows are skipped (they describe noise, not signal).
    group_cache:
        Where to keep :class:`FactGroups` by base-scope shape.  A caller
        that generates facts for many relations (the problem generator)
        passes one dict to all its generators, so each shape's groups
        are built once; by default each generator keeps its own.
    """

    def __init__(
        self,
        relation: SummarizationRelation,
        max_extra_dimensions: int = 2,
        min_support: int = 1,
        group_cache: dict | None = None,
    ):
        if max_extra_dimensions < 0:
            raise ValueError("max_extra_dimensions must be non-negative")
        if min_support < 1:
            raise ValueError("min_support must be at least 1")
        self._relation = relation
        self._max_extra = max_extra_dimensions
        self._min_support = min_support
        self._group_cache = {} if group_cache is None else group_cache

    @property
    def relation(self) -> SummarizationRelation:
        """The relation facts are generated for."""
        return self._relation

    def generate(
        self,
        base_scope: Mapping[str, Any] | Scope | None = None,
        *,
        scope_columns: tuple[str, ...] | None = None,
    ) -> GeneratedFacts | ScopeFamily:
        """Enumerate candidate facts.

        ``base_scope`` fixes the query's own predicates: every candidate
        fact includes them, and the additional predicates are placed on
        the remaining ("free") dimension columns.  With ``scope_columns``
        instead, every scope over those columns is a base scope, and the
        facts of all of them come back as one :class:`ScopeFamily`.
        """
        if scope_columns is not None:
            return self._lay_out(self._shape(scope_columns), scope_columns, None)
        base, shape, base_indices = self._prepare(base_scope)
        return self._lay_out(shape, (), base_indices).generated(0, self._relation, base)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prepare(
        self, base_scope: Mapping[str, Any] | Scope | None
    ) -> tuple[Scope, FactGroups, np.ndarray]:
        """The base scope, the fact groups over the free columns, and the base rows."""
        base = base_scope if isinstance(base_scope, Scope) else Scope(dict(base_scope or {}))
        return base, self._shape(base.columns), self._relation.scope_row_indices(base)

    def _shape(self, base_columns: tuple[str, ...]) -> FactGroups:
        """The fact groups beyond ``base_columns`` (cached)."""
        dimensions = self._relation.dimensions
        key = (dimensions, base_columns, self._max_extra)
        shape = self._group_cache.get(key)
        if shape is None:
            shape = FactGroups.of(dimensions, base_columns, self._max_extra)
            self._group_cache[key] = shape
        return shape

    def _lay_out(
        self, shape: FactGroups, columns: tuple[str, ...], base_indices: np.ndarray | None
    ) -> ScopeFamily:
        """The one grouping pass: the facts of every scope over ``columns``.

        Only the columns that take several values split the rows into
        scopes; without them the family is the one scope of
        ``base_indices`` (all rows when None).
        """
        relation = self._relation
        n = relation.num_rows
        split = tuple(column for column in columns if not relation.is_constant(column))
        blocks = [split + combination for combination in shape.combinations]
        if split:
            # The scopes themselves lead: their groups are the overall facts.
            blocks.insert(0, split)
        order, offsets, bounds = relation.group_layouts(blocks)
        firsts = order[offsets[:-1]]
        sizes = offsets[1:] - offsets[:-1]
        counts = sizes
        in_base = None
        if base_indices is not None and base_indices.size != n:
            # Base-scope membership at each position of ``order``.
            in_base = np.zeros(n, dtype=bool)
            in_base[base_indices] = True
            in_base = in_base[order]
            covered = np.zeros(order.size + 1, dtype=np.intp)
            np.cumsum(in_base, out=covered[1:])
            counts = covered[offsets[1:]] - covered[offsets[:-1]]
        keep = counts >= self._min_support
        self._drop_null_keys(keep, firsts, shape, bounds, int(bool(split)))
        # Each group's index in ``shape.groups``: block b lays out group
        # b (b + 1 without the leading scope block).
        group_of = np.repeat(np.arange(int(not split), len(shape.groups)), np.diff(bounds))
        if split:
            return self._split(shape, columns, order, offsets, bounds, keep, group_of)

        # One scope.  Group ids follow first appearance in the data, so
        # ascending id order reproduces the per-row oracle's fact order.
        if base_indices is None:
            base_indices = np.arange(n)
        ids = np.flatnonzero(keep)
        selected = in_base
        if ids.size < keep.size:
            selected = np.repeat(keep, sizes)
            if in_base is not None:
                selected &= in_base
        rows = order if selected is None else order[selected]
        firsts, supports, group_of = firsts[ids], counts[ids], group_of[ids]
        if base_indices.size >= self._min_support:
            # The overall fact leads.
            rows = np.concatenate((base_indices, rows))
            firsts = np.concatenate((base_indices[:1], firsts))
            supports = np.concatenate(([base_indices.size], supports))
            group_of = np.concatenate(([0], group_of))
        return ScopeFamily(
            shape,
            None,
            {column: relation.dimension_codes(column) for column in shape.columns},
            base_indices,
            np.array([0, base_indices.size]),
            np.array([0, supports.size]),
            np.array([0, rows.size]),
            rows,
            supports,
            firsts,
            group_of,
        )

    def _split(
        self,
        shape: FactGroups,
        columns: tuple[str, ...],
        order: np.ndarray,
        offsets: np.ndarray,
        bounds: np.ndarray,
        keep: np.ndarray,
        group_of: np.ndarray,
    ) -> ScopeFamily:
        """The family of the scopes laid out as the leading block of ``order``.

        The kept groups, block by block and by first appearance in the
        relation, are sorted stably by scope: within a scope they keep
        that order, which is their order of first appearance among the
        scope's rows.
        """
        relation = self._relation
        n = relation.num_rows
        scopes = int(bounds[1])
        scope_sizes = offsets[1 : scopes + 1] - offsets[:scopes]
        # Each row's scope and its position in the scopes' rows.
        scope_of = np.empty(n, dtype=np.intp)
        scope_of[order[:n]] = np.repeat(np.arange(scopes), scope_sizes)
        position = np.empty(n, dtype=np.int32)
        position[order[:n]] = np.arange(n, dtype=np.int32)

        ids = np.flatnonzero(keep)
        firsts = order[offsets[ids]]
        by_scope = np.argsort(scope_of[firsts], kind="stable")
        ids, firsts = ids[by_scope], firsts[by_scope]
        supports = offsets[ids + 1] - offsets[ids]
        ends = np.cumsum(supports)
        # Entry k of fact i reads position offsets[i] + k of ``order``.
        shift = np.repeat(offsets[ids] - (ends - supports), supports)
        rows = position[order[np.arange(ends[-1] if ends.size else 0) + shift]]

        fact_starts = np.zeros(scopes + 1, dtype=np.intp)
        np.cumsum(np.bincount(scope_of[firsts], minlength=scopes), out=fact_starts[1:])
        entry_starts = np.concatenate(([0], ends))[fact_starts]
        per_column = [relation.dimension_codes(column) for column in columns]
        heads = order[offsets[:scopes]].tolist()
        keys = {
            tuple(decode[codes[row]] for codes, decode, _ in per_column): scope
            for scope, row in enumerate(heads)
        }
        return ScopeFamily(
            shape,
            keys,
            # The codes, not the relation: it keeps the whole pass.
            {column: relation.dimension_codes(column) for column in shape.columns},
            # Copies: views would keep the whole pass alive.
            order[:n].copy(),
            offsets[: scopes + 1].copy(),
            fact_starts,
            entry_starts,
            rows,
            supports,
            firsts,
            group_of[ids],
        )

    def _drop_null_keys(
        self,
        keep: np.ndarray,
        firsts: np.ndarray,
        shape: FactGroups,
        bounds: np.ndarray,
        lead: int,
    ) -> None:
        """Clear ``keep`` for every group whose key holds a NULL on a free column.

        Block ``b`` owns the groups ``bounds[b]:bounds[b + 1]``; after
        ``lead`` blocks of scopes, each lays out the groups of one of
        ``shape.combinations`` in turn, and group ``g``'s first row is
        ``firsts[g]``.  One pass per column that has a NULL code.
        """
        for column in shape.columns:
            codes, _, code_of = self._relation.dimension_codes(column)
            null = code_of.get(None)
            if null is not None:
                restricts = np.array(
                    [False] * lead + [column in columns for columns in shape.combinations]
                )
                keep &= ~(np.repeat(restricts, np.diff(bounds)) & (codes[firsts] == null))
