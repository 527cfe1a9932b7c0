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
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Mapping, NamedTuple

import numpy as np

from repro.core.kernel import FactScopeIndex
from repro.core.model import Fact, Scope, SummarizationRelation
from repro.facts.groups import FactGroup, enumerate_fact_groups

_EMPTY_ROWS = np.empty(0, dtype=np.intp)


def _segment_means(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of each consecutive segment of ``values``, bit for bit ``float(segment.mean())``.

    ``np.add.reduce`` sums a segment as the identity 0.0 plus the
    pairwise sum of its elements, while ``np.add.reduceat`` starts from
    the segment's first element and adds the pairwise sum of the rest.
    Prefixing every segment with 0.0 makes the two the same sum.
    """
    if not sizes.size:
        return np.empty(0)
    # Segment k's 0.0 goes before its values, k places further on.
    heads = np.zeros(sizes.size, dtype=np.intp)
    np.cumsum(sizes[:-1] + 1, out=heads[1:])
    padded = np.zeros(values.size + sizes.size)
    at_value = np.ones(padded.size, dtype=bool)
    at_value[heads] = False
    padded[at_value] = values
    return np.add.reduceat(padded, heads) / sizes


class CandidateFacts(Sequence):
    """Candidate facts held as arrays; each :class:`Fact` is built on first access.

    Fact ``i`` restricts the base scope plus the columns ``columns[i]``,
    whose values it takes from the relation's codes at ``first_rows[i]``
    (any row of its scope), with value ``values[i]`` and support
    ``supports[i]``.  A summarizer typically reads a handful of the
    candidates, so most are never built.  Built facts are kept, and the
    sequence compares equal to a list of equal facts.
    """

    __slots__ = ("values", "supports", "_relation", "_base", "_columns", "_first_rows", "_built")

    #: No two candidates share a scope: each group holds one fact per
    #: key, and groups differ in their columns.  A selected fact then has
    #: no copies to retire (see :meth:`FactScopeIndex.copies_of`).
    distinct_scopes = True

    def __init__(
        self,
        relation: SummarizationRelation,
        base: Scope,
        columns: list[tuple[str, ...]],
        first_rows: np.ndarray,
        values: np.ndarray,
        supports: np.ndarray,
    ):
        self.values = values
        self.supports = supports
        self._relation = relation
        self._base = base
        self._columns = columns
        self._first_rows = first_rows
        self._built: list[Fact | None] = [None] * len(columns)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        fact = self._built[index]
        if fact is None:
            assignments = self._base.assignments
            row = self._first_rows[index]
            for column in self._columns[index]:
                codes, decode, _ = self._relation.dimension_codes(column)
                assignments[column] = decode[codes[row]]
            fact = self._built[index] = Fact(
                scope=Scope(assignments),
                value=float(self.values[index]),
                support=int(self.supports[index]),
            )
        return fact

    def retarget(self, relation: SummarizationRelation, values: np.ndarray) -> "CandidateFacts":
        """The same scopes over ``relation`` (a retargeted one), valued ``values``."""
        return CandidateFacts(
            relation, self._base, self._columns, self._first_rows, values, self.supports
        )

    def __iter__(self) -> Iterator[Fact]:
        return map(self.__getitem__, range(len(self)))

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
    """

    facts: Sequence[Fact]
    base_scope: Scope = field(default_factory=Scope)
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    supports: np.ndarray = field(default_factory=lambda: _EMPTY_ROWS)
    row_indices: np.ndarray = field(default_factory=lambda: _EMPTY_ROWS)
    group_ranges: dict[FactGroup, range] = field(default_factory=dict)
    index_keys: Mapping[FactGroup, tuple[str, ...]] = field(default_factory=dict)

    @property
    def count(self) -> int:
        """Number of candidate facts."""
        return len(self.facts)

    def retarget(self, relation: SummarizationRelation) -> "GeneratedFacts":
        """The same candidate scopes valued over ``relation``'s target.

        ``relation`` is the generating relation retargeted
        (:meth:`SummarizationRelation.retarget`): the rows, groups and
        supports stay, and each fact's value is the mean of the new
        target over its rows, computed as :meth:`FactGenerator.generate`
        computes it.
        """
        values = _segment_means(relation.target_values[self.row_indices], self.supports)
        return replace(self, facts=self.facts.retarget(relation, values), values=values)

    def scope_index(self, relation: SummarizationRelation) -> FactScopeIndex:
        """The facts' CSR scope index over ``relation``, from the known rows."""
        keys = self.index_keys
        base_columns = self.base_scope.columns
        groups = {
            keys.get(group) or tuple(sorted((*base_columns, *group.dimensions))): np.arange(
                ids.start, ids.stop, dtype=np.intp
            )
            for group, ids in self.group_ranges.items()
        }
        return FactScopeIndex.from_rows(
            relation, self.facts, self.values, self.row_indices, self.supports, groups
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


class FactGenerator:
    """Enumerates candidate facts for one relation / data subset.

    Enumeration lays out every fact group in one batched grouping pass
    over the relation's codes (:meth:`SummarizationRelation.group_layouts`,
    which also caches each group's layout for the bounds of Algorithm 3)
    and decides support and NULL keys for all groups at once; facts stay
    arrays until something reads them
    (see :class:`CandidateFacts`).

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

    def generate(self, base_scope: Mapping[str, Any] | Scope | None = None) -> GeneratedFacts:
        """Enumerate candidate facts.

        ``base_scope`` fixes the query's own predicates: every candidate
        fact includes them, and the additional predicates are placed on
        the remaining ("free") dimension columns.
        """
        base, shape, base_indices = self._prepare(base_scope)
        relation = self._relation
        # The empty group leads; the others are laid out in one pass.
        overall, *grouped = shape.groups
        order, offsets, bounds = relation.group_layouts(shape.combinations)
        firsts = order[offsets[:-1]]
        sizes = offsets[1:] - offsets[:-1]
        if base_indices.size == relation.num_rows:
            in_base = None
            counts = sizes
        else:
            # Base-scope membership at each position of ``order``.
            in_base = np.zeros(relation.num_rows, dtype=bool)
            in_base[base_indices] = True
            in_base = in_base[order]
            covered = np.zeros(order.size + 1, dtype=np.intp)
            np.cumsum(in_base, out=covered[1:])
            counts = covered[offsets[1:]] - covered[offsets[:-1]]
        keep = counts >= self._min_support
        self._drop_null_keys(keep, firsts, shape, bounds)

        # Group ids follow first appearance in the data, so ascending id
        # order reproduces the per-row oracle's fact order exactly.
        ids = np.flatnonzero(keep)
        selected = in_base
        if ids.size < keep.size:
            selected = np.repeat(keep, sizes)
            if in_base is not None:
                selected &= in_base
        rows = order if selected is None else order[selected]
        firsts, supports = firsts[ids], counts[ids]
        head = [overall] if base_indices.size >= self._min_support else []
        if head:
            rows = np.concatenate((base_indices, rows))
            firsts = np.concatenate((base_indices[:1], firsts))
            supports = np.concatenate(([base_indices.size], supports))

        # Fact ids: the overall fact, then each kept group's in group order.
        kept_before = np.zeros(keep.size + 1, dtype=np.intp)
        np.cumsum(keep, out=kept_before[1:])
        starts = (kept_before[bounds] + len(head)).tolist()
        ranges = dict.fromkeys(head, range(0, 1))
        columns: list[tuple[str, ...]] = [()] * len(head)
        for group, start, stop in zip(grouped, starts, starts[1:]):
            if stop > start:
                ranges[group] = range(start, stop)
                columns.extend([group.dimensions] * (stop - start))
        values = _segment_means(relation.target_values[rows], supports)
        facts = CandidateFacts(relation, base, columns, firsts, values, supports)
        return GeneratedFacts(facts, base, values, supports, rows, ranges, shape.index_keys)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prepare(
        self, base_scope: Mapping[str, Any] | Scope | None
    ) -> tuple[Scope, FactGroups, np.ndarray]:
        """The base scope, the fact groups over the free columns, and the base rows."""
        base = base_scope if isinstance(base_scope, Scope) else Scope(dict(base_scope or {}))
        dimensions = self._relation.dimensions
        key = (dimensions, base.columns, self._max_extra)
        shape = self._group_cache.get(key)
        if shape is None:
            shape = FactGroups.of(dimensions, base.columns, self._max_extra)
            self._group_cache[key] = shape
        return base, shape, self._relation.scope_row_indices(base)

    def _drop_null_keys(
        self, keep: np.ndarray, firsts: np.ndarray, shape: FactGroups, bounds: np.ndarray
    ) -> None:
        """Clear ``keep`` for every group whose key holds a NULL.

        Group ``g`` belongs to ``shape.combinations[c]`` for ``bounds[c]
        <= g < bounds[c + 1]`` and its first row is ``firsts[g]``; one
        pass per column that has a NULL code.
        """
        for column in shape.columns:
            codes, _, code_of = self._relation.dimension_codes(column)
            null = code_of.get(None)
            if null is not None:
                restricts = np.array([column in columns for columns in shape.combinations])
                keep &= ~(np.repeat(restricts, np.diff(bounds)) & (codes[firsts] == null))
