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

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.kernel import FactScopeIndex
from repro.core.model import Fact, Scope, SummarizationRelation
from repro.facts.groups import FactGroup, enumerate_fact_groups


def _mean(values: np.ndarray) -> float:
    """``float(values.mean())``, bit for bit, without ``mean``'s overhead.

    NumPy's float mean is the pairwise ``add.reduce`` divided by the
    count, which is exactly what this computes.
    """
    return float(np.add.reduce(values)) / values.size


@dataclass
class GeneratedFacts:
    """Result of candidate fact generation.

    Attributes
    ----------
    facts:
        All candidate facts.
    by_group:
        Facts keyed by their fact group (set of restricted *additional*
        dimensions, excluding the fixed base-scope columns).
    base_scope:
        The scope shared by every candidate (the query's predicates).
    rows:
        Each fact's scope rows (ascending), aligned with ``facts``.
    """

    facts: list[Fact]
    by_group: dict[FactGroup, list[Fact]] = field(default_factory=dict)
    base_scope: Scope = field(default_factory=Scope)
    rows: list[np.ndarray] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Number of candidate facts."""
        return len(self.facts)

    def scope_index(self, relation: SummarizationRelation) -> FactScopeIndex:
        """The facts' CSR scope index over ``relation``, from the known rows.

        Each group's facts are contiguous, so its fact ids are one range.
        """
        base_columns = self.base_scope.columns
        groups: dict[tuple[str, ...], np.ndarray] = {}
        start = 0
        for group, members in self.by_group.items():
            columns = tuple(sorted((*base_columns, *group.dimensions)))
            groups[columns] = np.arange(start, start + len(members), dtype=np.intp)
            start += len(members)
        return FactScopeIndex.from_rows(relation, self.facts, self.rows, groups)

    def groups(self) -> list[FactGroup]:
        """Fact groups with at least one candidate fact."""
        return list(self.by_group)

    def facts_in_groups(self, groups: Sequence[FactGroup]) -> list[Fact]:
        """Facts belonging to any of the given groups."""
        wanted = set(groups)
        out: list[Fact] = []
        for group, members in self.by_group.items():
            if group in wanted:
                out.extend(members)
        return out


class FactGenerator:
    """Enumerates candidate facts for one relation / data subset.

    Per-group enumeration runs on the relation's cached dimension codes:
    one ``np.bincount`` over the base-scope rows per group combination.
    :class:`PerRowFactGenerator` keeps per-row Python set membership as
    the parity oracle and benchmark baseline.

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
    """

    def __init__(
        self,
        relation: SummarizationRelation,
        max_extra_dimensions: int = 2,
        min_support: int = 1,
    ):
        if max_extra_dimensions < 0:
            raise ValueError("max_extra_dimensions must be non-negative")
        if min_support < 1:
            raise ValueError("min_support must be at least 1")
        self._relation = relation
        self._max_extra = max_extra_dimensions
        self._min_support = min_support

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
        base = base_scope if isinstance(base_scope, Scope) else Scope(dict(base_scope or {}))
        free_dimensions = [
            dim for dim in self._relation.dimensions if not base.restricts(dim)
        ]
        groups = enumerate_fact_groups(
            free_dimensions, max_arity=self._max_extra, include_empty=True
        )

        generated = GeneratedFacts(facts=[], base_scope=base)
        base_indices = self._relation.scope_row_indices(base)
        if base_indices.size == 0:
            return generated
        target = self._relation.target_values
        # The base-membership mask is shared by every group combination.
        in_base = np.zeros(self._relation.num_rows, dtype=bool)
        in_base[base_indices] = True

        for group in groups:
            members, rows = self._facts_for_group(base, group, base_indices, in_base, target)
            if members:
                generated.by_group[group] = members
                generated.facts.extend(members)
                generated.rows.extend(rows)
        return generated

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _facts_for_group(
        self,
        base: Scope,
        group: FactGroup,
        base_indices: np.ndarray,
        in_base: np.ndarray,
        target: np.ndarray,
    ) -> tuple[list[Fact], list[np.ndarray]]:
        """Facts restricting exactly the dimensions of ``group`` (plus base).

        Returns the facts and, aligned with them, their scope rows.
        ``base_indices`` (non-empty) lists the base-scope rows in
        ascending order and ``in_base`` is their membership mask.
        """
        if group.arity == 0:
            values = target[base_indices]
            if values.size < self._min_support:
                return [], []
            fact = Fact(scope=base, value=_mean(values), support=int(values.size))
            return [fact], [base_indices]

        # One bincount over the base-scope rows yields every group's
        # support at once; only qualifying groups are materialized, each
        # via an O(group size) slice of the cached grouped-row layout.
        dims = list(group.dimensions)
        inverse, keys = self._relation.grouping(dims)
        order, offsets, _ = self._relation.group_segments(dims)
        counts = np.bincount(inverse[base_indices], minlength=len(keys))

        facts: list[Fact] = []
        rows: list[np.ndarray] = []
        base_assignments = base.assignments
        # Group ids follow first appearance in the data, so ascending id
        # order reproduces the per-row oracle's fact order exactly.
        for g in np.nonzero(counts >= self._min_support)[0]:
            key = keys[g]
            if any(v is None for v in key):
                continue
            segment = order[offsets[g] : offsets[g + 1]]
            members = (
                segment if counts[g] == segment.size else segment[in_base[segment]]
            )
            assignments = dict(base_assignments)
            assignments.update(zip(dims, key))
            facts.append(
                Fact(
                    scope=Scope(assignments),
                    value=_mean(target[members]),
                    support=int(members.size),
                )
            )
            rows.append(members)
        return facts, rows


class PerRowFactGenerator(FactGenerator):
    """Per-row Python fact enumeration.

    The parity oracle for :class:`FactGenerator`'s code-based path and
    the baseline of ``benchmarks/bench_preprocessing.py``: same facts,
    same order, bitwise-identical values.
    """

    def _facts_for_group(
        self,
        base: Scope,
        group: FactGroup,
        base_indices: np.ndarray,
        in_base: np.ndarray,
        target: np.ndarray,
    ) -> tuple[list[Fact], list[np.ndarray]]:
        if group.arity == 0:
            return super()._facts_for_group(base, group, base_indices, in_base, target)
        groups_by_value = self._relation.group_rows_by(list(group.dimensions))
        base_set = set(int(i) for i in base_indices)
        facts: list[Fact] = []
        rows: list[np.ndarray] = []
        for key, indices in groups_by_value.items():
            if any(v is None for v in key):
                continue
            member_indices = [int(i) for i in indices if int(i) in base_set]
            if len(member_indices) < self._min_support:
                continue
            assignments = dict(base.assignments)
            assignments.update(dict(zip(group.dimensions, key)))
            values = target[member_indices]
            facts.append(
                Fact(
                    scope=Scope(assignments),
                    value=float(values.mean()),
                    support=len(member_indices),
                )
            )
            rows.append(np.array(member_indices, dtype=np.intp))
        return facts, rows
