"""Test-only oracle: fact enumeration with per-row Python set membership.

:class:`PerRowFactGenerator` is :class:`repro.facts.generation.FactGenerator`
as it stood before facts were laid out from the relation's codes in one
batched grouping pass: each fact group's rows come from
:func:`group_rows_by`, are filtered against the base scope's rows one by
one, and each fact is built as a :class:`Fact` up front.  The code-based
path must give the same facts, in the same order, with bitwise-identical
values.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Mapping

import numpy as np

from repro.core.model import Fact, Scope, SummarizationRelation
from repro.facts.generation import FactGenerator, GeneratedFacts
from repro.facts.groups import FactGroup


def group_rows_by(
    relation: SummarizationRelation, columns: Sequence[str]
) -> dict[tuple[Any, ...], np.ndarray]:
    """Group row indices by value combinations of ``columns``.

    Returns a mapping from value tuples (in ``columns`` order, in order
    of first appearance) to arrays of row indices.  The empty column
    list produces a single group covering all rows, keyed by the empty
    tuple.
    """
    order, offsets, key_to_group = relation.group_segments(columns)
    return {key: order[offsets[g] : offsets[g + 1]] for key, g in key_to_group.items()}


class PerRowFactGenerator(FactGenerator):
    """Per-row Python fact enumeration."""

    def generate(self, base_scope: Mapping[str, Any] | Scope | None = None) -> GeneratedFacts:
        base, shape, base_indices = self._prepare(base_scope)
        target = self._relation.target_values
        base_set = set(int(i) for i in base_indices)
        facts: list[Fact] = []
        rows: list[np.ndarray] = []
        ranges: dict[FactGroup, range] = {}
        for group in shape.groups if base_indices.size else ():
            start = len(facts)
            if group.arity == 0:
                by_value = {(): base_indices}
            else:
                by_value = group_rows_by(self._relation, list(group.dimensions))
            for key, indices in by_value.items():
                if any(v is None for v in key):
                    continue
                member_indices = [int(i) for i in indices if int(i) in base_set]
                if len(member_indices) < self._min_support:
                    continue
                assignments = dict(base.assignments)
                assignments.update(dict(zip(group.dimensions, key)))
                facts.append(
                    Fact(
                        scope=Scope(assignments),
                        value=float(target[member_indices].mean()),
                        support=len(member_indices),
                    )
                )
                rows.append(np.array(member_indices, dtype=np.intp))
            if len(facts) > start:
                ranges[group] = range(start, len(facts))
        return GeneratedFacts(
            facts,
            base,
            np.array([f.value for f in facts], dtype=float),
            np.array([f.support for f in facts], dtype=np.intp),
            np.concatenate(rows) if rows else np.empty(0, dtype=np.intp),
            ranges,
            shape.index_keys,
        )
