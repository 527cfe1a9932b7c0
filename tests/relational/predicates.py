"""Test helper: a WHERE clause of equalities as one predicate."""

from __future__ import annotations

from typing import Any, Mapping

from repro.relational.expressions import AndPredicate, EqualsPredicate, Predicate, TruePredicate


def conjunction_of_equalities(assignments: Mapping[str, Any]) -> Predicate:
    """Build ``col1 = v1 AND col2 = v2 AND ...`` from a mapping.

    An empty mapping yields :class:`TruePredicate` (no restriction),
    matching how an empty query scope selects the whole relation.
    """
    if not assignments:
        return TruePredicate()
    children = [EqualsPredicate(col, val) for col, val in sorted(assignments.items())]
    if len(children) == 1:
        return children[0]
    return AndPredicate(children)
