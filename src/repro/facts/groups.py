"""Fact groups: sets of restricted dimension columns.

A fact group collects all candidate facts that restrict exactly the
same set of dimension columns (e.g. all facts restricting ``region``
but not ``season``).  Groups form a lattice under the subset relation:
a group G2 *specializes* G1 when G1 ⊂ G2 (it restricts strictly more
columns, hence each of its facts covers a subset of the data).  The
pruning mechanism of Section VI-B prunes a group together with all its
specializations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence


@dataclass(frozen=True, order=True)
class FactGroup:
    """A fact group, identified by the sorted tuple of restricted dimensions."""

    dimensions: tuple[str, ...]
    # The same dimensions as a set, for the subset tests the plan
    # optimizer runs on every pair of groups.
    _dimension_set: frozenset[str] = field(init=False, repr=False, compare=False)
    # Hashed once: the cost-model memos and the plan optimizer probe
    # groups in dicts and sets hundreds of thousands of times per run.
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, dimensions: Iterable[str]):
        unique = set(dimensions)
        object.__setattr__(self, "dimensions", tuple(sorted(unique)))
        object.__setattr__(self, "_dimension_set", frozenset(unique))
        object.__setattr__(self, "_hash", hash((self.dimensions,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes, so an unpickled group
        # must hash itself again instead of carrying ``_hash`` over.
        return (FactGroup, (self.dimensions,))

    @property
    def arity(self) -> int:
        """Number of restricted dimensions."""
        return len(self.dimensions)

    def is_specialization_of(self, other: "FactGroup") -> bool:
        """True when this group restricts a superset of ``other``'s dimensions.

        The relation is reflexive (matching the paper's pruning rule
        ``t ⊆ g``: a pruned target removes itself and its strict
        specializations).
        """
        return other._dimension_set <= self._dimension_set

    def __repr__(self) -> str:
        if not self.dimensions:
            return "FactGroup(<no dims>)"
        return f"FactGroup({', '.join(self.dimensions)})"


def enumerate_fact_groups(
    dimensions: Sequence[str],
    max_arity: int | None = None,
    include_empty: bool = False,
) -> list[FactGroup]:
    """Enumerate fact groups over ``dimensions`` (the POWERSET of Alg. 3/4).

    Parameters
    ----------
    dimensions:
        Available dimension columns.
    max_arity:
        Maximal number of restricted dimensions per group; None means no
        limit (the full power set).
    include_empty:
        Whether to include the empty group (the single fact describing
        the whole data subset).  The system always considers the overall
        average as a fact, so the generator includes it by default — but
        pruning plans never need to prune the singleton group, hence the
        flag.
    """
    dims = sorted(set(dimensions))
    limit = len(dims) if max_arity is None else min(max_arity, len(dims))
    groups: list[FactGroup] = []
    start = 0 if include_empty else 1
    for arity in range(start, limit + 1):
        for combo in combinations(dims, arity):
            groups.append(FactGroup(combo))
    return groups


def specializations(group: FactGroup, universe: Iterable[FactGroup]) -> list[FactGroup]:
    """All groups in ``universe`` that specialize ``group`` (including itself)."""
    return [g for g in universe if g.is_specialization_of(group)]
