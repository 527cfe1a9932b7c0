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
    # The same dimensions as a set, for :meth:`is_specialization_of`;
    # plan choice and pruning test specialization on lattice bitsets.
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


class GroupLattice:
    """Fact groups under integer ids, with specialization bitsets and tie ranks.

    Ids ``0 .. size - 1`` are the listed groups, in order of first
    listing; ``ids`` maps groups to ids.  Each dimension keeps the
    bitset of the groups restricting it, so the groups that specialize
    ``t`` (``t ⊆ g``) are the AND of the bitsets of ``t``'s dimensions:
    ``specializations[t]``.  ``tie_rank[g]`` ranks the groups by their
    dimension tuples, Algorithm 4's tie-break, so plan choice compares
    numbers instead of tuples.

    A lattice is read-only once built: every problem over the same
    group set may share one.  :meth:`specializing` gives the bitset of
    a group from outside it without adding that group.
    """

    def __init__(self, groups: Iterable[FactGroup]):
        self.groups: tuple[FactGroup, ...] = tuple(dict.fromkeys(groups))
        self.ids: dict[FactGroup, int] = {group: gid for gid, group in enumerate(self.groups)}
        self.size = len(self.groups)
        self._restricting: dict[str, int] = {}
        for gid, group in enumerate(self.groups):
            for dimension in group.dimensions:
                self._restricting[dimension] = self._restricting.get(dimension, 0) | 1 << gid
        self.specializations = tuple(self.specializing(group) for group in self.groups)
        tie_rank = [0] * self.size
        by_dimensions = sorted(range(self.size), key=lambda g: self.groups[g].dimensions)
        for rank, gid in enumerate(by_dimensions):
            tie_rank[gid] = rank
        self.tie_rank = tuple(tie_rank)

    def specializing(self, group: FactGroup) -> int:
        """The bitset of the lattice's groups that specialize ``group``."""
        bits = (1 << self.size) - 1
        for dimension in group.dimensions:
            bits &= self._restricting.get(dimension, 0)
        return bits

    @staticmethod
    def bitset(ids: Iterable[int]) -> int:
        """The set of ``ids`` as a bitset."""
        bits = 0
        for gid in ids:
            bits |= 1 << gid
        return bits
