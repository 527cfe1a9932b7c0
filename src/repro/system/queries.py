"""Data queries: a target column plus a conjunction of equality predicates.

This is the query class the system supports (Section III): "queries
requesting information on values in a target column for a data subset,
defined by a conjunction of equality predicates".  Query length is the
number of predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from repro.core.model import Scope, shared_pairs


#: ``predicate_map`` default for a column the query does not restrict:
#: equal to no value, ``None`` included.
_MISSING = object()


def _canonical(predicates: Iterable[tuple[str, Any]]) -> tuple[tuple[str, Any], ...]:
    """``predicates`` sorted by column, as :func:`shared_pairs`."""
    return shared_pairs(sorted(predicates, key=itemgetter(0)))


@dataclass(frozen=True, slots=True)
class DataQuery:
    """A supported voice query.

    Attributes
    ----------
    target:
        The target column the user asks about.
    predicates:
        Equality predicates on dimension columns (column -> value).
    """

    target: str
    predicates: tuple[tuple[str, Any], ...] = field(default_factory=tuple)
    #: The ``predicate_map`` cache; not part of equality, hashing or pickling.
    _predicate_map: Mapping[str, Any] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Canonicalize: predicates are always sorted by column, even when
        # the dataclass is constructed directly — key() equality and the
        # store's subset-key probes depend on one canonical order.
        object.__setattr__(self, "predicates", _canonical(self.predicates))

    @staticmethod
    def create(target: str, predicates: Mapping[str, Any] | None = None) -> "DataQuery":
        """Build a query from a predicate mapping."""
        return DataQuery(target=target, predicates=tuple((predicates or {}).items()))

    @property
    def predicate_map(self) -> Mapping[str, Any]:
        """Predicates as a read-only mapping (cached).

        The map is materialized once per query instance: lookups hit it
        in inner loops (``is_refinement_of`` during store matching), so
        rebuilding a dict per call would dominate those paths.  The
        mapping proxy keeps the cache immutable to callers.
        """
        cached = self._predicate_map
        if cached is None:
            cached = MappingProxyType(dict(self.predicates))
            object.__setattr__(self, "_predicate_map", cached)
        return cached

    def __getstate__(self) -> dict[str, Any]:
        # The cached mapping proxy is not picklable (and is rebuilt on
        # demand), so only the target and the predicates travel.
        return {"target": self.target, "predicates": self.predicates}

    def __setstate__(self, state: dict[str, Any]) -> None:
        object.__setattr__(self, "target", state["target"])
        object.__setattr__(self, "predicates", _canonical(state["predicates"]))
        object.__setattr__(self, "_predicate_map", None)

    @property
    def length(self) -> int:
        """Query length = number of equality predicates."""
        return len(self.predicates)

    def scope(self) -> Scope:
        """The data-subset scope defined by the query's predicates."""
        return Scope(self.predicate_map)

    def key(self) -> tuple:
        """Canonical lookup key: (target, sorted predicate items)."""
        return (self.target, self.predicates)

    def is_refinement_of(self, other: "DataQuery") -> bool:
        """True when ``other``'s predicates are a subset of this query's.

        Used by the run-time matcher: a stored speech for predicates S
        can answer a query Q when S ⊆ Q (the stored subset contains the
        queried one) and the targets agree.
        """
        if self.target != other.target:
            return False
        mine = self.predicate_map
        return all(mine.get(col, _MISSING) == val for col, val in other.predicates)

    def describe(self) -> str:
        """Readable description, e.g. "delay for season=Winter, region=East"."""
        if not self.predicates:
            return f"{self.target} overall"
        restrictions = ", ".join(f"{col}={val}" for col, val in self.predicates)
        return f"{self.target} for {restrictions}"
