"""Speech store: pre-generated speeches indexed by query.

At run time the system "maps voice queries to the most related speech
summary, generated during pre-processing" (Section III).  Exact matches
are preferred; otherwise, among all speeches for the queried target
column, the store returns the speech whose data subset is the most
specific one containing the queried subset: predicates S with S ⊆ Q and
|S ∩ Q| maximal.

Run-time lookups must stay fast no matter how many speeches were
pre-generated (the paper's flights deployment stores 8,500), so the
store keys each speech by its own query: per target, a dict from the
query's canonical predicates tuple to the speech id.  There is no
inverted index.  ``best_match`` probes the query's own predicate
subsets as exact keys, longest first, and only at the lengths the
target stores: Σ C(|Q|, l) probes over the stored lengths l < |Q|,
independent of store size (a 3-predicate voice query costs at most 7;
a 9-predicate query against stored lengths 0-3 costs 130).  That
subset rule is :func:`longest_subset_match`; the compact store
(:mod:`repro.store.columnar`) calls it with its own key probe.

Matching is deterministic: among qualifying speeches the longest
stored query wins, and ties break by insertion order (the speech whose
query was *first* added wins; replacing a speech keeps its original
position).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Collection, Iterator

from repro.core.model import Speech
from repro.system.queries import DataQuery


def longest_subset_match(
    predicates: tuple,
    lengths: Collection[int],
    probe: Callable[[tuple], int | None],
) -> tuple[int, int] | None:
    """(speech id, length) of the longest stored proper subset of a query.

    The one subset rule both stores share: ``probe`` maps a predicate
    subset (a tuple, in the query's own order) to the id of the speech
    stored under exactly that key, or None.  Subsets are probed longest
    first, only at the ``lengths`` the target stores, and within a
    length the smallest id (earliest first insertion) wins: Σ C(|Q|, l)
    probes over the stored lengths l < |Q|, however many speeches are
    stored.  None when no proper subset is stored.
    """
    for length in range(len(predicates) - 1, -1, -1):
        if length not in lengths:
            continue
        best_id = None
        for subset in combinations(predicates, length):
            speech_id = probe(subset)
            if speech_id is not None and (best_id is None or speech_id < best_id):
                best_id = speech_id
        if best_id is not None:
            return best_id, length
    return None


@dataclass(frozen=True, slots=True)
class StoredSpeech:
    """A pre-generated speech with its metadata."""

    query: DataQuery
    speech: Speech
    text: str
    utility: float = 0.0
    scaled_utility: float = 0.0
    algorithm: str = ""


@dataclass
class MatchResult:
    """Result of a run-time lookup.

    ``exact`` indicates whether the stored speech answers precisely the
    requested query or a more general containing subset.
    """

    stored: StoredSpeech
    exact: bool
    overlap: int = 0


@dataclass
class SpeechStore:
    """In-memory speech store keyed by each speech's own query.

    Speech ids are assigned on first insertion of a query and are
    stable across replacements, so insertion-order tie-breaking
    survives updates.
    """

    #: target -> {query predicates -> speech id}, in first-insertion order.
    _ids: dict[str, dict[tuple, int]] = field(default_factory=dict)
    #: speech id -> current speech for that id's query.  The only
    #: structure holding speeches, so a replacement is a single write.
    _speeches: list[StoredSpeech] = field(default_factory=list)
    #: target -> the lengths of its stored queries.
    _lengths: dict[str, set[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add(self, stored: StoredSpeech) -> None:
        """Add (or replace) the speech for its query.

        Replacement is O(1): the new speech takes the old one's id, so
        the keys and the tie-break order are untouched.
        """
        query = stored.query
        ids = self._ids.get(query.target)
        if ids is None:
            ids = self._ids[query.target] = {}
            self._lengths[query.target] = set()
        speeches = self._speeches
        speech_id = ids.setdefault(query.predicates, len(speeches))
        if speech_id < len(speeches):
            speeches[speech_id] = stored
            return
        speeches.append(stored)
        self._lengths[query.target].add(query.length)

    def clone(self) -> "SpeechStore":
        """An independent copy sharing the (immutable) stored speeches.

        Mutating the clone — the maintenance scheduler runs
        :meth:`IncrementalMaintainer.maintain` against a clone while the
        original keeps serving — never touches this store: the key
        dicts, the id list and the length sets are copied, only the
        frozen :class:`StoredSpeech` payloads are shared.  Ids,
        insertion order and therefore all tie-breaking carry over
        exactly, so a clone answers every query identically to its
        source.
        """
        return SpeechStore(
            _ids={target: dict(ids) for target, ids in self._ids.items()},
            _speeches=list(self._speeches),
            _lengths={target: set(lengths) for target, lengths in self._lengths.items()},
        )

    def __len__(self) -> int:
        return len(self._speeches)

    def __iter__(self) -> Iterator[StoredSpeech]:
        # Ids are assigned sequentially on first insertion and updated in
        # place on replacement, so id order is first-insertion order.
        return iter(self._speeches)

    def targets(self) -> list[str]:
        """Target columns with at least one stored speech."""
        return sorted(self._ids)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def exact_match(self, query: DataQuery) -> StoredSpeech | None:
        """The speech pre-generated for exactly this query, if any."""
        ids = self._ids.get(query.target)
        if ids is None:
            return None
        speech_id = ids.get(query.predicates)
        return None if speech_id is None else self._speeches[speech_id]

    def best_match(self, query: DataQuery) -> MatchResult | None:
        """The most specific stored speech containing the queried subset.

        The query's own key first, then :func:`longest_subset_match`
        probing the key dict.

        Returns None when no stored speech references the queried
        target column, or when no stored subset contains the query.
        """
        ids = self._ids.get(query.target)
        if ids is None:
            return None
        predicates = query.predicates
        speech_id = ids.get(predicates)
        if speech_id is not None:
            return MatchResult(
                stored=self._speeches[speech_id], exact=True, overlap=len(predicates)
            )
        found = longest_subset_match(predicates, self._lengths[query.target], ids.get)
        if found is None:
            return None
        speech_id, length = found
        return MatchResult(
            stored=self._speeches[speech_id], exact=False, overlap=length
        )

    # ------------------------------------------------------------------
    # Reference path
    # ------------------------------------------------------------------
    def linear_best_match(self, query: DataQuery) -> MatchResult | None:
        """Index-free reference lookup: scan every speech for the target.

        Semantically identical to :meth:`best_match` (same result, same
        tie-breaking); kept as the oracle for property tests and as the
        baseline of ``benchmarks/bench_serving.py``.
        """
        exact = self.exact_match(query)
        if exact is not None:
            return MatchResult(stored=exact, exact=True, overlap=query.length)

        ids = self._ids.get(query.target)
        if ids is None:
            return None
        best: StoredSpeech | None = None
        best_overlap = -1
        for speech_id in ids.values():
            stored = self._speeches[speech_id]
            if not query.is_refinement_of(stored.query):
                continue
            overlap = stored.query.length
            if overlap > best_overlap:
                best = stored
                best_overlap = overlap
        if best is None:
            return None
        return MatchResult(stored=best, exact=False, overlap=best_overlap)
