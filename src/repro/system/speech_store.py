"""Speech store: pre-generated speeches indexed by query.

At run time the system "maps voice queries to the most related speech
summary, generated during pre-processing" (Section III).  Exact matches
are preferred; otherwise, among all speeches for the queried target
column, the store returns the speech whose data subset is the most
specific one containing the queried subset: predicates S with S ⊆ Q and
|S ∩ Q| maximal.

Run-time lookups must stay fast no matter how many speeches were
pre-generated (the paper's flights deployment stores 8,500), so the
store maintains an inverted index mapping ``(target, column, value)``
to the ids of speeches restricting that predicate, plus per-target
buckets of speech ids keyed by stored-query length.  ``best_match``
then works only from the query's own predicates instead of scanning
every stored speech: short queries (the common case — the paper bounds
query length at two) probe each predicate subset as an exact key
(store-size independent), and longer queries count hits over the
posting lists of their predicates — a stored speech with L predicates
qualifies exactly when it appears in L of them.

Matching is deterministic: among qualifying speeches the longest
stored query wins, and ties break by insertion order (the speech whose
query was *first* added wins; replacing a speech keeps its original
position).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from repro.core.model import Speech
from repro.system.queries import DataQuery


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
    """In-memory inverted index of pre-generated speeches.

    Speech ids are assigned on first insertion of a query key and are
    stable across replacements, so posting lists never need rewriting
    and insertion-order tie-breaking survives updates.
    """

    #: key -> stable speech id (first-insertion order).
    _id_of_key: dict[tuple, int] = field(default_factory=dict)
    #: speech id -> current speech for that id's query key.  The only
    #: structure holding speeches: buckets and postings store ids, so a
    #: replacement is a single write here.
    _by_id: dict[int, StoredSpeech] = field(default_factory=dict)
    #: target -> speech ids (insertion order).
    _by_target: dict[str, list[int]] = field(default_factory=dict)
    #: (target, column, value) -> ids of speeches restricting that predicate.
    _postings: dict[tuple, list[int]] = field(default_factory=dict)
    #: (target, stored-query length) -> speech ids of that length.
    _by_target_length: dict[tuple, list[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add(self, stored: StoredSpeech) -> None:
        """Add (or replace) the speech for its query.

        Replacement is O(1): the new speech takes the old one's id, so
        the buckets, postings and tie-break order are untouched (the
        key's predicates are, by construction, the same).
        """
        key = stored.query.key()
        speech_id = self._id_of_key.get(key)
        if speech_id is not None:
            self._by_id[speech_id] = stored
            return

        speech_id = len(self._by_id)
        target = stored.query.target
        self._id_of_key[key] = speech_id
        self._by_id[speech_id] = stored
        self._by_target.setdefault(target, []).append(speech_id)
        self._by_target_length.setdefault((target, stored.query.length), []).append(
            speech_id
        )
        for column, value in stored.query.predicates:
            self._postings.setdefault((target, column, value), []).append(speech_id)

    def clone(self) -> "SpeechStore":
        """An independent copy sharing the (immutable) stored speeches.

        Mutating the clone — the maintenance scheduler runs
        :meth:`IncrementalMaintainer.maintain` against a clone while the
        original keeps serving — never touches this store: the index
        dicts and id lists are copied, only the frozen
        :class:`StoredSpeech` payloads are shared.  Ids, insertion order
        and therefore all tie-breaking carry over exactly, so a clone
        answers every query identically to its source.
        """
        return SpeechStore(
            _id_of_key=dict(self._id_of_key),
            _by_id=dict(self._by_id),
            _by_target={target: list(ids) for target, ids in self._by_target.items()},
            _postings={key: list(ids) for key, ids in self._postings.items()},
            _by_target_length={
                key: list(ids) for key, ids in self._by_target_length.items()
            },
        )

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[StoredSpeech]:
        # Ids are assigned sequentially on first insertion and updated in
        # place on replacement, so id-map order is first-insertion order.
        return iter(self._by_id.values())

    def targets(self) -> list[str]:
        """Target columns with at least one stored speech."""
        return sorted(self._by_target)

    def speeches_for_target(self, target: str) -> list[StoredSpeech]:
        """All stored speeches for one target column (insertion order)."""
        return [self._by_id[i] for i in self._by_target.get(target, ())]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def exact_match(self, query: DataQuery) -> StoredSpeech | None:
        """The speech pre-generated for exactly this query, if any."""
        speech_id = self._id_of_key.get(query.key())
        return None if speech_id is None else self._by_id[speech_id]

    #: Queries with at most this many predicates match via subset
    #: enumeration (≤ 2^N exact-key probes, store-size independent);
    #: longer queries fall back to the posting-list intersection.
    _SUBSET_ENUMERATION_MAX_LENGTH = 6

    def best_match(self, query: DataQuery) -> MatchResult | None:
        """The most specific stored speech containing the queried subset.

        Returns None when no stored speech references the queried
        target column, or when no stored subset contains the query.
        Among equally specific matches the speech whose query was first
        added wins (deterministic insertion-order tie-break).
        """
        exact = self.exact_match(query)
        if exact is not None:
            return MatchResult(stored=exact, exact=True, overlap=query.length)
        if query.length <= self._SUBSET_ENUMERATION_MAX_LENGTH:
            return self._subset_enumeration_match(query)
        return self._postings_match(query)

    def _subset_enumeration_match(self, query: DataQuery) -> MatchResult | None:
        """Probe every predicate subset of the query as an exact key.

        Voice queries carry few predicates (the paper bounds query
        length at two), so the ≤ 2^|Q| dict probes cost the same no
        matter how many speeches are stored.  Lengths are probed
        longest-first; within a length the smallest speech id (earliest
        first insertion) wins.
        """
        target = query.target
        for length in range(query.length - 1, -1, -1):
            if (target, length) not in self._by_target_length:
                continue
            best_id = -1
            for subset in combinations(query.predicates, length):
                speech_id = self._id_of_key.get((target, subset))
                if speech_id is not None and (best_id < 0 or speech_id < best_id):
                    best_id = speech_id
            if best_id >= 0:
                return MatchResult(
                    stored=self._by_id[best_id], exact=False, overlap=length
                )
        return None

    def _postings_match(self, query: DataQuery) -> MatchResult | None:
        """Intersect the posting lists of the query's own predicates.

        A stored query S (with S.length predicates) satisfies S ⊆ Q
        exactly when it appears in the posting list of S.length of Q's
        predicates; counting hits over only those lists avoids scanning
        speeches that share no predicate with the query.
        """
        target = query.target
        hits: dict[int, int] = {}
        for column, value in query.predicates:
            for speech_id in self._postings.get((target, column, value), ()):
                hits[speech_id] = hits.get(speech_id, 0) + 1

        best_id = -1
        best_length = -1
        for speech_id, count in hits.items():
            length = self._by_id[speech_id].query.length
            if count != length:
                continue
            if length > best_length or (length == best_length and speech_id < best_id):
                best_id = speech_id
                best_length = length

        if best_id < 0:
            # The zero-predicate ("overall") speech contains every query
            # on its target but appears in no posting list.
            overall = self._by_target_length.get((target, 0))
            if not overall:
                return None
            best_id = overall[0]
            best_length = 0
        return MatchResult(stored=self._by_id[best_id], exact=False, overlap=best_length)

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

        candidates = self._by_target.get(query.target)
        if not candidates:
            return None
        best: StoredSpeech | None = None
        best_overlap = -1
        for speech_id in candidates:
            stored = self._by_id[speech_id]
            if not query.is_refinement_of(stored.query):
                continue
            overlap = stored.query.length
            if overlap > best_overlap:
                best = stored
                best_overlap = overlap
        if best is None:
            return None
        return MatchResult(stored=best, exact=False, overlap=best_overlap)
