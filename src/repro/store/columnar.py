"""Columnar, zero-copy speech store.

:class:`repro.system.speech_store.SpeechStore` is built for cheap
incremental mutation: Python dicts of keys and a list of boxed speech
objects.  A serving deployment holding 10⁵–10⁶ speeches pays for that
in resident memory (one object graph per speech), and a restart pays
again to rebuild it.

:class:`CompactSpeechStore` is the read-optimized counterpart: the same
speeches, the same lookup semantics, laid out as a handful of flat
numpy arrays over interned string pools so the whole store is a few
contiguous buffers.  The layout is what `format.py` writes to disk —
an attached snapshot wraps mmap-backed views of the *identical* arrays,
so attaching costs no per-speech work and the pages stay in the page
cache.

Layout
------
* **Pools** — targets, columns, algorithms and predicate/scope values
  are interned once; values are stored as canonical JSON so they decode
  back to the exact Python object (``int`` stays ``int``).
* **Speech columns** — per speech id: target id, algorithm id,
  utility/scaled-utility float64 columns, and the speech text as a
  slice of one UTF-8 blob (offset array + arena).
* **CSR structures** — stored-query predicates, facts and fact scopes
  are (offsets, column-id, value-id) compressed sparse rows; the
  speech ids of each (target, stored length) bucket are one more.
  There is no inverted index.
* **Probe tables** — exact-key lookups binary-search a sorted 64-bit
  key-digest array; every digest hit is verified against the stored
  predicates before it is trusted, so a (vanishingly unlikely) digest
  collision can never produce a wrong match.

Compaction
----------
:class:`Compaction` builds the layout from a mutable store, one version
after another: it re-encodes only the speeches whose objects changed
since the previous version and rebuilds the rest with NumPy from the
previous version's sections.  ``from_store`` is the same path started
from the empty store, so every version's sections equal those of a
one-pass compaction from scratch (``tests/store/compact_oracle.py``).

Matching parity
---------------
``exact_match`` / ``best_match`` reproduce ``SpeechStore`` bit for bit:
exact key first, then the longest stored query wins and the smallest
speech id within a length.  Both stores run that rule as the one
function :func:`repro.system.speech_store.longest_subset_match`, which
probes the query's predicate subsets as exact keys; here a probe is a
digest binary search.  Speech ids equal first-insertion order, so
insertion-order tie-breaking carries over exactly.  The property tests
drive both stores plus the ``linear_best_match`` oracle over random
workloads and require byte-identical results.
"""

from __future__ import annotations

import json
import operator
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from hashlib import blake2b
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.model import Fact, Scope, Speech
from repro.system.queries import DataQuery
from repro.system.speech_store import (
    MatchResult,
    SpeechStore,
    StoredSpeech,
    longest_subset_match,
)

#: Decoded :class:`StoredSpeech` objects kept hot per store instance.
#: Lookups concentrate on few speeches; an unbounded cache would slowly
#: rebuild the boxed store the compact layout exists to avoid.
_DECODE_CACHE_SIZE = 1024


# ----------------------------------------------------------------------
# Canonical value encoding
# ----------------------------------------------------------------------
#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` with one
#: shared encoder: the same text, without a ``JSONEncoder`` per value.
_value_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: Value types whose ``==`` and hash match their JSON text and canonical
#: token within the type; a value of any other type (a float, where
#: ``0.0 == -0.0``, or a container) is told apart by its ``repr``.
_EQUAL_BY_VALUE = frozenset((str, int, bool, type(None)))


def _canonical_token(value: Any) -> str:
    """A string whose equality mirrors Python ``==`` on predicate values.

    ``SpeechStore`` keys dicts with raw values, where ``1``, ``1.0`` and
    ``True`` collide (equal hash, equal value).  Digests must respect
    the same equality classes, so numeric values normalise to one
    canonical form before hashing; strings and ``None`` are tagged to
    keep ``"1"`` distinct from ``1``.
    """
    if isinstance(value, (bool, int, float)):
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        return "i:%d" % value if isinstance(value, int) else "f:" + repr(value)
    if isinstance(value, str):
        return "s:" + value
    if value is None:
        return "z"
    return "j:" + _value_json(value)


def _key_digest(target: str, pairs: Sequence[tuple[str, str]]) -> int:
    """64-bit digest of an exact-match key ``(target, predicates)``.

    ``pairs`` are ``(column, canonical token)`` in the query's own
    (sorted-by-column) predicate order.
    """
    h = blake2b(digest_size=8)
    h.update(target.encode("utf-8"))
    h.update(b"\x1f")
    for column, token in pairs:
        h.update(column.encode("utf-8"))
        h.update(b"\x1e")
        h.update(token.encode("utf-8"))
        h.update(b"\x1d")
    return int.from_bytes(h.digest(), "little")


def _key_pairs(query: DataQuery) -> tuple[tuple[str, str], ...]:
    """The ``(column, canonical token)`` pairs a query's key digests."""
    return tuple(
        (column, _canonical_token(value)) for column, value in query.predicates
    )


# ----------------------------------------------------------------------
# Build-side interning helpers
# ----------------------------------------------------------------------
class _Pool:
    """An append-only intern pool of strings (optionally pre-seeded)."""

    def __init__(self, items: list[str] | None = None) -> None:
        self.items: list[str] = list(items or ())
        self._index: dict[str, int] = {item: i for i, item in enumerate(self.items)}

    def intern(self, item: str) -> int:
        idx = self._index.get(item)
        if idx is None:
            idx = len(self.items)
            self._index[item] = idx
            self.items.append(item)
        return idx

    def blob(self) -> tuple[bytes, np.ndarray]:
        encoded = [item.encode("utf-8") for item in self.items]
        return b"".join(encoded), _offsets(np.fromiter(map(len, encoded), np.int64))


def _decode_pool(sections: dict[str, Any], name: str) -> list[str]:
    blob = memoryview(sections[f"{name}_blob"])
    offsets = sections[f"{name}_off"]
    return [
        bytes(blob[int(offsets[i]) : int(offsets[i + 1])]).decode("utf-8")
        for i in range(len(offsets) - 1)
    ]


_POOLS = ("targets", "columns", "algorithms", "values")

#: dtype of every array section; the ``*_blob`` sections are bytes.
_DTYPES: dict[str, Any] = {
    **{f"{pool}_off": np.int64 for pool in _POOLS},
    "target_id": np.int32,
    "algorithm_id": np.int32,
    "utility": np.float64,
    "scaled_utility": np.float64,
    "text_off": np.int64,
    "q_off": np.int64,
    "q_col": np.int32,
    "q_val": np.int32,
    "f_off": np.int64,
    "fact_value": np.float64,
    "fact_support": np.int64,
    "s_off": np.int64,
    "s_col": np.int32,
    "s_val": np.int32,
    "key_digest": np.uint64,
    "key_sorted_id": np.int32,
    "bucket_target": np.int32,
    "bucket_length": np.int32,
    "bucket_off": np.int64,
    "bucket_ids": np.int32,
}

_BLOBS = tuple(f"{name}_blob" for name in (*_POOLS, "text"))

#: Every section of the layout: the schema a snapshot file must carry.
SECTION_NAMES = frozenset((*_DTYPES, *_BLOBS))


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR offsets (a leading 0, then the running total) of ``lengths``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def _encode(speeches: list[StoredSpeech], pools: dict[str, _Pool]) -> dict[str, Any]:
    """The per-speech sections of ``speeches`` alone.

    Strings are interned into ``pools``; offsets start at 0, and
    ``key_digest`` is per speech, not yet sorted.  Each distinct value
    is encoded once: ``resolved`` maps it to its ``values`` id and its
    canonical token.
    """
    targets, columns, algorithms, values = (pools[name] for name in _POOLS)
    resolved: dict[tuple[type, Any], tuple[int, str]] = {}

    def resolve(value: Any) -> tuple[int, str]:
        cls = type(value)
        key = (cls, value if cls in _EQUAL_BY_VALUE else repr(value))
        found = resolved.get(key)
        if found is None:
            found = (values.intern(_value_json(value)), _canonical_token(value))
            resolved[key] = found
        return found

    raw: dict[str, list] = {
        name: []
        for name in (
            "target_id",
            "algorithm_id",
            "utility",
            "scaled_utility",
            "q_col",
            "q_val",
            "fact_value",
            "fact_support",
            "s_col",
            "s_val",
            "key_digest",
        )
    }
    for name in ("text_off", "q_off", "f_off", "s_off"):
        raw[name] = [0]
    text_chunks: list[bytes] = []
    for stored in speeches:
        target = stored.query.target
        raw["target_id"].append(targets.intern(target))
        raw["algorithm_id"].append(algorithms.intern(stored.algorithm))
        raw["utility"].append(float(stored.utility))
        raw["scaled_utility"].append(float(stored.scaled_utility))
        encoded = stored.text.encode("utf-8")
        text_chunks.append(encoded)
        raw["text_off"].append(raw["text_off"][-1] + len(encoded))

        pairs: list[tuple[str, str]] = []
        for column, value in stored.query.predicates:
            value_id, token = resolve(value)
            raw["q_col"].append(columns.intern(column))
            raw["q_val"].append(value_id)
            pairs.append((column, token))
        raw["q_off"].append(len(raw["q_col"]))
        raw["key_digest"].append(_key_digest(target, pairs))

        for fact in stored.speech:
            raw["fact_value"].append(float(fact.value))
            raw["fact_support"].append(int(fact.support))
            for column, value in fact.scope:
                raw["s_col"].append(columns.intern(column))
                raw["s_val"].append(resolve(value)[0])
            raw["s_off"].append(len(raw["s_col"]))
        raw["f_off"].append(len(raw["fact_value"]))
    sections: dict[str, Any] = {
        name: np.asarray(items, dtype=_DTYPES[name]) for name, items in raw.items()
    }
    sections["text_blob"] = b"".join(text_chunks)
    return sections


def _runs(rows: np.ndarray, local: int) -> tuple[np.ndarray, np.ndarray]:
    """(first row, row count) of each maximal run of consecutive ``rows``.

    Runs also break at row ``local``, where the local rows start, so
    each run lies in the previous rows or in the local ones.
    """
    starts = np.flatnonzero((np.diff(rows, prepend=-2) != 1) | (rows == local))
    return rows[starts], np.diff(np.append(starts, len(rows)))


def _take(
    previous: np.ndarray, local: np.ndarray, runs: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """The concatenated slices ``[first, first + count)`` of ``runs``.

    Indices number ``previous`` first, then ``local``; no run crosses
    from one into the other.
    """
    size = len(previous)
    pieces = [
        previous[a : a + c] if a < size else local[a - size : a - size + c]
        for a, c in zip(runs[0].tolist(), runs[1].tolist())
    ]
    return np.concatenate(pieces) if pieces else previous[:0]


def _splice_csr(
    runs: tuple[np.ndarray, np.ndarray], previous: np.ndarray, local: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Offsets of the CSR rows ``runs`` selects, and the runs of their elements.

    Rows and elements number the previous ones first, then the local
    ones.
    """
    offsets = np.concatenate([previous, previous[-1] + local[1:]])
    first, count = runs
    start = offsets[first]
    spliced = _offsets(_take(np.diff(previous), np.diff(local), runs))
    return spliced, (start, offsets[first + count] - start)


def _first_appearance(size: int, *streams: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Pool ids in order of first appearance; unreferenced ids are dropped.

    Each stream is (pool ids, their positions in one interleaved
    sequence).
    """
    never = np.iinfo(np.int64).max
    first = np.full(size, never, dtype=np.int64)
    for ids, positions in streams:
        np.minimum.at(first, ids, positions)
    used = np.flatnonzero(first != never)
    return used[np.argsort(first[used])]


def _narrow(keys: np.ndarray) -> np.ndarray:
    """Non-negative ``keys`` in the smallest unsigned dtype that holds them.

    NumPy's stable sort is a radix sort for 8- and 16-bit keys.
    """
    return keys.astype(np.min_scalar_type(int(keys.max(initial=0))))


def _renumbering(order: np.ndarray, size: int) -> np.ndarray:
    """Maps old pool id ``order[i]`` to ``i``."""
    renumber = np.zeros(size, dtype=np.int32)
    renumber[order] = np.arange(len(order))
    return renumber


class CompactSpeechStore:
    """Read-only columnar speech store (built in memory or mmap-attached).

    Presents the read side of the :class:`SpeechStore` interface —
    ``exact_match`` / ``best_match`` / iteration / ``clone`` — so
    snapshots, the engine and the serving stack use either store
    interchangeably.  ``clone`` thaws back to a mutable
    :class:`SpeechStore` (maintenance builds on the mutable store and
    refreezes on swap).
    """

    def __init__(
        self,
        sections: dict[str, Any],
        meta: dict[str, Any],
        backing: tuple | None = None,
    ) -> None:
        self._sections = sections
        self._meta = meta
        # Keep the (mmap, file) pair alive as long as any array view.
        self._backing = backing
        self._targets = _decode_pool(sections, "targets")
        self._columns = _decode_pool(sections, "columns")
        self._algorithms = _decode_pool(sections, "algorithms")
        self._target_index = {t: i for i, t in enumerate(self._targets)}
        self._value_cache: dict[int, Any] = {}
        self._token_cache: dict[int, str] = {}
        self._decoded: OrderedDict[int, StoredSpeech] = OrderedDict()
        # (target id, stored length) -> bucket row.  O(#buckets), tiny.
        bucket_target = sections["bucket_target"]
        bucket_length = sections["bucket_length"]
        self._buckets = {
            (int(bucket_target[i]), int(bucket_length[i])): i
            for i in range(len(bucket_target))
        }
        # target -> the lengths of its stored queries, as the dict store keeps.
        self._lengths: dict[str, set[int]] = {}
        for tid, length in self._buckets:
            self._lengths.setdefault(self._targets[tid], set()).add(length)

    # ------------------------------------------------------------------
    # Construction from a mutable store
    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls, store: "SpeechStore | CompactSpeechStore"
    ) -> "CompactSpeechStore":
        """Compact a store; speech ids keep first-insertion order.

        The incremental compaction of :class:`Compaction`, starting
        from nothing.
        """
        if isinstance(store, CompactSpeechStore):
            return store
        return Compaction.empty().advance(store).store

    # ------------------------------------------------------------------
    # Sizing / metadata
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sections["target_id"])

    @property
    def meta(self) -> dict[str, Any]:
        """Snapshot metadata (speech count, optional snapshot version)."""
        return dict(self._meta)

    @property
    def snapshot_version(self) -> int | None:
        """Version recorded at freeze time; None for in-memory builds."""
        version = self._meta.get("snapshot_version")
        return None if version is None else int(version)

    @property
    def nbytes(self) -> int:
        """Total bytes across all sections (the store's true footprint)."""
        total = 0
        for payload in self._sections.values():
            total += payload.nbytes if isinstance(payload, np.ndarray) else len(payload)
        return total

    def sections(self) -> dict[str, Any]:
        """The raw named sections (arrays and blobs) for serialisation."""
        return dict(self._sections)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _value(self, value_id: int) -> Any:
        value = self._value_cache.get(value_id)
        if value is None and value_id not in self._value_cache:
            blob = memoryview(self._sections["values_blob"])
            offsets = self._sections["values_off"]
            raw = bytes(blob[int(offsets[value_id]) : int(offsets[value_id + 1])])
            value = json.loads(raw.decode("utf-8"))
            self._value_cache[value_id] = value
        return value

    def _token(self, value_id: int) -> str:
        token = self._token_cache.get(value_id)
        if token is None:
            token = _canonical_token(self._value(value_id))
            self._token_cache[value_id] = token
        return token

    def _decode(self, speech_id: int) -> StoredSpeech:
        s = self._sections
        target = self._targets[int(s["target_id"][speech_id])]
        qa, qb = int(s["q_off"][speech_id]), int(s["q_off"][speech_id + 1])
        predicates = tuple(
            (self._columns[int(s["q_col"][i])], self._value(int(s["q_val"][i])))
            for i in range(qa, qb)
        )
        fa, fb = int(s["f_off"][speech_id]), int(s["f_off"][speech_id + 1])
        facts = []
        for f in range(fa, fb):
            sa, sb = int(s["s_off"][f]), int(s["s_off"][f + 1])
            scope = Scope(
                {
                    self._columns[int(s["s_col"][i])]: self._value(int(s["s_val"][i]))
                    for i in range(sa, sb)
                }
            )
            facts.append(
                Fact(
                    scope=scope,
                    value=float(s["fact_value"][f]),
                    support=int(s["fact_support"][f]),
                )
            )
        ta, tb = int(s["text_off"][speech_id]), int(s["text_off"][speech_id + 1])
        text = bytes(memoryview(s["text_blob"])[ta:tb]).decode("utf-8")
        return StoredSpeech(
            query=DataQuery(target=target, predicates=predicates),
            speech=Speech(facts),
            text=text,
            utility=float(s["utility"][speech_id]),
            scaled_utility=float(s["scaled_utility"][speech_id]),
            algorithm=self._algorithms[int(s["algorithm_id"][speech_id])],
        )

    def stored(self, speech_id: int) -> StoredSpeech:
        """The speech for one id, decoded through a small LRU cache."""
        cached = self._decoded.get(speech_id)
        if cached is not None:
            self._decoded.move_to_end(speech_id)
            return cached
        stored = self._decode(speech_id)
        self._decoded[speech_id] = stored
        if len(self._decoded) > _DECODE_CACHE_SIZE:
            self._decoded.popitem(last=False)
        return stored

    def __iter__(self) -> Iterator[StoredSpeech]:
        # Id order is first-insertion order, matching SpeechStore.
        for speech_id in range(len(self)):
            yield self._decode(speech_id)

    def targets(self) -> list[str]:
        """Target columns with at least one stored speech."""
        return sorted(self._targets)

    def clone(self) -> SpeechStore:
        """Thaw into a mutable :class:`SpeechStore`.

        Re-adding every speech in id order reassigns identical ids, so
        the thawed store answers every query exactly like this one —
        which is what lets maintenance ``begin_build`` on an attached
        snapshot transparently.
        """
        store = SpeechStore()
        for stored in self:
            store.add(stored)
        return store

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _key_equals(
        self, speech_id: int, target: str, pairs: Sequence[tuple[str, str]]
    ) -> bool:
        """Verify a digest hit against the stored predicates."""
        s = self._sections
        if self._targets[int(s["target_id"][speech_id])] != target:
            return False
        qa, qb = int(s["q_off"][speech_id]), int(s["q_off"][speech_id + 1])
        if qb - qa != len(pairs):
            return False
        for k, (column, token) in enumerate(pairs):
            if self._columns[int(s["q_col"][qa + k])] != column:
                return False
            if self._token(int(s["q_val"][qa + k])) != token:
                return False
        return True

    def _find_key(self, target: str, pairs: Sequence[tuple[str, str]]) -> int | None:
        """Speech id stored under exactly this key, or None."""
        digests = self._sections["key_digest"]
        digest = np.uint64(_key_digest(target, pairs))
        lo = int(np.searchsorted(digests, digest, side="left"))
        hi = int(np.searchsorted(digests, digest, side="right"))
        for i in range(lo, hi):
            speech_id = int(self._sections["key_sorted_id"][i])
            if self._key_equals(speech_id, target, pairs):
                return speech_id
        return None

    def exact_match(self, query: DataQuery) -> StoredSpeech | None:
        """The speech pre-generated for exactly this query, if any."""
        if query.target not in self._lengths:
            return None
        speech_id = self._find_key(query.target, _key_pairs(query))
        return None if speech_id is None else self.stored(speech_id)

    def best_match(self, query: DataQuery) -> MatchResult | None:
        """The most specific stored speech containing the queried subset.

        Same contract (and same tie-breaking) as
        :meth:`SpeechStore.best_match`: the query's own key first, then
        :func:`longest_subset_match` probing the key digests.
        """
        lengths = self._lengths.get(query.target)
        if lengths is None:
            return None
        pairs = _key_pairs(query)
        find = partial(self._find_key, query.target)
        speech_id = find(pairs)
        if speech_id is not None:
            return MatchResult(
                stored=self.stored(speech_id), exact=True, overlap=len(pairs)
            )
        found = longest_subset_match(pairs, lengths, find)
        if found is None:
            return None
        speech_id, length = found
        return MatchResult(stored=self.stored(speech_id), exact=False, overlap=length)


@dataclass(frozen=True)
class Compaction:
    """One compacted store version and the speeches it encodes, in id order.

    :meth:`advance` compacts a later version of the store from this
    one.  ``SpeechStore.add`` replaces a speech in place and appends new
    keys, so a speech id keeps its place across versions: a speech is
    re-encoded only when the object at its id is no longer the one
    compacted here (``is``).  Everything else is NumPy over the
    previous sections — splicing the per-speech CSR arrays, ranking the
    pools by first appearance, then rebuilding the buckets and sorted
    key digests — so the cost is the changed speeches' encoding
    plus a few passes over flat arrays.  The result is section for
    section what compacting the store from scratch gives, for any store
    (ids that changed meaning are simply re-encoded).
    """

    store: CompactSpeechStore
    speeches: list[StoredSpeech]

    @classmethod
    def empty(cls) -> "Compaction":
        """The compaction of the empty store (every compaction starts here)."""
        sections: dict[str, Any] = dict.fromkeys(_BLOBS, b"")
        for name, dtype in _DTYPES.items():
            sections[name] = np.zeros(int(name.endswith("_off")), dtype=dtype)
        return cls(CompactSpeechStore(sections, {"speeches": 0}), [])

    def advance(self, store: SpeechStore) -> "Compaction":
        """Compact ``store``, re-encoding only the speeches that changed."""
        speeches = list(store)
        n, m = len(speeches), len(self.speeches)
        common = min(n, m)
        fresh = np.ones(n, dtype=bool)
        fresh[:common] = ~np.fromiter(
            map(operator.is_, speeches, self.speeches), dtype=bool, count=common
        )
        fresh_ids = np.flatnonzero(fresh)

        previous = self.store._sections
        pools = {name: _Pool(_decode_pool(previous, name)) for name in _POOLS}
        local = _encode([speeches[i] for i in fresh_ids.tolist()], pools)

        def take(name: str, runs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
            return _take(previous[name], local[name], runs)

        # Output speech i is previous row i, or fresh speech j's row m + j.
        rows = np.arange(n)
        rows[fresh_ids] = m + np.arange(fresh_ids.size)
        runs = _runs(rows, m)
        out: dict[str, Any] = {
            name: take(name, runs)
            for name in ("target_id", "algorithm_id", "utility", "scaled_utility")
        }
        digest_by_id = np.empty(m, dtype=np.uint64)
        digest_by_id[previous["key_sorted_id"]] = previous["key_digest"]
        digest = _take(digest_by_id, local["key_digest"], runs)
        out["text_off"], text_runs = _splice_csr(
            runs, previous["text_off"], local["text_off"]
        )
        text = [np.frombuffer(s["text_blob"], np.uint8) for s in (previous, local)]
        out["text_blob"] = _take(*text, text_runs).tobytes()
        out["q_off"], q_runs = _splice_csr(runs, previous["q_off"], local["q_off"])
        out["f_off"], f_runs = _splice_csr(runs, previous["f_off"], local["f_off"])
        out["s_off"], s_runs = _splice_csr(f_runs, previous["s_off"], local["s_off"])
        for name in ("fact_value", "fact_support"):
            out[name] = take(name, f_runs)
        q_col, q_val = (take(name, q_runs) for name in ("q_col", "q_val"))
        s_col, s_val = (take(name, s_runs) for name in ("s_col", "s_val"))

        # Rank each pool by first appearance in the order the speeches
        # intern it: per speech, its predicates, then its facts' scopes.
        speech_of_q = np.repeat(np.arange(n), np.diff(out["q_off"]))
        scope_bounds = out["s_off"][out["f_off"]]
        speech_of_s = np.repeat(np.arange(n), np.diff(scope_bounds))
        q_pos = np.arange(len(q_col)) + scope_bounds[speech_of_q]
        s_pos = np.arange(len(s_col)) + out["q_off"][speech_of_s + 1]
        streams = {
            "targets": [(out["target_id"], np.arange(n))],
            "algorithms": [(out["algorithm_id"], np.arange(n))],
            "columns": [(q_col, q_pos), (s_col, s_pos)],
            "values": [(q_val, q_pos), (s_val, s_pos)],
        }
        renumber: dict[str, np.ndarray] = {}
        for name in _POOLS:
            size = len(pools[name].items)
            order = _first_appearance(size, *streams[name])
            items = [pools[name].items[i] for i in order.tolist()]
            renumber[name] = _renumbering(order, size)
            out[f"{name}_blob"], out[f"{name}_off"] = _Pool(items).blob()
        out["target_id"] = renumber["targets"][out["target_id"]]
        out["algorithm_id"] = renumber["algorithms"][out["algorithm_id"]]
        out["q_col"], out["s_col"] = (renumber["columns"][c] for c in (q_col, s_col))
        out["q_val"], out["s_val"] = (renumber["values"][v] for v in (q_val, s_val))

        order = np.argsort(digest, kind="stable")
        out["key_digest"], out["key_sorted_id"] = digest[order], order
        out.update(_buckets(out["target_id"], np.diff(out["q_off"])))
        sections = {
            name: np.asarray(value, dtype=_DTYPES[name]) if name in _DTYPES else value
            for name, value in out.items()
        }
        return Compaction(CompactSpeechStore(sections, {"speeches": n}), speeches)


def _buckets(target_id: np.ndarray, length: np.ndarray) -> dict[str, np.ndarray]:
    """Speech ids grouped by (target id, stored length), keys ascending."""
    width = int(length.max(initial=0)) + 1
    bucket = target_id.astype(np.int64) * width + length
    counts = np.bincount(bucket)
    used = np.flatnonzero(counts)
    bucket_target, bucket_length = np.divmod(used, width)
    return {
        "bucket_target": bucket_target,
        "bucket_length": bucket_length,
        "bucket_off": _offsets(counts[used]),
        "bucket_ids": np.argsort(_narrow(bucket), kind="stable"),
    }
