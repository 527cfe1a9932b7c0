"""Immutable speech-store snapshots with atomic swap.

A serving deployment must answer every request from a *consistent*
store: a request that starts while maintenance is rewriting speeches
must never observe a half-applied update.  The speech store itself is
mutable (that is what makes incremental maintenance cheap), so the
serving layer never mutates the store it reads.  Instead:

* a :class:`StoreSnapshot` is a versioned, read-only handle over one
  :class:`repro.system.speech_store.SpeechStore` — by convention nobody
  writes to a store once it is published in a snapshot;
* the :class:`SnapshotRegistry` holds the current snapshot and swaps in
  a new one atomically (a single reference assignment under the GIL,
  guarded by a lock for version monotonicity), so every reader sees
  either the old complete store or the new complete store, never a mix;
* maintenance builds the next store from
  :meth:`StoreSnapshot.begin_build` — a clone sharing the immutable
  speech payloads — mutates the clone off to the side, and publishes it
  via :meth:`SnapshotRegistry.swap`;
* the registry compacts the current store into a
  :class:`repro.store.CompactSpeechStore` once per version, when a
  snapshot publish asks for it (:meth:`SnapshotRegistry.publish_current`).
  Each compaction starts from the previous one and re-encodes only the
  speeches maintenance replaced or added, so it costs about what the
  append changed.

Requests pin the snapshot once at admission (``registry.current``) and
answer entirely from it; in-flight requests keep their pinned snapshot
across a swap, which is exactly the consistency the property tests
assert (every response equals the before- or the after-store answer).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.store import CompactSpeechStore, Compaction
from repro.system.queries import DataQuery
from repro.system.speech_store import MatchResult, SpeechStore, StoredSpeech


@dataclass(frozen=True)
class StoreSnapshot:
    """A versioned read-only view of one speech store.

    Attributes
    ----------
    store:
        The underlying store.  Published snapshots are immutable by
        contract: all writes go to a :meth:`begin_build` clone.
    version:
        Monotonically increasing swap generation (the registry's
        starting version — 0, or the recovered version after a
        restart — marks the store it began with).
    created_at:
        ``time.time()`` when the snapshot was published.
    """

    store: SpeechStore
    version: int
    created_at: float = field(default_factory=time.time)

    def __len__(self) -> int:
        return len(self.store)

    # Read-only lookup delegates ---------------------------------------
    def best_match(self, query: DataQuery) -> MatchResult | None:
        """The most specific stored speech containing the queried subset."""
        return self.store.best_match(query)

    def exact_match(self, query: DataQuery) -> StoredSpeech | None:
        """The speech pre-generated for exactly this query, if any."""
        return self.store.exact_match(query)

    def begin_build(self) -> SpeechStore:
        """A mutable clone of this snapshot's store for maintenance.

        The clone shares the frozen speech payloads but owns its index
        structures, so maintaining it never disturbs readers of this
        snapshot (see :meth:`repro.system.speech_store.SpeechStore.clone`).
        """
        return self.store.clone()


class SnapshotRegistry:
    """Holds the current store snapshot and swaps new ones in atomically.

    Readers call :attr:`current` once per request and keep the returned
    snapshot for the request's whole lifetime; writers build a new store
    off to the side and publish it with :meth:`swap`.  Reading is
    lock-free (attribute load of an immutable object); swapping takes a
    lock only to keep versions monotonic when several writers race
    (the maintenance scheduler serializes jobs, so in practice the lock
    is uncontended).
    """

    def __init__(self, store: SpeechStore, version: int = 0, publisher=None):
        self._lock = threading.Lock()
        self._current = StoreSnapshot(store=store, version=version)
        #: Optional :class:`repro.store.SnapshotPublisher`.  When set,
        #: :meth:`publish_current` freezes the current store into the
        #: publisher's directory as ``store-v{version}.snap`` — the file
        #: a checkpoint names and recovery attaches.
        self.publisher = publisher
        self._compact_lock = threading.Lock()
        self._compaction = Compaction.empty()
        self._compacted_version: int | None = None

    @property
    def current(self) -> StoreSnapshot:
        """The latest published snapshot (lock-free)."""
        return self._current

    @property
    def version(self) -> int:
        """Version of the latest published snapshot."""
        return self._current.version

    def _compact(self, snapshot: StoreSnapshot) -> CompactSpeechStore:
        """``snapshot``'s store as a compact store.

        Computed at most once per version, from the last compaction
        (:meth:`repro.store.Compaction.advance`), so a version costs the
        speeches that changed since the last one compacted rather than
        the whole store.  A store that is already compact (an attached
        snapshot) is returned as it is.
        """
        with self._compact_lock:
            if isinstance(snapshot.store, CompactSpeechStore):
                return snapshot.store
            if self._compacted_version != snapshot.version:
                self._compaction = self._compaction.advance(snapshot.store)
                self._compacted_version = snapshot.version
            return self._compaction.store

    def publish_current(self):
        """Freeze the current snapshot through the publisher, if any.

        Runs off the event loop (the maintenance scheduler calls it on
        its executor after each swap).  The freeze writes the version's
        one compaction, so it costs the changed speeches plus the file
        write.  Returns the snapshot file path, or None when there
        is no publisher or the freeze failed (recorded on
        ``publisher.last_error`` — a failed publish never takes serving
        down; the previous frozen version keeps covering respawns).
        """
        if self.publisher is None:
            return None
        snapshot = self._current
        return self.publisher.publish(self._compact(snapshot), snapshot.version)

    def swap(self, store: SpeechStore) -> StoreSnapshot:
        """Publish ``store`` as the new current snapshot.

        Returns the new snapshot.  In-flight readers holding the
        previous snapshot are unaffected; new readers see the new store
        immediately and completely.
        """
        with self._lock:
            snapshot = StoreSnapshot(store=store, version=self._current.version + 1)
            self._current = snapshot
            return snapshot
