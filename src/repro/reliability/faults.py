"""Deterministic failpoint injection: named fault sites for chaos tests.

A *failpoint* is a named site in the serving stack where a fault can be
injected on demand: a worker process crash, a stalled context
broadcast, a maintenance pass that raises, an offloaded advanced answer
that is slow or fails, an HTTP connection dropped mid-response.  Production
code calls :func:`trigger` (or the :func:`fires` / :func:`inject`
helpers) at each site; with no configuration installed the call is a
dict probe that returns None, so the sites cost nothing in normal
operation.

Activation is **seed-deterministic**: a rule decides per *hit* (the
k-th time its site is reached) using only its counters and a
``random.Random`` seeded from ``(seed, site)``, so the same
configuration against the same workload injects the same faults —
chaos runs are replayable, and CI can assert exact recovery behavior.

Rules are written as compact specs, the same format the CLI's
``--failpoint`` flag and :class:`repro.api.config.ServingConfig` accept::

    worker.crash                      # fire once, on the first hit
    maintain.raise:times=2            # fire on the first two hits
    serve.offload_slow:sleep=0.2,times=0   # sleep 200 ms on every hit
    http.drop:after=5,every=3,times=4 # skip 5 hits, then every 3rd, 4x
    worker.crash:p=0.5,seed=7         # each hit fires with prob. 0.5

Keys: ``times`` (max fires; 0 = unlimited; default 1), ``after`` (skip
the first N hits), ``every`` (of the eligible hits, fire each N-th),
``sleep`` (seconds, for sleeping sites), ``p`` (per-hit probability,
resolved with the deterministic RNG), ``mode`` (``raise``, ``sleep`` or
``kill`` — how :func:`inject` applies the rule; sites with
caller-handled actions such as the worker crash ignore it).

The well-known sites
--------------------
``worker.crash``
    Evaluated by the :class:`repro.system.worker_pool.WorkerPool`
    parent at chunk dispatch; a firing hit makes the receiving worker
    process ``os._exit`` instead of computing — a hard crash
    mid-stream.  (Parent-side evaluation keeps the rule's counters in
    one process, so "crash exactly twice" means exactly twice even
    across respawns.)
``worker.broadcast_stall``
    Evaluated per worker at context broadcast; the worker sleeps
    ``sleep`` seconds before installing the context, delaying every
    chunk queued behind it.
``maintain.raise``
    Raised inside the maintenance scheduler's job body — the job fails
    after appending rows, exercising rollback, retry and the breaker.
``serve.offload_slow`` / ``serve.offload_raise``
    Applied inside the service's offload executor, which answers only
    advanced (comparison/extremum) requests: the offloaded request
    sleeps past its deadline, or fails outright.
``http.drop``
    Evaluated by the HTTP server after handling a request; a firing
    hit closes the connection without writing the response.
``journal.write`` / ``journal.sync``
    The write-ahead journal's durability boundary: ``journal.write``
    fires *before* a record is written (a raising rule is a clean
    journal failure — nothing persisted, the append never acked) and
    ``journal.sync`` fires *after* the record is flushed but before the
    caller is acked (a killing rule is the torn-ack crash: the record
    is durable, the client never heard back, and recovery must replay
    it).
``swap.commit``
    Fires in the maintenance scheduler immediately before the snapshot
    swap publishes a finished build — the pre-swap crash site.
``checkpoint.save``
    Fires inside :class:`repro.storage.checkpoint.CheckpointManager`
    after the temporary checkpoint manifest is durable but before the
    atomic rename — a killing rule leaves a temp file that recovery
    must ignore.
``recover.replay``
    Fires once per journal record replayed during startup recovery.

:data:`SITES` holds exactly these names.  A registry accepts any site
(isolated tests use their own), but
:class:`repro.api.config.ServingConfig` rejects a spec whose site is
not in :data:`SITES`: it could never fire.

Besides ``raise`` and ``sleep`` rules support ``mode=kill``: the
process dies with SIGKILL at the site — no cleanup, no atexit, exactly
the crash the durability layer must survive.  Kill rules are meant for
subprocess crash tests (the parent observes exit status -9).
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

#: Canonical site names: the sites wired into the serving stack.
WORKER_CRASH = "worker.crash"
WORKER_BROADCAST_STALL = "worker.broadcast_stall"
MAINTAIN_RAISE = "maintain.raise"
OFFLOAD_SLOW = "serve.offload_slow"
OFFLOAD_RAISE = "serve.offload_raise"
HTTP_DROP = "http.drop"
JOURNAL_WRITE = "journal.write"
JOURNAL_SYNC = "journal.sync"
SWAP_COMMIT = "swap.commit"
CHECKPOINT_SAVE = "checkpoint.save"
RECOVER_REPLAY = "recover.replay"

#: Every wired site, for validating configured specs.
SITES = frozenset({
    WORKER_CRASH,
    WORKER_BROADCAST_STALL,
    MAINTAIN_RAISE,
    OFFLOAD_SLOW,
    OFFLOAD_RAISE,
    HTTP_DROP,
    JOURNAL_WRITE,
    JOURNAL_SYNC,
    SWAP_COMMIT,
    CHECKPOINT_SAVE,
    RECOVER_REPLAY,
})

#: Default sleep for sleeping sites when the spec gives no ``sleep=``.
DEFAULT_SLEEP_SECONDS = 0.1


class InjectedFault(RuntimeError):
    """An error raised by a firing failpoint (never by real code)."""

    def __init__(self, site: str, fire_index: int):
        super().__init__(f"injected fault at failpoint {site!r} (fire #{fire_index})")
        self.site = site
        self.fire_index = fire_index


@dataclass
class FailpointRule:
    """One site's activation rule plus its runtime counters."""

    site: str
    mode: str = "raise"
    times: int = 1  # max fires; 0 = unlimited
    after: int = 0  # hits skipped before the rule becomes eligible
    every: int = 1  # of the eligible hits, fire each N-th
    sleep: float = DEFAULT_SLEEP_SECONDS
    probability: float = 1.0
    seed: int = 0
    hits: int = 0
    fired: int = 0
    _rng: random.Random = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.mode not in ("raise", "sleep", "kill"):
            raise ValueError(f"failpoint {self.site!r}: unknown mode {self.mode!r}")
        if self.times < 0 or self.after < 0 or self.every < 1:
            raise ValueError(
                f"failpoint {self.site!r}: times/after must be >= 0, every >= 1"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(
                f"failpoint {self.site!r}: probability must be in [0, 1]"
            )
        if self._rng is None:
            # Seeded from (seed, site) so two sites sharing a seed still
            # draw independent, reproducible sequences.
            self._rng = random.Random(f"{self.seed}:{self.site}")

    def decide(self) -> bool:
        """Record one hit; True when the fault fires on this hit."""
        self.hits += 1
        if self.times and self.fired >= self.times:
            return False
        eligible = self.hits - self.after
        if eligible < 1 or (eligible - 1) % self.every != 0:
            return False
        if self.probability < 1.0 and self._rng.random() >= self.probability:
            return False
        self.fired += 1
        return True

    def apply(self) -> None:
        """Raise, sleep or kill according to ``mode`` (for :func:`inject`)."""
        if self.mode == "sleep":
            time.sleep(self.sleep)
        elif self.mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        else:
            raise InjectedFault(self.site, self.fired)


def parse_rule(spec: str, seed: int = 0) -> FailpointRule:
    """Parse one ``site[:key=value,...]`` spec into a rule."""
    site, _, options = spec.strip().partition(":")
    site = site.strip()
    if not site:
        raise ValueError(f"failpoint spec {spec!r} has no site name")
    kwargs: dict = {"seed": seed}
    for option in filter(None, (part.strip() for part in options.split(","))):
        key, separator, value = option.partition("=")
        if not separator:
            raise ValueError(f"failpoint spec {spec!r}: option {option!r} is not key=value")
        key = key.strip()
        value = value.strip()
        try:
            if key in ("times", "after", "every", "seed"):
                kwargs[key] = int(value)
            elif key in ("sleep", "p", "probability"):
                kwargs["probability" if key == "p" else key] = float(value)
            elif key == "mode":
                kwargs[key] = value
            else:
                raise ValueError(f"unknown option {key!r}")
        except ValueError as exc:
            raise ValueError(f"failpoint spec {spec!r}: {exc}") from exc
    return FailpointRule(site=site, **kwargs)


class FailpointRegistry:
    """Thread-safe registry of active failpoint rules (one per site).

    A process normally uses the module-level :data:`FAILPOINTS`
    instance; separate registries exist only for isolated tests.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rules: dict[str, FailpointRule] = {}
        self._specs: tuple[str, ...] = ()
        self._seed = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(self, specs: Iterable[str], seed: int = 0) -> None:
        """Replace the active rules with the parsed ``specs``."""
        specs = tuple(specs)
        rules = {}
        for spec in specs:
            rule = parse_rule(spec, seed=seed)
            if rule.site in rules:
                raise ValueError(f"duplicate failpoint for site {rule.site!r}")
            rules[rule.site] = rule
        with self._lock:
            self._rules = rules
            self._specs = specs
            self._seed = seed

    def ensure(self, specs: Sequence[str], seed: int = 0) -> None:
        """Configure unless the same (specs, seed) are already active.

        Lets the CLI install failpoints before pre-processing and the
        service re-assert the same configuration at start without
        resetting mid-run counters.
        """
        with self._lock:
            if self._specs == tuple(specs) and self._seed == seed:
                return
        self.configure(specs, seed=seed)

    def clear(self) -> None:
        """Deactivate every failpoint."""
        self.configure(())

    @contextmanager
    def active(self, specs: Iterable[str], seed: int = 0) -> Iterator["FailpointRegistry"]:
        """Context manager installing ``specs`` and clearing on exit."""
        self.configure(specs, seed=seed)
        try:
            yield self
        finally:
            self.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def specs(self) -> tuple[str, ...]:
        """The spec strings behind the active rules."""
        return self._specs

    def report(self) -> dict[str, dict[str, int]]:
        """Hit/fire counters per active site (for tests and metrics)."""
        with self._lock:
            return {
                site: {"hits": rule.hits, "fired": rule.fired}
                for site, rule in sorted(self._rules.items())
            }

    # ------------------------------------------------------------------
    # Site API
    # ------------------------------------------------------------------
    def trigger(self, site: str) -> FailpointRule | None:
        """Record a hit at ``site``; the rule when the fault fires, else None."""
        if not self._rules:
            return None
        with self._lock:
            rule = self._rules.get(site)
            if rule is None or not rule.decide():
                return None
            return rule

    def fires(self, site: str) -> bool:
        """True when a hit at ``site`` fires (for caller-handled actions)."""
        return self.trigger(site) is not None

    def inject(self, site: str) -> bool:
        """Trigger and apply: raise (mode ``raise``) or sleep (``sleep``).

        Returns True when a sleeping fault fired, False when nothing
        fired; raises :class:`InjectedFault` for a firing raise rule.
        """
        rule = self.trigger(site)
        if rule is None:
            return False
        rule.apply()
        return True


#: The process-wide registry every wired-in site consults.
FAILPOINTS = FailpointRegistry()
