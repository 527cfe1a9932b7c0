"""`ServingConfig`: every serving knob in one validated dataclass.

Before this existed, the serving parameters were scattered kwargs on
:class:`repro.serving.service.VoiceService`, duplicated as CLI flags
and re-declared as constants in the serving benchmark.  ``ServingConfig``
is now the single source: the service consumes it directly, the CLI
``serve`` command builds one from its flags, and
``benchmarks/bench_serving_service.py`` constructs its workloads from
one.  Maintenance parallelism is not a setting: it is the
:class:`repro.system.worker_pool.WorkerPool` handed to the service
(``pool=``), and without one maintenance runs serially.  Nor is the
maintenance retry and circuit-breaker policy: it is the module
constants of :mod:`repro.serving.scheduler`.

Fields
------
concurrency:
    Requests answered at once (>= 1); each is answered on the task that
    submitted it.
max_queue_depth:
    Requests allowed to wait for a free ``concurrency`` slot before
    ``submit`` rejects with ``ServiceOverloadedError`` (>= 0; 0 = no
    waiting room).
session_capacity:
    Bound on live sessions in the service's
    :class:`repro.api.sessions.SessionStore` (LRU-evicted beyond it).
http_host / http_port:
    Bind address for the optional :class:`repro.api.http_server.VoiceHttpServer`
    front-end.  Port 0 binds an ephemeral port (the server reports the
    real one once started).
default_deadline_ms:
    Latency budget applied to requests that carry no ``deadline_ms`` of
    their own; expired requests get a ``timeout``-kind response.
    ``None`` (default) means no deadline.
failpoints / failpoint_seed:
    Deterministic fault-injection specs (see
    :mod:`repro.reliability.faults`) installed when the service starts.
    Each must parse and name a wired site
    (:data:`repro.reliability.faults.SITES`).  Empty (default) injects
    nothing and the sites cost a dict probe.
data_dir:
    Directory for durable serving state (write-ahead journal +
    checkpoints, see :mod:`repro.storage`).  ``None`` (default) serves
    purely in memory; set, the service recovers from the directory at
    construction, journals every accepted append before acking, and
    checkpoints every snapshot swap with a manifest naming the
    version's published snapshot (see :mod:`repro.storage.checkpoint`).
journal_fsync:
    fsync each journal record (machine-crash durable) instead of only
    flushing it (process-crash durable).  Costs per-append latency.
snapshot_dir:
    Directory for frozen compact-store snapshots (see
    :mod:`repro.store.publish`).  Set, the serving side freezes
    ``store-v{version}.snap`` there — the base store at startup and
    every maintenance swap after.  ``None`` (default): the service
    publishes into ``data_dir/snapshots`` when ``data_dir`` is set and
    nothing otherwise.  Each checkpoint names one of these files, and
    recovery mmap-attaches it instead of rebuilding the store.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

from repro.reliability import faults

#: Default bound on live sessions (see ``session_capacity``).
DEFAULT_SESSION_CAPACITY = 1024


@dataclass(frozen=True)
class ServingConfig:
    """Validated configuration for one serving deployment."""

    concurrency: int = 8
    max_queue_depth: int = 64
    session_capacity: int = DEFAULT_SESSION_CAPACITY
    http_host: str = "127.0.0.1"
    http_port: int = 0
    default_deadline_ms: float | None = None
    failpoints: tuple = ()
    failpoint_seed: int = 0
    data_dir: str | None = None
    journal_fsync: bool = False
    snapshot_dir: str | None = None

    def __post_init__(self) -> None:
        # Accept any iterable of specs (the CLI hands over a list).
        object.__setattr__(self, "failpoints", tuple(self.failpoints))
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.max_queue_depth < 0:
            raise ValueError(f"max_queue_depth must be >= 0, got {self.max_queue_depth}")
        if self.session_capacity < 1:
            raise ValueError(f"session_capacity must be >= 1, got {self.session_capacity}")
        if not (0 <= self.http_port <= 65535):
            raise ValueError(f"http_port must be in [0, 65535], got {self.http_port}")
        if self.default_deadline_ms is not None and (
            not math.isfinite(self.default_deadline_ms) or self.default_deadline_ms <= 0
        ):
            raise ValueError(
                "default_deadline_ms must be a positive finite number or None, "
                f"got {self.default_deadline_ms}"
            )
        if not all(isinstance(spec, str) and spec.strip() for spec in self.failpoints):
            raise ValueError("failpoints must be non-empty spec strings")
        for spec in self.failpoints:
            site = faults.parse_rule(spec).site
            if site not in faults.SITES:
                raise ValueError(
                    f"failpoint spec {spec!r}: unknown site {site!r} "
                    f"(known: {', '.join(sorted(faults.SITES))})"
                )
        if self.data_dir is not None and not str(self.data_dir).strip():
            raise ValueError("data_dir must be a non-empty path or None")
        if self.snapshot_dir is not None and not str(self.snapshot_dir).strip():
            raise ValueError("snapshot_dir must be a non-empty path or None")

    def replace(self, **changes: Any) -> "ServingConfig":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """The configuration as a JSON-ready dict (for reports/metrics)."""
        return dataclasses.asdict(self)
