"""Serving layer: run the voice engine as a long-lived concurrent service.

The paper's headline result is near-zero run-time latency because all
optimization happens during pre-processing (Figure 10).  This package
turns that property into a deployable service:

* :mod:`repro.serving.snapshots` — immutable :class:`StoreSnapshot`
  handles over :class:`repro.system.speech_store.SpeechStore` with an
  atomic swap, so serving always reads a consistent store while
  maintenance builds the next one;
* :mod:`repro.serving.scheduler` — a re-entrant background job queue
  that coalesces appended-row batches and runs incremental maintenance
  on the shared worker pool without pausing serving;
* :mod:`repro.serving.service` — the asyncio request loop
  (:class:`VoiceService`) with admission control, a bounded executor
  for heavyweight requests, and per-request/aggregate metrics;
* :mod:`repro.serving.sharding` — the multi-process tier:
  :class:`ShardManager` spawns N engine processes behind an asyncio
  router with consistent-hash session affinity, broadcast snapshot
  swaps with a version barrier, aggregated metrics and crash-respawn
  supervision.
"""

from repro.serving.scheduler import MaintenanceJob, MaintenanceScheduler
from repro.serving.service import ServiceMetrics, VoiceService
from repro.serving.sharding import ConsistentHashRing, ShardManager
from repro.serving.snapshots import SnapshotRegistry, StoreSnapshot

__all__ = [
    "ConsistentHashRing",
    "MaintenanceJob",
    "MaintenanceScheduler",
    "ServiceMetrics",
    "ShardManager",
    "SnapshotRegistry",
    "StoreSnapshot",
    "VoiceService",
]
