"""Golden digests of pre-processed stores: speed-ups must not move a byte.

The 300-row digest was computed before pre-processing built query
subsets from cached column codes and memoized the G-O cost model; the
full 5,000-row digest before fact generation handed its scope rows to
the kernel and the G-O pruner tracked facts by id.  Any change to the
enumerated queries, the candidate facts, the chosen plans, the greedy
selection, the utilities or the realized texts changes them.

The frozen-snapshot digest of the full store was computed when every
freeze still compacted the store speech by speech, before compaction
became incremental: a change to the compact layout, the pool order or
the file format changes it.

The maintained-store digest was computed when every (target, scope)
problem was still built from scratch, before the targets of a predicate
scope shared one set-up and maintenance kept its problem generator
across appends.  Its appends bring an unseen airline and a NULL
target, so both the extended column codes and the unshared path (one
target's kept rows differ from the other's) are pinned.

The stackoverflow G-O digest (six targets per predicate scope) and the
flights G-P digest (the naive pruning plan) were computed before the
pruned greedy summarizers shared one group lattice per group set, took
a speech's utility from the greedy's final state, skipped the copy
search for generated candidates and gathered each plan's source
entries once.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datasets import load_dataset
from repro.relational.table import Table
from repro.store import freeze
from repro.system.config import SummarizationConfig
from repro.system.engine import VoiceQueryEngine
from repro.system.persistence import canonical_store_payload
from repro.system.updates import IncrementalMaintainer

FLIGHTS_300_G_O_DIGEST = "ee2b0a22973f985bab028a742f7d6001a0575b6c538392a42b86dd59a0f12da7"
FLIGHTS_5000_G_O_DIGEST = "bd61512455a4f3219140dd2446945155065f95f5ab617918011e47a31bd55ba6"
FLIGHTS_300_G_O_MAINTAINED_DIGEST = (
    "d84a28d86bff1543ed8593b7209e0d0c5c27ef0ef048a3bac6ed2098ce138f5a"
)
FLIGHTS_5000_G_O_FROZEN_DIGEST = (
    "03e5f1fdb134ebc9d1e87bf2192a450deb4de1563154b99860cc0f29fa74cd03"
)
STACKOVERFLOW_300_G_O_DIGEST = (
    "07b4e607bfea5cec74e29dfaf9b237bc5eb84d26699012e31bd28f8b37535364"
)
FLIGHTS_300_G_P_DIGEST = "8ff27d8ef95a64d854d3932af48d43b4f26ee4f9f408a63693629f3c74ea26a0"


def _engine(dataset, algorithm: str = "G-O") -> VoiceQueryEngine:
    config = SummarizationConfig.create(
        table=dataset.spec.key,
        dimensions=dataset.spec.dimensions,
        targets=dataset.spec.targets,
        max_query_length=2,
        algorithm=algorithm,
    )
    engine = VoiceQueryEngine(config, dataset.table)
    engine.preprocess()
    return engine


def _store_digest(engine: VoiceQueryEngine) -> tuple[int, str]:
    payload = canonical_store_payload(engine.store, engine.config)
    return len(engine.store), hashlib.sha256(payload).hexdigest()


def _append_batches(base: Table) -> list[Table]:
    """Four batches of five flights rows.

    The third brings two rows of an unseen airline and one NULL
    ``delay_minutes``.
    """
    rows = load_dataset("flights", num_rows=20, seed=7).table.to_dicts()
    rows[10]["airline"] = rows[12]["airline"] = "ZZ"
    rows[11]["delay_minutes"] = None
    names = base.column_names
    types = [column.ctype for column in base.columns]
    values = [[row[name] for name in names] for row in rows]
    return [Table.from_rows(base.name, names, types, values[i : i + 5]) for i in range(0, 20, 5)]


@pytest.fixture(scope="module")
def full_flights_engine() -> VoiceQueryEngine:
    return _engine(load_dataset("flights", num_rows=5000, seed=20210318))


def test_flights_store_matches_golden_digest():
    engine = _engine(load_dataset("flights", num_rows=300))
    assert _store_digest(engine) == (928, FLIGHTS_300_G_O_DIGEST)


def test_stackoverflow_store_matches_golden_digest():
    dataset = load_dataset("stackoverflow", num_rows=300)
    assert len(dataset.spec.targets) == 6
    assert _store_digest(_engine(dataset)) == (2670, STACKOVERFLOW_300_G_O_DIGEST)


def test_flights_g_p_store_matches_golden_digest():
    engine = _engine(load_dataset("flights", num_rows=300), algorithm="G-P")
    assert _store_digest(engine) == (928, FLIGHTS_300_G_P_DIGEST)


def test_full_flights_store_matches_golden_digest(full_flights_engine):
    assert _store_digest(full_flights_engine) == (1026, FLIGHTS_5000_G_O_DIGEST)


def test_full_flights_frozen_store_matches_golden_digest(full_flights_engine, tmp_path):
    path = freeze(full_flights_engine.store, tmp_path / "store.snap")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FLIGHTS_5000_G_O_FROZEN_DIGEST


def test_maintained_flights_store_matches_golden_digest():
    engine = _engine(load_dataset("flights", num_rows=300))
    maintainer = IncrementalMaintainer(engine.config, engine.table)
    for batch in _append_batches(engine.table):
        maintainer.maintain(batch, engine.store)
    assert _store_digest(engine) == (944, FLIGHTS_300_G_O_MAINTAINED_DIGEST)
