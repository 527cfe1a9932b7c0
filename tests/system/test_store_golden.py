"""Golden digests of pre-processed stores: speed-ups must not move a byte.

The 300-row digest was computed before pre-processing built query
subsets from cached column codes and memoized the G-O cost model; the
full 5,000-row digest before fact generation handed its scope rows to
the kernel and the G-O pruner tracked facts by id.  Any change to the
enumerated queries, the candidate facts, the chosen plans, the greedy
selection, the utilities or the realized texts changes them.

The frozen-snapshot digest of the full store pins the compact layout,
the pool order and the file format, so it is re-pinned on a format
change; the test also attaches the file and checks it still holds the
full store's canonical digest, so only the layout moved.  It was last
pinned when format version 2 dropped the posting lists (version 1 was
pinned before compaction became incremental).

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

The acs and primaries G-O digests and the digest of a flights table
with NULLs in two dimension columns were computed before plan choice ran
on flat per-group lists, one bincount gave every target's bound, and
fact generation kept its fact groups across problems and read a base
column's census off its single-value coding.  The NULL-dimension table
pins the census fallback (a column with a NULL code is counted) and
the dropping of NULL keys, which no dataset reaches otherwise.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.datasets import load_dataset
from repro.relational.table import Table
from repro.store import attach, freeze
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
    "897d9685af8f9dc369f2ca0a8b50096370b5bc06ac4d9d609f354e2a069834c8"
)
STACKOVERFLOW_300_G_O_DIGEST = (
    "07b4e607bfea5cec74e29dfaf9b237bc5eb84d26699012e31bd28f8b37535364"
)
FLIGHTS_300_G_P_DIGEST = "8ff27d8ef95a64d854d3932af48d43b4f26ee4f9f408a63693629f3c74ea26a0"
ACS_300_G_O_DIGEST = "22fb2f168bb992a12e846816e61ad5dd44a6f5933cf8909e1bf2e425ef2b92cb"
PRIMARIES_300_G_O_DIGEST = "b919a9a101a83bcdb1258e0bc4ebc5780cffd61d643a5b13af2e75b10dfcfb4c"
FLIGHTS_300_NULL_DIMENSIONS_G_O_DIGEST = (
    "9b8d21d6a24ae43d08cb96e5fa8532a8da7db80410de2b83ac9aee3bae33bb1c"
)


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


def with_null_dimensions(dataset):
    """``dataset`` with NULL ``origin_region`` on every 7th row and NULL
    ``season`` on every 5th."""
    table = dataset.table
    names = table.column_names
    types = [column.ctype for column in table.columns]
    rows = table.to_dicts()
    for i, row in enumerate(rows):
        if i % 7 == 3:
            row["origin_region"] = None
        if i % 5 == 1:
            row["season"] = None
    values = [[row[name] for name in names] for row in rows]
    return replace(dataset, table=Table.from_rows(table.name, names, types, values))


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


@pytest.mark.parametrize(
    "name, speeches, digest",
    [("acs", 252, ACS_300_G_O_DIGEST), ("primaries", 195, PRIMARIES_300_G_O_DIGEST)],
)
def test_other_datasets_match_golden_digests(name, speeches, digest):
    assert _store_digest(_engine(load_dataset(name, num_rows=300))) == (speeches, digest)


def test_flights_with_null_dimensions_matches_golden_digest():
    dataset = with_null_dimensions(load_dataset("flights", num_rows=300))
    for column in ("origin_region", "season"):
        assert dataset.table.column(column).null_count() > 0
    engine = _engine(dataset)
    assert _store_digest(engine) == (922, FLIGHTS_300_NULL_DIMENSIONS_G_O_DIGEST)


def test_full_flights_store_matches_golden_digest(full_flights_engine):
    assert _store_digest(full_flights_engine) == (1026, FLIGHTS_5000_G_O_DIGEST)


def test_full_flights_frozen_store_matches_golden_digest(full_flights_engine, tmp_path):
    path = freeze(full_flights_engine.store, tmp_path / "store.snap")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FLIGHTS_5000_G_O_FROZEN_DIGEST
    payload = canonical_store_payload(attach(path), full_flights_engine.config)
    assert hashlib.sha256(payload).hexdigest() == FLIGHTS_5000_G_O_DIGEST


def test_maintained_flights_store_matches_golden_digest():
    engine = _engine(load_dataset("flights", num_rows=300))
    maintainer = IncrementalMaintainer(engine.config, engine.table)
    for batch in _append_batches(engine.table):
        maintainer.maintain(batch, engine.store)
    assert _store_digest(engine) == (944, FLIGHTS_300_G_O_MAINTAINED_DIGEST)
