"""Golden digests of pre-processed stores: speed-ups must not move a byte.

The 300-row digest was computed before pre-processing built query
subsets from cached column codes and memoized the G-O cost model; the
full 5,000-row digest before fact generation handed its scope rows to
the kernel and the G-O pruner tracked facts by id.  Any change to the
enumerated queries, the candidate facts, the chosen plans, the greedy
selection, the utilities or the realized texts changes them.
"""

from __future__ import annotations

import hashlib

from repro.datasets import load_dataset
from repro.system.config import SummarizationConfig
from repro.system.engine import VoiceQueryEngine
from repro.system.persistence import canonical_store_payload

FLIGHTS_300_G_O_DIGEST = "ee2b0a22973f985bab028a742f7d6001a0575b6c538392a42b86dd59a0f12da7"
FLIGHTS_5000_G_O_DIGEST = "bd61512455a4f3219140dd2446945155065f95f5ab617918011e47a31bd55ba6"


def _g_o_store_digest(dataset) -> tuple[int, str]:
    config = SummarizationConfig.create(
        table=dataset.spec.key,
        dimensions=dataset.spec.dimensions,
        targets=dataset.spec.targets,
        max_query_length=2,
        algorithm="G-O",
    )
    engine = VoiceQueryEngine(config, dataset.table)
    engine.preprocess()
    payload = canonical_store_payload(engine.store, config)
    return len(engine.store), hashlib.sha256(payload).hexdigest()


def test_flights_store_matches_golden_digest():
    dataset = load_dataset("flights", num_rows=300)
    assert _g_o_store_digest(dataset) == (928, FLIGHTS_300_G_O_DIGEST)


def test_full_flights_store_matches_golden_digest():
    dataset = load_dataset("flights", num_rows=5000, seed=20210318)
    assert _g_o_store_digest(dataset) == (1026, FLIGHTS_5000_G_O_DIGEST)
