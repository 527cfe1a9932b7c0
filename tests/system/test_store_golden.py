"""Golden digest of a pre-processed store: speed-ups must not move a byte.

The digest was computed before pre-processing built query subsets from
cached column codes and memoized the G-O cost model.  Any change to the
enumerated queries, the candidate facts, the chosen plans, the greedy
selection, the utilities or the realized texts changes it.
"""

from __future__ import annotations

import hashlib

from repro.datasets import load_dataset
from repro.system.config import SummarizationConfig
from repro.system.engine import VoiceQueryEngine
from repro.system.persistence import canonical_store_payload

FLIGHTS_300_G_O_DIGEST = "ee2b0a22973f985bab028a742f7d6001a0575b6c538392a42b86dd59a0f12da7"


def test_flights_store_matches_golden_digest():
    dataset = load_dataset("flights", num_rows=300)
    config = SummarizationConfig.create(
        table=dataset.spec.key,
        dimensions=dataset.spec.dimensions,
        targets=dataset.spec.targets,
        max_query_length=2,
        algorithm="G-O",
    )
    engine = VoiceQueryEngine(config, dataset.table)
    engine.preprocess()
    assert len(engine.store) == 928
    payload = canonical_store_payload(engine.store, config)
    assert hashlib.sha256(payload).hexdigest() == FLIGHTS_300_G_O_DIGEST
