"""Reference compaction: one pass over every speech, in id order.

This is the compaction :class:`repro.store.CompactSpeechStore` used to
run on every freeze, kept as the oracle for the incremental compaction
(:meth:`repro.store.Compaction.advance`): interning each speech's
strings into the pools as it goes, building buckets in a dict, then
sorting.  Every section it returns must equal the incremental result
array for array, and a freeze of either must write the same bytes.
Each value is encoded on its own, with ``json.dumps``, so the oracle
shares no value memo or encoder with the code under test.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.store.columnar import (
    _canonical_token,
    _key_digest,
    _Pool,
)


def _value_json(value: Any) -> str:
    """The storage form of one value, encoded per call."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _pool_sections(name: str, pool: _Pool, sections: dict[str, Any]) -> None:
    blob, offsets = pool.blob()
    sections[f"{name}_blob"] = blob
    sections[f"{name}_off"] = offsets


def oracle_sections(store) -> dict[str, Any]:
    """The compact sections of ``store``, built speech by speech."""
    targets, columns, algorithms, values = _Pool(), _Pool(), _Pool(), _Pool()
    target_id: list[int] = []
    algorithm_id: list[int] = []
    utility: list[float] = []
    scaled_utility: list[float] = []
    text_chunks: list[bytes] = []
    text_off = [0]
    q_off = [0]
    q_col: list[int] = []
    q_val: list[int] = []
    f_off = [0]
    fact_value: list[float] = []
    fact_support: list[int] = []
    s_off = [0]
    s_col: list[int] = []
    s_val: list[int] = []
    key_digests: list[int] = []
    buckets: dict[tuple[int, int], list[int]] = {}

    for speech_id, stored in enumerate(store):
        target = stored.query.target
        tid = targets.intern(target)
        target_id.append(tid)
        algorithm_id.append(algorithms.intern(stored.algorithm))
        utility.append(float(stored.utility))
        scaled_utility.append(float(stored.scaled_utility))
        encoded = stored.text.encode("utf-8")
        text_chunks.append(encoded)
        text_off.append(text_off[-1] + len(encoded))

        pairs: list[tuple[str, str]] = []
        for column, value in stored.query.predicates:
            q_col.append(columns.intern(column))
            q_val.append(values.intern(_value_json(value)))
            pairs.append((column, _canonical_token(value)))
        q_off.append(len(q_col))
        key_digests.append(_key_digest(target, pairs))
        buckets.setdefault((tid, stored.query.length), []).append(speech_id)

        for fact in stored.speech:
            fact_value.append(float(fact.value))
            fact_support.append(int(fact.support))
            for column, value in fact.scope:
                s_col.append(columns.intern(column))
                s_val.append(values.intern(_value_json(value)))
            s_off.append(len(s_col))
        f_off.append(len(fact_value))

    sections: dict[str, Any] = {}
    _pool_sections("targets", targets, sections)
    _pool_sections("columns", columns, sections)
    _pool_sections("algorithms", algorithms, sections)
    _pool_sections("values", values, sections)
    sections["target_id"] = np.asarray(target_id, dtype=np.int32)
    sections["algorithm_id"] = np.asarray(algorithm_id, dtype=np.int32)
    sections["utility"] = np.asarray(utility, dtype=np.float64)
    sections["scaled_utility"] = np.asarray(scaled_utility, dtype=np.float64)
    sections["text_blob"] = b"".join(text_chunks)
    sections["text_off"] = np.asarray(text_off, dtype=np.int64)
    sections["q_off"] = np.asarray(q_off, dtype=np.int64)
    sections["q_col"] = np.asarray(q_col, dtype=np.int32)
    sections["q_val"] = np.asarray(q_val, dtype=np.int32)
    sections["f_off"] = np.asarray(f_off, dtype=np.int64)
    sections["fact_value"] = np.asarray(fact_value, dtype=np.float64)
    sections["fact_support"] = np.asarray(fact_support, dtype=np.int64)
    sections["s_off"] = np.asarray(s_off, dtype=np.int64)
    sections["s_col"] = np.asarray(s_col, dtype=np.int32)
    sections["s_val"] = np.asarray(s_val, dtype=np.int32)

    digest_array = np.asarray(key_digests, dtype=np.uint64)
    order = np.argsort(digest_array, kind="stable")
    sections["key_digest"] = digest_array[order]
    sections["key_sorted_id"] = order.astype(np.int32)

    bucket_keys = sorted(buckets)
    bucket_off = [0]
    bucket_ids: list[int] = []
    for key in bucket_keys:
        bucket_ids.extend(buckets[key])
        bucket_off.append(len(bucket_ids))
    sections["bucket_target"] = np.asarray([k[0] for k in bucket_keys], dtype=np.int32)
    sections["bucket_length"] = np.asarray([k[1] for k in bucket_keys], dtype=np.int32)
    sections["bucket_off"] = np.asarray(bucket_off, dtype=np.int64)
    sections["bucket_ids"] = np.asarray(bucket_ids, dtype=np.int32)
    return sections
