"""Persistence of pre-generated speeches.

The paper's deployment pre-generates thousands of speeches once (8,500
for the flights dataset) and serves them for months.  That only works
if the speech store survives process restarts, so this module provides
a JSON serialisation of :class:`SpeechStore` contents together with the
configuration that produced them.  The format is deliberately plain
(one JSON document) so deployments can inspect and diff it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.errors import InvalidFactError
from repro.core.model import Fact, Scope, Speech
from repro.system.config import SummarizationConfig
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore, StoredSpeech

#: Format marker written into every artifact; bump on breaking changes.
FORMAT_VERSION = 1


class PersistenceError(Exception):
    """Raised when a speech-store artifact cannot be read."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _encode_fact(fact: Fact) -> dict[str, Any]:
    return {
        "scope": dict(fact.scope.assignments),
        "value": fact.value,
        "support": fact.support,
    }


def _encode_stored(stored: StoredSpeech) -> dict[str, Any]:
    return {
        "target": stored.query.target,
        "predicates": dict(stored.query.predicate_map),
        "text": stored.text,
        "utility": stored.utility,
        "scaled_utility": stored.scaled_utility,
        "algorithm": stored.algorithm,
        "facts": [_encode_fact(fact) for fact in stored.speech],
    }


def store_to_dict(store: SpeechStore, config: SummarizationConfig | None = None) -> dict[str, Any]:
    """Serialise a speech store (and optionally its configuration) to a dict."""
    payload: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "speeches": [_encode_stored(stored) for stored in store],
    }
    if config is not None:
        payload["config"] = json.loads(config.to_json())
    return payload


def canonical_store_payload(
    store: SpeechStore, config: SummarizationConfig | None = None
) -> bytes:
    """Serialise a speech store to canonical bytes (sorted keys, compact).

    Deterministic: the same store contents — including iteration order,
    which :class:`SpeechStore` preserves by insertion — always produce
    the same bytes, so checkpoints can be checksummed and two recovery
    paths can be compared byte-for-byte (the durability layer's parity
    oracle).
    """
    return json.dumps(
        store_to_dict(store, config), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def save_store(
    store: SpeechStore,
    path: str | Path,
    config: SummarizationConfig | None = None,
) -> None:
    """Write a speech store to a JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(store_to_dict(store, config), indent=2, sort_keys=True))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _decode_fact(payload: dict[str, Any]) -> Fact:
    try:
        return Fact(
            scope=Scope(dict(payload["scope"])),
            value=float(payload["value"]),
            support=int(payload.get("support", 0)),
        )
    except (KeyError, TypeError, ValueError, InvalidFactError) as exc:
        raise PersistenceError(f"malformed fact entry: {payload!r}") from exc


def _decode_stored(payload: dict[str, Any]) -> StoredSpeech:
    try:
        query = DataQuery.create(payload["target"], dict(payload.get("predicates", {})))
        facts = [_decode_fact(fact) for fact in payload.get("facts", [])]
        return StoredSpeech(
            query=query,
            speech=Speech(facts),
            text=str(payload.get("text", "")),
            utility=float(payload.get("utility", 0.0)),
            scaled_utility=float(payload.get("scaled_utility", 0.0)),
            algorithm=str(payload.get("algorithm", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed speech entry: {payload!r}") from exc


def store_from_dict(payload: dict[str, Any]) -> tuple[SpeechStore, SummarizationConfig | None]:
    """Rebuild a speech store (and its configuration, if present) from a dict."""
    if not isinstance(payload, dict):
        raise PersistenceError(
            f"speech store payload is a {type(payload).__name__}, not an object"
        )
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported speech-store format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    speeches = payload.get("speeches", [])
    if not isinstance(speeches, list):
        raise PersistenceError("speech store field 'speeches' is not a list")
    store = SpeechStore()
    for entry in speeches:
        store.add(_decode_stored(entry))
    config = None
    if "config" in payload:
        try:
            config = SummarizationConfig.from_json(json.dumps(payload["config"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"malformed config entry: {exc}") from exc
    return store, config


def load_store(path: str | Path) -> tuple[SpeechStore, SummarizationConfig | None]:
    """Read a speech store from a JSON file written by :func:`save_store`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise PersistenceError(f"speech store file {path} does not exist") from None
    except OSError as exc:
        raise PersistenceError(f"cannot read speech store file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise PersistenceError(f"speech store file {path} is not valid JSON") from exc
    return store_from_dict(payload)
