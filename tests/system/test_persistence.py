"""Unit tests for speech-store persistence (repro.system.persistence)."""

import json

import pytest

from repro.system.config import SummarizationConfig
from repro.system.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    load_store,
    save_store,
    store_from_dict,
    store_to_dict,
)
from repro.system.preprocessor import Preprocessor
from repro.system.problem_generator import ProblemGenerator
from repro.system.queries import DataQuery


@pytest.fixture()
def prepared(example_table):
    config = SummarizationConfig.create(
        "flight_delays",
        dimensions=("region", "season"),
        targets=("delay",),
        max_query_length=1,
        max_facts_per_speech=2,
        max_fact_dimensions=1,
        algorithm="G-B",
    )
    generator = ProblemGenerator(config, example_table)
    store, _ = Preprocessor(config).run(generator)
    return config, store


class TestRoundTrip:
    def test_dict_round_trip(self, prepared):
        config, store = prepared
        payload = store_to_dict(store, config)
        restored, restored_config = store_from_dict(payload)
        assert len(restored) == len(store)
        assert restored_config == config
        original = store.exact_match(DataQuery.create("delay", {"season": "Winter"}))
        loaded = restored.exact_match(DataQuery.create("delay", {"season": "Winter"}))
        assert loaded.text == original.text
        assert loaded.speech == original.speech
        assert loaded.utility == pytest.approx(original.utility)

    def test_file_round_trip(self, prepared, tmp_path):
        config, store = prepared
        path = tmp_path / "artifacts" / "speeches.json"
        save_store(store, path, config)
        assert path.exists()
        restored, restored_config = load_store(path)
        assert len(restored) == len(store)
        assert restored_config == config

    def test_round_trip_without_config(self, prepared, tmp_path):
        _, store = prepared
        path = tmp_path / "speeches.json"
        save_store(store, path)
        restored, config = load_store(path)
        assert config is None
        assert len(restored) == len(store)

    def test_lookup_works_after_reload(self, prepared, tmp_path):
        config, store = prepared
        path = tmp_path / "speeches.json"
        save_store(store, path, config)
        restored, _ = load_store(path)
        match = restored.best_match(
            DataQuery.create("delay", {"season": "Winter", "region": "North"})
        )
        assert match is not None
        assert match.stored.query.length == 1


class TestErrorHandling:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_store(tmp_path / "does_not_exist.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError):
            load_store(path)

    def test_wrong_version(self):
        with pytest.raises(PersistenceError):
            store_from_dict({"format_version": FORMAT_VERSION + 1, "speeches": []})

    def test_malformed_entry(self):
        payload = {
            "format_version": FORMAT_VERSION,
            "speeches": [{"predicates": {}, "facts": []}],  # missing target
        }
        with pytest.raises(PersistenceError):
            store_from_dict(payload)

    def test_malformed_fact(self):
        payload = {
            "format_version": FORMAT_VERSION,
            "speeches": [
                {
                    "target": "delay",
                    "predicates": {},
                    "facts": [{"scope": {}, "value": "not-a-number"}],
                }
            ],
        }
        with pytest.raises(PersistenceError):
            store_from_dict(payload)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "is a list, not an object"),
            ('"store"', "is a str, not an object"),
            ('{"format_version": 1, "speeches": 5}', "'speeches' is not a list"),
            ('{"format_version": 1, "speeches": [], "config": {}}', "malformed config"),
        ],
    )
    def test_file_of_the_wrong_shape(self, tmp_path, text, message):
        path = tmp_path / "store.json"
        path.write_text(text)
        with pytest.raises(PersistenceError, match=message):
            load_store(path)

    def test_negative_support(self, tmp_path):
        speech = {"target": "delay", "facts": [{"scope": {}, "value": 1.0, "support": -1}]}
        path = tmp_path / "store.json"
        path.write_text(json.dumps({"format_version": FORMAT_VERSION, "speeches": [speech]}))
        with pytest.raises(PersistenceError, match="malformed fact entry"):
            load_store(path)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read"):
            load_store(tmp_path)

    def test_artifact_is_plain_json(self, prepared, tmp_path):
        config, store = prepared
        path = tmp_path / "speeches.json"
        save_store(store, path, config)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == FORMAT_VERSION
        assert isinstance(payload["speeches"], list)
        assert payload["config"]["table"] == "flight_delays"
