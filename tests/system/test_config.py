"""Unit tests for repro.system.config."""

import json
import re

import pytest

from repro.system.config import SummarizationConfig


def make_config(**overrides) -> SummarizationConfig:
    kwargs = {
        "table": "flights",
        "dimensions": ("region", "season"),
        "targets": ("delay",),
    }
    kwargs.update(overrides)
    return SummarizationConfig(**kwargs)


class TestValidation:
    def test_defaults_follow_the_paper(self):
        config = make_config()
        assert config.max_query_length == 2
        assert config.max_facts_per_speech == 3
        assert config.max_fact_dimensions == 2
        assert config.algorithm == "G-O"

    def test_requires_dimensions_and_targets(self):
        with pytest.raises(ValueError):
            make_config(dimensions=())
        with pytest.raises(ValueError):
            make_config(targets=())

    def test_rejects_overlapping_columns(self):
        with pytest.raises(ValueError):
            make_config(targets=("region",))

    def test_rejects_invalid_bounds(self):
        with pytest.raises(ValueError):
            make_config(max_query_length=-1)
        with pytest.raises(ValueError):
            make_config(max_facts_per_speech=0)
        with pytest.raises(ValueError):
            make_config(max_fact_dimensions=-2)

    @pytest.mark.parametrize("support", [0, -3])
    def test_rejects_min_fact_support_below_one(self, support):
        """Caught when the configuration is built, not inside the first
        problem a (possibly pooled) worker builds."""
        with pytest.raises(ValueError, match="min_fact_support"):
            make_config(min_fact_support=support)
        payload = make_config().to_json().replace(
            '"min_fact_support": 1', f'"min_fact_support": {support}'
        )
        with pytest.raises(ValueError, match="min_fact_support"):
            SummarizationConfig.from_json(payload)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"dimensions": ("region", "region", "season")},
                "duplicate dimension columns: ['region']",
            ),
            ({"targets": ("delay", "delay")}, "duplicate target columns: ['delay']"),
        ],
    )
    def test_rejects_duplicate_columns(self, overrides, message):
        """A repeated column would enumerate and solve the same query
        more than once."""
        with pytest.raises(ValueError, match=re.escape(message)):
            make_config(**overrides)
        payload = json.loads(make_config().to_json())
        payload.update({field: list(columns) for field, columns in overrides.items()})
        with pytest.raises(ValueError, match=re.escape(message)):
            SummarizationConfig.from_json(json.dumps(payload))

    def test_create_helper(self):
        config = SummarizationConfig.create("t", ["a"], ["v"], max_query_length=1)
        assert config.dimensions == ("a",)
        assert config.targets == ("v",)
        assert config.max_query_length == 1


class TestPersistence:
    def test_json_round_trip(self):
        config = make_config(max_query_length=1, algorithm="G-B")
        restored = SummarizationConfig.from_json(config.to_json())
        assert restored == config

    def test_file_round_trip(self, tmp_path):
        config = make_config()
        path = tmp_path / "config.json"
        config.save(path)
        assert SummarizationConfig.from_json(path.read_text()) == config

    def test_json_is_readable(self):
        text = make_config().to_json()
        assert '"table": "flights"' in text
        assert '"dimensions"' in text
