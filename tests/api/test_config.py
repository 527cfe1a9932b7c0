"""Unit tests for repro.api.config.ServingConfig."""

import dataclasses

import pytest

from repro.api.config import ServingConfig


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("session_capacity", 0),
        ("http_port", -1),
        ("http_port", 65536),
        ("default_deadline_ms", 0.0),
        ("default_deadline_ms", float("nan")),
        ("default_deadline_ms", float("inf")),
        ("failpoints", [""]),
        ("data_dir", " "),
        ("snapshot_dir", ""),
    ],
)
def test_invalid_value_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        ServingConfig(**{field: value})


def test_replace_revalidates():
    config = ServingConfig(concurrency=2)
    assert config.replace(concurrency=3).concurrency == 3
    with pytest.raises(ValueError, match="concurrency"):
        config.replace(concurrency=0)


def test_failpoints_are_kept_as_a_tuple():
    config = ServingConfig(failpoints=["journal.write:times=1"])
    assert config.failpoints == ("journal.write:times=1",)
    assert hash(config) == hash(ServingConfig(failpoints=("journal.write:times=1",)))


@pytest.mark.parametrize(
    ("spec", "message"),
    [
        ("worker.crash:bogus", "option 'bogus' is not key=value"),
        ("worker.crash:times=x", "invalid literal"),
        ("shard.crash", "unknown site 'shard.crash'"),
        ("journal.append=error", "unknown site 'journal.append=error'"),
    ],
)
def test_failpoint_specs_must_parse_and_name_a_wired_site(spec, message):
    """A spec that cannot fire is rejected, not silently installed."""
    with pytest.raises(ValueError, match=message):
        ServingConfig(failpoints=[spec])


def test_to_dict_round_trips():
    config = ServingConfig(concurrency=3, http_port=8080, default_deadline_ms=250.0)
    assert ServingConfig(**config.to_dict()) == config


def test_maintenance_policy_is_not_configurable():
    """Retry, backoff and breaker settings are scheduler constants."""
    names = {field.name for field in dataclasses.fields(ServingConfig)}
    assert len(names) == 11
    assert not names & {
        "maintenance_retry_limit",
        "maintenance_backoff_base",
        "maintenance_backoff_cap",
        "breaker_threshold",
        "breaker_cooldown_seconds",
    }
