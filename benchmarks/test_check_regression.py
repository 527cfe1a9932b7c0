"""The regression guard's one rule, on canned smoke output.

``run_quick`` is replaced by a fake that writes a chosen payload, so no
smoke is launched; the committed baselines are replaced by a temporary
directory.
"""

from __future__ import annotations

import json

import pytest

import check_regression

BASELINES = {
    "serving": {"compact": {"bytes_per_speech": 200.0, "dict_bytes_per_speech": 600.0}},
    "memory": {"speech_bytes_per_speech": 650.0, "session_bytes_per_session": 450.0},
}


@pytest.fixture
def guard(tmp_path, monkeypatch):
    """Run the guard on ``fresh`` payloads; a name missing from it fails its smoke."""
    baseline_dir = tmp_path / "baselines"
    baseline_dir.mkdir()
    for name, payload in BASELINES.items():
        (baseline_dir / f"{name}.json").write_text(json.dumps(payload))
    monkeypatch.setattr(check_regression, "BASELINE_DIR", baseline_dir)

    def run(fresh: dict) -> int:
        def fake_run_quick(name, output):
            if name not in fresh:
                return False
            output.parent.mkdir(parents=True, exist_ok=True)
            output.write_text(json.dumps(fresh[name]))
            return True

        monkeypatch.setattr(check_regression, "run_quick", fake_run_quick)
        return check_regression.main(["--fresh-dir", str(tmp_path / "fresh")])

    return run


def fresh_payloads(**overrides) -> dict:
    fresh = json.loads(json.dumps(BASELINES))
    fresh["serving_service"] = {}
    fresh.update(overrides)
    return fresh


def test_the_four_ceilings_are_the_only_gates():
    gated = [
        f"{spec['name']}.{path}" for spec in check_regression.SPECS for path in spec["metrics"]
    ]
    assert gated == [
        "serving.compact.bytes_per_speech",
        "serving.compact.dict_bytes_per_speech",
        "memory.speech_bytes_per_speech",
        "memory.session_bytes_per_session",
    ]


def test_values_within_their_ceilings_pass(guard, capsys):
    # 30% above the baseline is the default ceiling itself.
    memory = {"speech_bytes_per_speech": 845.0, "session_bytes_per_session": 10.0}
    assert guard(fresh_payloads(memory=memory)) == 0
    out = capsys.readouterr().out
    assert "memory.speech_bytes_per_speech: baseline 650.00, measured 845.00" in out
    assert "serving_service: smoke passed" in out


def test_a_value_over_its_ceiling_fails_and_names_the_metric(guard, capsys):
    serving = {"compact": {"bytes_per_speech": 261.0, "dict_bytes_per_speech": 600.0}}
    assert guard(fresh_payloads(serving=serving)) == 1
    err = capsys.readouterr().err
    assert "serving.compact.bytes_per_speech: 261.00 > 260.00" in err
    assert "dict_bytes_per_speech" not in err


def test_a_metric_missing_from_the_fresh_run_fails(guard, capsys):
    memory = {"speech_bytes_per_speech": 650.0}
    assert guard(fresh_payloads(memory=memory)) == 1
    err = capsys.readouterr().err
    assert "memory.session_bytes_per_session: missing from the fresh run" in err


def test_a_failing_smoke_fails(guard, capsys):
    fresh = fresh_payloads()
    del fresh["serving_service"]
    assert guard(fresh) == 1
    err = capsys.readouterr().err
    assert "serving_service: --quick smoke failed its self-verification" in err
