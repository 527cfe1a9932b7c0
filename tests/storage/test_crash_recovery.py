"""SIGKILL crash tests: a real server process dies at a failpoint and
must recover on restart with zero acked-but-lost batches.

Each test launches ``repro.cli serve --http --data-dir`` as a
subprocess with a killing failpoint armed, drives ``POST /v1/append``
traffic until the process dies (exit status ``-SIGKILL``), then:

1. asserts every batch the client saw acked is in the journal and not
   dropped (the durable-ack contract),
2. runs ``repro.cli recover --verify`` over the data directory (the
   checkpoint path and the pure journal replay must agree byte for
   byte),
3. restarts the server on the same data directory and requires it to
   accept appends and answer again, shutting down cleanly.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.storage.durability import read_journal
from repro.storage.recovery import JOURNAL_NAME

REPO_ROOT = Path(__file__).resolve().parents[2]

SERVE_ARGS = ["--dataset", "flights", "--rows", "200", "--algorithm", "G-B"]

STARTUP_TIMEOUT = 60.0
EXIT_TIMEOUT = 60.0


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _start_server(data_dir: Path, extra_args: list[str]) -> tuple[subprocess.Popen, str]:
    """Launch ``serve --http 0 --data-dir`` and wait for its listen URL."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            *SERVE_ARGS,
            "--http", "0",
            "--data-dir", str(data_dir),
            *extra_args,
        ],
        cwd=REPO_ROOT,
        env=_subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    lines: queue.Queue = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    collected = []
    while True:
        try:
            line = lines.get(timeout=STARTUP_TIMEOUT)
        except queue.Empty:
            proc.kill()
            pytest.fail(f"server produced no output; saw: {collected!r}")
        if line is None:
            pytest.fail(f"server exited before listening; output: {collected!r}")
        collected.append(line)
        if line.startswith("listening on "):
            return proc, line.split()[2]


def _post_json(url: str, body: dict, timeout: float = 10.0) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _get_json(url: str, timeout: float = 10.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _append_rows(index: int) -> list[dict]:
    """One flights-schema row per batch (values vary per batch)."""
    return [
        {
            "airline": "F9",
            "origin_region": "West",
            "destination_region": "South",
            "season": "Winter",
            "month": "February",
            "time_of_day": "Evening",
            "day_type": "Weekday",
            "cancellation": 0.0,
            "delay_minutes": 30.0 + index,
        }
    ]


def _drive_until_killed(proc: subprocess.Popen, address: str) -> list[int]:
    """POST appends until the server dies; the acked journal seqs."""
    acked: list[int] = []
    for index in range(50):
        if proc.poll() is not None:
            break
        try:
            payload = _post_json(f"{address}/v1/append", {"rows": _append_rows(index)})
        except (urllib.error.URLError, ConnectionError, TimeoutError, OSError):
            # The kill landed mid-request: the batch may or may not be
            # journalled, but it was never acked, so recovery owes us
            # nothing for it.
            break
        if payload.get("journal_seq") is not None:
            acked.append(int(payload["journal_seq"]))
    proc.wait(timeout=EXIT_TIMEOUT)
    return acked


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=REPO_ROOT,
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "failpoint",
    [
        # Torn ack: the record is flushed, the client is never answered.
        "journal.sync:mode=kill,after=2,times=1",
        # Pre-swap crash: acked batches journalled, never applied.
        "swap.commit:mode=kill,times=1",
        # Mid-checkpoint crash: only an ignorable .tmp- manifest remains.
        "checkpoint.save:mode=kill,times=1",
    ],
    ids=["journal-sync", "swap-commit", "checkpoint-save"],
)
def test_sigkill_then_restart_recovers(tmp_path, failpoint):
    data_dir = tmp_path / "state"

    proc, address = _start_server(
        data_dir,
        ["--failpoint", failpoint],
    )
    try:
        acked = _drive_until_killed(proc, address)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=EXIT_TIMEOUT)
    assert proc.returncode == -signal.SIGKILL

    # Durable-ack contract: every acked seq is in the journal's valid
    # prefix and was never dropped.
    scan = read_journal(data_dir / JOURNAL_NAME)
    journalled = {
        int(entry.record["seq"]) for entry in scan.records if entry.kind == "append"
    }
    assert acked, "server died before acking any append"
    assert set(acked) <= journalled
    assert not (set(acked) & scan.dropped_seqs())

    # Independent recovery parity: checkpoint path == pure journal replay.
    verify = _run_cli(
        [
            "recover", *SERVE_ARGS,
            "--data-dir", str(data_dir),
            "--append-rows", "0",
            "--verify",
        ]
    )
    assert verify.returncode == 0, verify.stdout + verify.stderr
    assert "verified: checkpoint recovery matches pure journal replay" in verify.stdout
    summary = json.loads(
        next(
            line for line in verify.stdout.splitlines() if line.startswith("recovery: ")
        ).removeprefix("recovery: ")
    )
    assert summary["next_seq"] > max(acked)

    # The restarted server recovers the same directory and serves again.
    proc, address = _start_server(data_dir, [])
    try:
        payload = _post_json(f"{address}/v1/append", {"rows": _append_rows(99)})
        assert payload["journal_seq"] > max(acked)
        health = _get_json(f"{address}/healthz")
        assert health["status"] in ("ok", "degraded")
        metrics = _get_json(f"{address}/v1/metrics")
        assert metrics["durability"]["data_dir"] == str(data_dir)
        assert metrics["durability"]["next_seq"] > max(acked)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=EXIT_TIMEOUT) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=EXIT_TIMEOUT)
