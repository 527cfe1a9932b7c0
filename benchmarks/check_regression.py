"""CI benchmark regression guard: byte ceilings and correctness smokes.

Re-runs the ``--quick`` smoke of ``bench_serving``, ``bench_memory`` and
``bench_serving_service``.  Any smoke whose own self-verification exits
non-zero (store/speech divergence, a lost request) fails the check.
Four figures are gated, all bytes per speech or per session, which are
deterministic for a given workload and interpreter: each fails when it
grows more than ``--tolerance`` (default 30%) above its committed
baseline in ``benchmarks/results/quick/``, or when the fresh run does
not produce it.

Wall-clock claims are not gated here: ``benchmarks/paired.py`` times
the system end to end, calibrated and paired against the base commit.
The fresh JSON of every smoke is written to ``--fresh-dir`` for the
workflow to upload as artifacts.

Usage::

    python benchmarks/check_regression.py                  # gate CI
    python benchmarks/check_regression.py --tolerance 0.5
    python benchmarks/check_regression.py --update-baselines
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BASELINE_DIR = BENCH_DIR / "results" / "quick"

#: The smokes and their gated ceilings: dotted paths into each quick JSON.
SPECS: list[dict] = [
    {
        "name": "serving",
        "metrics": [
            # Arena bytes per speech in the columnar store at the
            # largest quick size: an encoding change that bloats the
            # arenas fails.
            "compact.bytes_per_speech",
            # The dict store's deep-traversed bytes per speech: its
            # index plus the slotted speech objects and their shared
            # (column, value) pairs.
            "compact.dict_bytes_per_speech",
        ],
    },
    {
        "name": "memory",
        "metrics": [
            # tracemalloc bytes the stored speeches retain per speech at
            # the largest quick size: the value objects regaining their
            # __dict__s, or their own copies of the shared (column,
            # value) pairs, each grow it by about 40%.
            "speech_bytes_per_speech",
            # tracemalloc bytes a SessionStore retains per live session
            # after 64 recorded exchanges: a session holding a history
            # of its exchanges again grows it about 80-fold.
            "session_bytes_per_session",
        ],
    },
    # Store parity under background maintenance, journalling and
    # injected faults; no figure is gated.
    {"name": "serving_service", "metrics": []},
]


def metric_value(payload: dict, path: str) -> float | None:
    """The value at a dotted path, or None when the path is absent."""
    node = payload
    for segment in path.split("."):
        try:
            node = node[segment]
        except (KeyError, TypeError):
            return None
    return float(node)


def run_quick(name: str, output: Path) -> bool:
    """Run one benchmark's --quick smoke; False on self-check failure."""
    script = BENCH_DIR / f"bench_{name}.py"
    output.parent.mkdir(parents=True, exist_ok=True)
    result = subprocess.run(
        [sys.executable, str(script), "--quick", "--output", str(output)],
        stdout=subprocess.DEVNULL,
    )
    return result.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional growth above baseline (default 0.30)",
    )
    parser.add_argument(
        "--fresh-dir",
        default=str(BENCH_DIR / "results" / "ci"),
        help="directory for the freshly measured quick JSON",
    )
    parser.add_argument("--only", default=None, help="run a single benchmark by name")
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="rewrite the committed baselines from this machine's run",
    )
    args = parser.parse_args(argv)

    fresh_dir = Path(args.fresh_dir)
    known = [spec["name"] for spec in SPECS]
    if args.only is not None and args.only not in known:
        print(
            f"unknown benchmark {args.only!r}; known: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2
    failures: list[str] = []
    for spec in SPECS:
        name = spec["name"]
        if args.only is not None and name != args.only:
            continue
        fresh_path = fresh_dir / f"{name}.json"
        if not run_quick(name, fresh_path):
            failures.append(f"{name}: --quick smoke failed its self-verification")
            continue
        if not spec["metrics"]:
            print(f"{name}: smoke passed")
            continue
        baseline_path = BASELINE_DIR / f"{name}.json"
        if args.update_baselines:
            shutil.copyfile(fresh_path, baseline_path)
            print(f"{name}: baseline rewritten at {baseline_path}")
            continue
        if not baseline_path.exists():
            failures.append(f"{name}: no committed baseline at {baseline_path}")
            continue
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        for path in spec["metrics"]:
            expected = metric_value(baseline, path)
            measured = metric_value(fresh, path)
            if measured is None or expected is None:
                # A vanished metric is itself a regression; a new one
                # needs its baseline committed (--update-baselines).
                where = "the fresh run" if measured is None else "the committed baseline"
                failures.append(f"{name}.{path}: missing from {where}")
                continue
            ceiling = expected * (1.0 + args.tolerance)
            status = "ok" if measured <= ceiling else "REGRESSION"
            print(
                f"{name}.{path}: baseline {expected:.2f}, measured "
                f"{measured:.2f}, ceiling {ceiling:.2f} -> {status}"
            )
            if measured > ceiling:
                failures.append(
                    f"{name}.{path}: {measured:.2f} > {ceiling:.2f} "
                    f"(baseline {expected:.2f} + {args.tolerance:.0%})"
                )
    if failures:
        print("\nbenchmark regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if not args.update_baselines:
        print("\nbenchmark regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
