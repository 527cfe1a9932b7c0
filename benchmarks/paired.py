"""Paired parent/change runs of the end-to-end benchmark.

Runs ``benchmarks/voice_e2e/run.py`` from two checkouts, the parent
(``--base``) and the change (``--change``), K times each on one
workload.  Pair i runs both sides with seed N + i, and the side that
runs first alternates from pair to pair, so a slow stretch of the host
lands on both.  Each run builds the system from its own checkout
(``PYTHONPATH=<dir>/src``), and its last output line is the JSON
result.

For every end-to-end metric in ``BENCHMARK.json`` it prints each
side's median and quartiles, how many pairs the change won, and
whether the medians differ by more than the parent's interquartile
range.  A change median worse than the parent's by more than the
metric's bound (a share of the parent's median, in the direction
``better`` gives) is a regression.  The exit code is 1 on a regression
or when any run fails an op or its checks, else 0.

Usage (from the repository root)::

    python3 benchmarks/paired.py --base ../parent --change . \\
        --workload ask_mixed --pairs 10 --seconds 15 --seed 100
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = Path("benchmarks") / "voice_e2e" / "run.py"


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``run.py`` run in ``checkout``: its JSON result line, parsed.

    A run that prints no JSON line comes back as a failed result, with
    the tail of its output as the reason.
    """
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    completed = subprocess.run(
        [
            sys.executable,
            str(checkout / RUNNER),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (completed.stderr or completed.stdout).strip().splitlines()[-3:]
        return {"correct": False, "failed": None, "metrics": {}, "error": " | ".join(tail)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def worse_share(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    worse = change - base if better == "lower" else base - change
    if worse <= 0:
        return 0.0
    return worse / abs(base) if base else float("inf")


def compare(base: list[dict], change: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per end-to-end metric over the pairs of (base, change) results."""
    rows = []
    for spec in metrics:
        name, better = spec["name"], spec["better"]
        base_values = [r["metrics"][name]["value"] for r in base]
        change_values = [r["metrics"][name]["value"] for r in change]
        wins = sum(
            (c < b) if better == "lower" else (c > b)
            for b, c in zip(base_values, change_values)
        )
        base_q = quartiles(base_values)
        change_q = quartiles(change_values)
        share = worse_share(base_q[1], change_q[1], better)
        rows.append(
            {
                "name": name,
                "base": base_q,
                "change": change_q,
                "wins": wins,
                "pairs": len(base_values),
                "clear": abs(change_q[1] - base_q[1]) > base_q[2] - base_q[0],
                "worse_share": share,
                "bound": spec["bound"],
                "regressed": share > spec["bound"],
            }
        )
    return rows


def verdict(
    base: list[dict], change: list[dict], metrics: list[dict]
) -> tuple[list[dict], list[str]]:
    """The comparison rows and the problems that fail the run (empty: pass)."""
    problems = []
    for side, results in (("parent", base), ("change", change)):
        for i, result in enumerate(results):
            if not result.get("correct") or result.get("failed"):
                reason = result.get("error") or f"{result.get('failed')} failed ops"
                problems.append(f"{side} run {i}: {reason}")
    if problems:
        return [], problems
    rows = compare(base, change, metrics)
    for row in rows:
        if row["regressed"]:
            problems.append(
                f"{row['name']}: change median {row['change'][1]:.4g} is "
                f"{row['worse_share']:.1%} worse than the parent's "
                f"{row['base'][1]:.4g} (bound {row['bound']:.1%})"
            )
    return rows, problems


def brief(result: dict) -> str:
    """One run's metrics on one line, or why it failed."""
    if "error" in result:
        return "error: " + result["error"]
    values = " ".join(
        f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
    )
    return f"failed={result['failed']} {values}"


def render(rows: list[dict]) -> str:
    lines = [
        f"{'metric':14}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
        f"{'wins':>8}{'>IQR':>6}{'worse':>8}"
    ]
    for row in rows:
        base = "/".join(f"{v:.4g}" for v in row["base"])
        change = "/".join(f"{v:.4g}" for v in row["change"])
        lines.append(
            f"{row['name']:14}{base:>30}{change:>30}"
            f"{row['wins']:>4}/{row['pairs']:<3}{'yes' if row['clear'] else 'no':>6}"
            f"{row['worse_share']:>8.1%}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base_dir, change_dir = args.base.resolve(), args.change.resolve()
    base, change = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        order = [("parent", base_dir, base), ("change", change_dir, change)]
        for side, checkout, results in order if i % 2 == 0 else order[::-1]:
            result = run_once(checkout, args.workload, seed, args.seconds)
            results.append(result)
            print(f"pair {i + 1} seed {seed} {side}: {brief(result)}", flush=True)

    rows, problems = verdict(base, change, metrics)
    print(
        f"{args.workload}: {args.pairs} pairs at --seconds {args.seconds}, "
        f"seeds {args.seed}-{args.seed + args.pairs - 1}"
    )
    if rows:
        print(render(rows))
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
