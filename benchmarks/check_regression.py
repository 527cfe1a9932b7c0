"""CI benchmark regression guard.

Re-runs every benchmark's ``--quick`` smoke and compares its throughput
metrics against the committed baselines in ``benchmarks/results/quick/``.
A metric that drops more than ``--tolerance`` (default 30%) below its
baseline fails the check, and any smoke whose own self-verification
exits non-zero (store/speech divergence) fails immediately.  A gated
metric present in the fresh run but missing from the committed
baseline is printed as skipped (regenerate with ``--update-baselines``)
rather than crashing; one missing from the *fresh* run fails.

Most gated metrics are *ratios* — speedups of one code path over
another measured in the same process — because they are comparatively
stable across machines, unlike absolute wall-clock numbers, which
differ between the container that committed the baselines and whatever
runner CI lands on.  A metric may instead declare
``"direction": "lower_is_better"``, which flips the gate into a
*ceiling*: the measured value fails when it grows more than the
tolerance above its baseline.  That is reserved for machine-independent
absolutes such as ``compact.bytes_per_speech``,
``memory.speech_bytes_per_speech`` and
``memory.session_bytes_per_session`` (arena and object bytes are
deterministic for a given workload, so a bloated encoding is a real
regression, not runner noise).  Non-gated context numbers (absolute
seconds, the pool-reuse amortisation, which depends on core count) are
still captured in the fresh JSON written to ``--fresh-dir`` for the
workflow to upload as artifacts.

Usage::

    python benchmarks/check_regression.py                  # gate CI
    python benchmarks/check_regression.py --tolerance 0.5
    python benchmarks/check_regression.py --update-baselines
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BASELINE_DIR = BENCH_DIR / "results" / "quick"

#: Gated throughput metrics per benchmark: dotted paths into the quick
#: JSON (integer segments index into lists).  All are same-process
#: speedup ratios.  A metric may widen the default ``--tolerance`` when
#: its quick measurement is short enough (milliseconds) that scheduler
#: noise on a shared runner moves the ratio; the floor still catches a
#: real regression, which collapses such ratios toward 1.
SPECS: list[dict] = [
    {
        "name": "optimizer_kernels",
        "metrics": [
            {"path": "greedy_kernel.speedup_vs_reference"},
            {"path": "lazy_greedy.speedup_vs_reference"},
        ],
    },
    {
        "name": "preprocessing",
        "metrics": [{"path": "fact_generation.speedup"}],
    },
    {
        "name": "serving",
        "metrics": [
            {"path": "sweep.0.speedup", "tolerance": 0.5},
            {"path": "sweep.1.speedup", "tolerance": 0.5},
            # Arena bytes per speech in the columnar store at the
            # largest quick size.  Deterministic for a given workload
            # (no wall clock involved), so it is gated as an absolute
            # with a ceiling: an encoding change that bloats the arenas
            # by >30% fails even if every speedup ratio still passes.
            {"path": "compact.bytes_per_speech", "direction": "lower_is_better"},
            # Deep-traversed dict-store bytes / compact arena bytes.
            # Guards the headline claim that the columnar layout is
            # several times smaller than the dict store it mirrors.
            {"path": "compact.compression_ratio"},
            # The dict store's deep-traversed bytes per speech: its
            # index plus the slotted speech objects and their shared
            # (column, value) pairs.  Deterministic, so a ceiling: the
            # ratio above falls when this graph shrinks, and this gate
            # is what keeps it small.
            {"path": "compact.dict_bytes_per_speech", "direction": "lower_is_better"},
            # Compacting the largest quick store from scratch / from the
            # previous version's compaction after an append's worth of
            # replaced speeches.  The incremental side takes a few
            # milliseconds, hence the wider tolerance; losing the
            # incremental path collapses the ratio toward 1.
            {"path": "compact.incremental_speedup", "tolerance": 0.5},
        ],
    },
    {
        # tracemalloc bytes the stored speeches retain per speech at
        # the largest quick size.  Deterministic for a given workload
        # and interpreter, so a ceiling, measured once: the value
        # objects regaining their __dict__s, or their own copies of the
        # shared (column, value) pairs, each grow it by about 40%.
        "name": "memory",
        "metrics": [
            {"path": "speech_bytes_per_speech", "direction": "lower_is_better"},
            # tracemalloc bytes a SessionStore retains per live session
            # after 64 recorded exchanges: a session holding a history
            # of its exchanges again grows it about 80-fold.
            {"path": "session_bytes_per_session", "direction": "lower_is_better"},
        ],
    },
    {
        "name": "incremental",
        "metrics": [{"path": "discovery.speedup", "tolerance": 0.5}],
    },
    {
        # throughput_ratio = qps while a background maintenance pass
        # runs / qps serving alone.  Noise moves it tens of percent;
        # the regression it guards (serving blocking on maintenance)
        # collapses it toward stream/maintenance-duration, ~0.1.  The
        # smoke also self-verifies store parity and zero request errors.
        # http.throughput_ratio = end-to-end qps through the public
        # HTTP front-end (HttpClient -> VoiceHttpServer over real
        # sockets) / in-process qps on the same request stream — guards
        # the envelope + transport layer staying cheap relative to the
        # engine; a serialization-heavy regression collapses it.
        "name": "serving_service",
        "metrics": [
            {"path": "throughput_ratio", "tolerance": 0.5},
            {"path": "http.throughput_ratio", "tolerance": 0.5},
            # qps with the write-ahead journal on / qps with it off, on
            # the identical stream-plus-appends workload.  Guards the
            # durability layer staying off the request path: a journal
            # write leaking into request latency (or an fsync sneaking
            # into the default flush-only mode) collapses it.  The
            # smoke also self-verifies cold-recovery store parity.
            {"path": "durability.throughput_ratio", "tolerance": 0.5},
        ],
    },
]


def metric_value(payload: dict, path: str) -> float | None:
    """The value at a dotted path, or None when the path is absent."""
    node = payload
    for segment in path.split("."):
        try:
            node = node[int(segment)] if segment.isdigit() else node[segment]
        except (KeyError, IndexError, TypeError):
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
        help="allowed fractional drop below baseline (default 0.30)",
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
    if args.update_baselines:
        fresh_dir = BASELINE_DIR
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
        if args.update_baselines:
            print(f"{name}: baseline rewritten at {fresh_path}")
            continue
        baseline_path = BASELINE_DIR / f"{name}.json"
        if not baseline_path.exists():
            failures.append(f"{name}: no committed baseline at {baseline_path}")
            continue
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        for metric in spec["metrics"]:
            path = metric["path"]
            tolerance = max(args.tolerance, metric.get("tolerance", 0.0))
            expected = metric_value(baseline, path)
            measured = metric_value(fresh, path)
            if measured is None:
                # The fresh run must produce every gated metric — a
                # silently vanished metric is itself a regression.
                failures.append(f"{name}.{path}: missing from the fresh run")
                continue
            if expected is None:
                # A metric newer than the committed baseline: report it
                # visibly as skipped instead of crashing, so a PR that
                # adds a gate without regenerating baselines is loud but
                # not broken.
                print(
                    f"{name}.{path}: skipped — measured {measured:.2f} but "
                    "metric is missing from the committed baseline "
                    "(regenerate with --update-baselines)"
                )
                continue
            if metric.get("direction") == "lower_is_better":
                ceiling = expected * (1.0 + tolerance)
                status = "ok" if measured <= ceiling else "REGRESSION"
                print(
                    f"{name}.{path}: baseline {expected:.2f}, measured "
                    f"{measured:.2f}, ceiling {ceiling:.2f} -> {status}"
                )
                if measured > ceiling:
                    failures.append(
                        f"{name}.{path}: {measured:.2f} > {ceiling:.2f} "
                        f"(baseline {expected:.2f} + {tolerance:.0%})"
                    )
                continue
            floor = expected * (1.0 - tolerance)
            status = "ok" if measured >= floor else "REGRESSION"
            line = (
                f"{name}.{path}: baseline {expected:.2f}, measured "
                f"{measured:.2f}, floor {floor:.2f} -> {status}"
            )
            print(line)
            if measured < floor:
                detail = (
                    f"{name}.{path}: {measured:.2f} < {floor:.2f} "
                    f"(baseline {expected:.2f} - {tolerance:.0%})"
                )
                failures.append(detail)
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
