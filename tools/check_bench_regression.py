#!/usr/bin/env python3
"""CI gate for the single-core hot-path benchmark.

Re-runs ``benchmarks/run_hotpath_bench.py`` on the current checkout
and compares the measured *cache improvement ratio* against the
committed ``benchmarks/results/BENCH_hotpath.json``.  The ratio — a
cold run's time over a warm-partition-cache run's, measured in the
same process on the same machine — transfers across hosts, where the
absolute seconds recorded on the committing machine do not.

The gate fails when the fresh cache improvement drops more than
``TOLERANCE_PCT`` percent below the committed one (someone slowed the
cache path, or made the work it saves cheaper), or when the fresh run
itself fails (parity drift, threshold miss).

It also re-runs the progress-event overhead measurement
(``benchmarks/run_obs_overhead.py --events-only``) and fails when the
disabled path exceeds 0.1% or the events-enabled path exceeds 2% —
the acceptance bars recorded in
``benchmarks/results/BENCH_obs_events_overhead.json``.

It also re-runs the service load driver
(``benchmarks/run_service_bench.py --smoke --check``), which fails on
the host-portable invariants: any failed request, duplicate discovery
work under concurrent identical requests (single-flight), or a
cache-hit ratio below the request mix's floor.

It also re-runs the measure-suite benchmark
(``benchmarks/run_measure_bench.py --smoke --check``), which fails
when any registered measure stops recovering planted dependencies
under cell corruption (recall below 1.0) or lets corrupted-in noise
dominate its top-k (precision@k below the floor).

Finally it re-runs the traversal-strategy benchmark
(``benchmarks/run_strategy_bench.py --smoke --check``), which fails
when the dfd random walk stops producing the levelwise cover or
stops visiting fewer lattice nodes than the level sweep on the
twin-column workload — the structural claim the strategy exists for.

Usage::

    python tools/check_bench_regression.py [--repeats 5] [--target-rows 30000]
        [--skip-events] [--skip-service] [--skip-measures] [--skip-strategy]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COMMITTED = REPO / "benchmarks" / "results" / "BENCH_hotpath.json"
TOLERANCE_PCT = 10.0


def run_fresh(repeats: int, target_rows: int) -> dict:
    """Run the hotpath benchmark into a scratch results file."""
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        # The bench writes next to its own file; run a copy in scratch
        # so the committed JSON is never overwritten by the gate.
        script = Path(scratch) / "run_hotpath_bench.py"
        script.write_text(
            (REPO / "benchmarks" / "run_hotpath_bench.py").read_text(
                encoding="utf-8"
            ),
            encoding="utf-8",
        )
        completed = subprocess.run(
            [
                sys.executable,
                str(script),
                "--repeats",
                str(repeats),
                "--target-rows",
                str(target_rows),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            raise SystemExit(
                f"fresh benchmark run failed (exit {completed.returncode})"
            )
        return json.loads(
            (Path(scratch) / "results" / "BENCH_hotpath.json").read_text(
                encoding="utf-8"
            )
        )


def run_events_gate(repeats: int) -> bool:
    """Re-measure the progress-event overhead; True when within bars.

    The measurement script enforces its own thresholds (disabled
    <= 0.1%, enabled <= 2%) and exits non-zero past either bar; the
    fresh JSON goes to scratch so the committed artifact is preserved.
    """
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        completed = subprocess.run(
            [
                sys.executable,
                str(REPO / "benchmarks" / "run_obs_overhead.py"),
                "--events-only",
                "--repeats",
                str(repeats),
                "--events-output",
                str(Path(scratch) / "BENCH_obs_events_overhead.json"),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        return completed.returncode == 0


def run_service_gate() -> bool:
    """Re-run the service load bench in check mode; True when clean.

    The driver enforces its own invariants (zero errors, one discovery
    per unique key, warm-cache hit ratio) and exits non-zero past any;
    the fresh JSON goes to scratch so the committed artifact survives.
    """
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        completed = subprocess.run(
            [
                sys.executable,
                str(REPO / "benchmarks" / "run_service_bench.py"),
                "--smoke",
                "--check",
                "--output",
                str(Path(scratch) / "BENCH_service_throughput.json"),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        return completed.returncode == 0


def run_measures_gate() -> bool:
    """Re-run the measure-suite bench in check mode; True when clean.

    The driver enforces its own invariants (every measure recovers
    every planted FD; precision@k above its floor) and exits non-zero
    past any; the fresh JSON goes to scratch so the committed artifact
    survives.
    """
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        completed = subprocess.run(
            [
                sys.executable,
                str(REPO / "benchmarks" / "run_measure_bench.py"),
                "--smoke",
                "--check",
                "--output",
                str(Path(scratch) / "BENCH_measures.json"),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        return completed.returncode == 0


def run_strategy_gate() -> bool:
    """Re-run the strategy bench in check mode; True when clean.

    The driver enforces its own invariants (dfd cover equals the
    levelwise cover; dfd visits strictly fewer nodes) and exits
    non-zero past either; the fresh JSON goes to scratch so the
    committed artifact survives.
    """
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        completed = subprocess.run(
            [
                sys.executable,
                str(REPO / "benchmarks" / "run_strategy_bench.py"),
                "--smoke",
                "--check",
                "--output",
                str(Path(scratch) / "BENCH_strategy.json"),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        return completed.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--target-rows", type=int, default=30000)
    parser.add_argument(
        "--tolerance-pct",
        type=float,
        default=TOLERANCE_PCT,
        help="allowed drop of the cache improvement ratio, in percent",
    )
    parser.add_argument(
        "--skip-events",
        action="store_true",
        help="skip the progress-event overhead gate",
    )
    parser.add_argument(
        "--skip-service",
        action="store_true",
        help="skip the service load-driver gate",
    )
    parser.add_argument(
        "--skip-measures",
        action="store_true",
        help="skip the measure-suite planted-recovery gate",
    )
    parser.add_argument(
        "--skip-strategy",
        action="store_true",
        help="skip the dfd-beats-levelwise strategy gate",
    )
    args = parser.parse_args(argv)

    if not COMMITTED.exists():
        print(f"no committed baseline at {COMMITTED}", file=sys.stderr)
        return 1
    committed = json.loads(COMMITTED.read_text(encoding="utf-8"))
    fresh = run_fresh(args.repeats, args.target_rows)

    committed_ratio = float(committed["cache_improvement"])
    fresh_ratio = float(fresh["cache_improvement"])
    floor = committed_ratio * (1.0 - args.tolerance_pct / 100.0)
    print(
        f"cache improvement: committed {committed_ratio:.3f}x, "
        f"fresh {fresh_ratio:.3f}x, floor {floor:.3f}x "
        f"(-{args.tolerance_pct:.0f}%)"
    )
    if fresh_ratio < floor:
        print(
            f"FAIL: hot-path improvement regressed: {fresh_ratio:.3f}x "
            f"< {floor:.3f}x",
            file=sys.stderr,
        )
        return 1
    if not args.skip_events and not run_events_gate(args.repeats):
        print("FAIL: progress-event overhead exceeded its bars", file=sys.stderr)
        return 1
    if not args.skip_service and not run_service_gate():
        print(
            "FAIL: service load driver violated its invariants",
            file=sys.stderr,
        )
        return 1
    if not args.skip_measures and not run_measures_gate():
        print(
            "FAIL: measure suite stopped recovering planted dependencies",
            file=sys.stderr,
        )
        return 1
    if not args.skip_strategy and not run_strategy_gate():
        print(
            "FAIL: dfd strategy lost its node advantage or its cover parity",
            file=sys.stderr,
        )
        return 1
    print("bench regression gate: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
