#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

From the repository root::

    python3 perfbench/spread.py --workload tall-exact --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median — the figure that has to stay under the metric's
``bound`` in ``BENCHMARK.json`` — and flags a deterministic counter that
differed between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    values: dict[str, list[float]] = {}
    counters = set()
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        lines = completed.stdout.strip().splitlines()
        result, context = json.loads(lines[-1]), json.loads(lines[-2])
        counters.add(json.dumps(context["counters"], sort_keys=True))
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if share < bound / 3 else f"  > bound/3 ({bound})")
        print(f"{name:32s} median {median:12.6g}  iqr/median {share:7.4f}{flag}")
    if len(counters) > 1:
        print("deterministic counters differed between runs:")
        for line in sorted(counters):
            print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
