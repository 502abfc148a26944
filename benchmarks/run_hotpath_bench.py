"""Single-core hot-path benchmark: cold run vs warm partition cache.

Usage::

    PYTHONPATH=src python benchmarks/run_hotpath_bench.py
        [--target-rows 30000] [--repeats 5] [--cache-levels 3]

Runs serial exact discovery on the wisconsin shape replicated to
``target-rows`` (the same recipe as ``run_refactor_overhead.py``)
in two configurations:

* ``cold`` — the default configuration: every run computes its own
  partitions;
* ``warm_cache`` — a pre-warmed private
  :class:`~repro.partition.cache.PartitionCache` holding the low
  lattice levels, the steady state of repeated discovery over one
  relation (verification matrix, sweeps, resumed runs).

Both must return identical dependencies (asserted); the JSON written
to ``benchmarks/results/BENCH_hotpath.json`` records every sample plus
the medians and ``cache_improvement``, the cold median over the warm
one, measured in one process — ``tools/check_bench_regression.py``
gates CI on that ratio, which transfers across hosts where absolute
seconds do not.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.core.tane import TaneConfig, discover
from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.uci import make_wisconsin_like
from repro.partition.cache import PartitionCache

RESULTS = Path(__file__).parent / "results"
IMPROVEMENT_THRESHOLD = 1.3
"""The warm-cache run must beat the cold run by at least this factor on
the reference workload."""


def build_relation(target_rows: int):
    base = make_wisconsin_like(seed=0)
    copies = -(-target_rows // base.num_rows)  # ceil division
    return replicate_with_unique_suffix(base, copies)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target-rows", type=int, default=30000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--cache-levels", type=int, default=3)
    args = parser.parse_args(argv)

    relation = build_relation(args.target_rows)
    print(f"workload: {relation.num_rows} rows x {relation.num_attributes} attrs")

    cache = PartitionCache()
    warm_config = TaneConfig(
        partition_cache=cache, partition_cache_levels=args.cache_levels
    )
    discover(relation, warm_config)  # populate the cache once
    configs = {"cold": TaneConfig(), "warm_cache": warm_config}
    samples: dict[str, list[float]] = {name: [] for name in configs}
    results = {}
    # Alternate the two configurations so host drift over the run
    # affects both medians alike instead of skewing their ratio.
    for _ in range(args.repeats):
        for name, config in configs.items():
            start = time.perf_counter()
            results[name] = discover(relation, config)
            samples[name].append(time.perf_counter() - start)
    runs: dict[str, dict[str, object]] = {}
    dependency_counts: dict[str, int] = {}
    for name, result in results.items():
        median = statistics.median(samples[name])
        stats = result.statistics
        runs[name] = {
            "runs_s": [round(s, 4) for s in samples[name]],
            "median_s": median,
            "partition_products": stats.partition_products,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        }
        dependency_counts[name] = len(result.dependencies)
        print(f"{name:>11}: median {median:.4f}s over {args.repeats} runs "
              f"(products={stats.partition_products}, hits={stats.cache_hits})")

    cache_ratio = runs["cold"]["median_s"] / runs["warm_cache"]["median_s"]

    payload = {
        "benchmark": "hotpath",
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "workload": {
            "dataset": "wisconsin, unique-suffix replicated",
            "rows": relation.num_rows,
            "attributes": relation.num_attributes,
            "repeats": args.repeats,
            "cache_levels": args.cache_levels,
            "config": "serial, exact, memory store",
        },
        "runs": runs,
        "dependencies": dependency_counts["cold"],
        "cache_improvement": round(cache_ratio, 4),
        "improvement_threshold": IMPROVEMENT_THRESHOLD,
        "within_threshold": cache_ratio >= IMPROVEMENT_THRESHOLD,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "BENCH_hotpath.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print(f"warm cache: {cache_ratio:.3f}x vs cold "
          f"(threshold {IMPROVEMENT_THRESHOLD}x)")
    print(f"written: {out}")
    if len(set(dependency_counts.values())) != 1:
        print(f"FAIL: dependency counts diverged: {dependency_counts}",
              file=sys.stderr)
        return 1
    if cache_ratio < IMPROVEMENT_THRESHOLD:
        print(f"FAIL: cache improvement {cache_ratio:.3f}x < "
              f"{IMPROVEMENT_THRESHOLD}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
