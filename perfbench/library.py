"""The three library workloads: repeated ``discover()`` on one relation.

Untraced runs time each ``discover()`` call with nothing wrapped.  A
traced run alternates untraced and traced calls; the traced ones run
under :func:`ledger.instrumented`, the median one gives the per-layer
ledger, and the ratio of the two medians is ``trace.overhead_frac``.

Every call is checked after the timed loop: the first result by direct
row grouping (:mod:`checks`) and against the pinned cover digest, every
later result by equality with the first, and the deterministic counters
of all calls must be identical.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

from repro import TaneConfig, discover
from repro._bitset import to_indices

import checks
import inputs
import memory
from ledger import Ledger, instrumented, layer_metrics, run_statistics

__all__ = ["run_library", "CONFIGS"]

# afd-pdep-par runs the process executor with one worker process.  With
# two workers on a 2-vCPU shared host its median swung from 2.7 s to 4.0 s
# within two minutes whenever a neighbour loaded one vCPU (a level waits
# for its slower half), which no bound the benchmark may set covers.  One
# worker still ships every partition through shared memory and merges
# every chunk, and it runs as steadily as the serial workloads.
CONFIGS = {
    "tall-exact": dict(),
    "wide-lattice": dict(),
    "afd-pdep-par": dict(epsilon=0.05, measure="pdep", executor="process", workers=1),
}
# Set-up is repeated at least this often and for at least this long, so
# the median of a sub-millisecond set-up is still a steady figure.
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5
MIN_CALLS = 2
MAX_FAILURES = 3
PINNED = Path(__file__).with_name("pinned.json")
# Spans of the first traced call are written here (git-ignored).
SPANS = Path(__file__).resolve().parent.parent / ".perfbench"


def counters(result) -> dict:
    """The deterministic counters of one discover() result."""
    stats = result.statistics
    return {
        "products": stats.partition_products,
        "tests": stats.validity_tests,
        "error_computations": stats.error_computations,
        "bound_rejections": stats.g3_bound_rejections,
        "level_sizes": list(stats.level_sizes),
        "fds": len(result.dependencies),
        "keys": len(result.keys),
    }


def cover(result) -> tuple[list, list]:
    deps = sorted((tuple(to_indices(fd.lhs)), fd.rhs) for fd in result.dependencies)
    keys = sorted(tuple(to_indices(key)) for key in result.keys)
    return deps, keys


def _problems(workload: str, relation, result, config: dict) -> list[str]:
    """Check one result in full: direct grouping plus the pinned cover."""
    deps, keys = cover(result)
    names = relation.schema.attribute_names
    if workload == "wide-lattice":
        expected = sorted(
            [((2 * i,), 2 * i + 1) for i in range(inputs.TWIN_PAIRS)]
            + [((2 * i + 1,), 2 * i) for i in range(inputs.TWIN_PAIRS)]
        )
        problems = [] if deps == expected and not keys else ["cover is not d_i <-> r_i"]
    else:
        problems = []
    problems += checks.check_cover(
        relation, deps, keys,
        measure=config.get("measure", "g3"), epsilon=config.get("epsilon", 0.0),
    )
    pinned = json.loads(PINNED.read_text()).get(workload)
    digest = checks.cover_digest(deps, keys, names)
    if pinned is not None and digest != pinned:
        problems.append(f"cover digest {digest} != pinned {pinned}")
    return problems


def _traced_call(relation, config):
    ledger = Ledger()
    with instrumented(ledger):
        index = ledger.open("discover", "scheduler")
        try:
            result = discover(relation, config)
        finally:
            ledger.close(index)
    return result, ledger


def run_library(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    config = TaneConfig(**CONFIGS[workload])
    setup_times = []
    while not setup_times or not trace and (
        len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS
    ):
        start = time.perf_counter()
        relation = inputs.library_input(workload, seed)
        setup_times.append(time.perf_counter() - start)

    untraced: list[tuple[float, float, object]] = []  # (wall, peak MiB, result)
    traced: list[tuple[object, Ledger]] = []
    attempted = failed = 0
    # The first call pays one-off costs (the allocator growing its heap,
    # lazy imports); it is checked like every call but not timed.
    warm_up = []
    attempted += 1
    try:
        warm_up.append(discover(relation, config))
    except Exception as error:  # a failed call is counted, not fatal
        failed += 1
        print(f"discover failed: {type(error).__name__}: {error}", flush=True)
    loop_start = time.perf_counter()
    while failed < MAX_FAILURES and (
        time.perf_counter() - loop_start < seconds
        or len(untraced) < (1 if trace else MIN_CALLS)
    ):
        attempted += 1
        gc.collect()  # no garbage of the previous call is collected in this one
        try:
            with memory.peak_rss() as peak:
                start = time.perf_counter()
                result = discover(relation, config)
                wall = time.perf_counter() - start
        except Exception as error:  # a failed call is counted, not fatal
            failed += 1
            print(f"discover failed: {type(error).__name__}: {error}", flush=True)
            continue
        untraced.append((wall, peak.mib, result))
        if trace:
            attempted += 1
            gc.collect()
            try:
                traced.append(_traced_call(relation, config))
            except Exception as error:
                failed += 1
                print(f"traced discover failed: {type(error).__name__}: {error}",
                      flush=True)
    loop_wall = time.perf_counter() - loop_start

    if traced:
        SPANS.mkdir(exist_ok=True)
        (SPANS / f"spans-{workload}-{seed}.json").write_text(json.dumps(traced[0][1].to_json()))

    # -- correctness, outside the timed loop ---------------------------
    results = warm_up + [r for _w, _p, r in untraced] + [r for r, _l in traced]
    if results:
        reference = results[0]
        problems = _problems(workload, relation, reference, CONFIGS[workload])
        if problems:
            print("check failed: " + "; ".join(problems[:5]), flush=True)
            failed += len(results)
        else:
            ref_cover, ref_counters = cover(reference), counters(reference)
            for other in results[1:]:
                if cover(other) != ref_cover or counters(other) != ref_counters:
                    print("a repeated call returned another cover or other counters",
                          flush=True)
                    failed += 1
        determinism = counters(reference)
    else:
        determinism = {}

    walls = [w for w, _p, _r in untraced]
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "discover_s": (statistics.median(walls), "s"),
            "peak_rss_mib": (statistics.median(p for _w, p, _r in untraced), "MiB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
            "req_per_s": (len(walls) / sum(walls), "1/s"),
        }
    else:
        # The ledger of the median traced call, so its layers add up to
        # its own trace.discover_s (medians taken per layer would not).
        layers = sorted((layer_metrics(l, run_statistics([r])) for r, l in traced),
                        key=lambda layer: layer["trace.discover_s"][0])
        metrics = dict(layers[(len(layers) - 1) // 2])
        metrics["trace.overhead_frac"] = (
            metrics["trace.discover_s"][0] / statistics.median(walls) - 1.0, "ratio")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "counters": determinism,
        "calls": {"untraced": len(untraced), "traced": len(traced),
                  "loop_wall_s": loop_wall, "untraced_walls_s": walls},
    }
