#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload tall-exact --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` reports the per-layer ledger instead (see ``README.md``
for the workloads, the metrics and which layer should move which
end-to-end metric).  The line before the last one is a JSON record of
the run's context: hardware, versions, seed, source identity and the
deterministic counters.  The last line is the result::

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("tall-exact", "wide-lattice", "afd-pdep-par", "service-mix")


def _source_digest() -> str:
    """sha256 over the program's Python sources (the checkout may have no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def context(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Hardware and software stamp of one run."""
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _children() -> list[int]:
    """Pids of this process's live or unreaped children (Linux ``/proc``)."""
    pids = []
    for task in Path("/proc/self/task").glob("*"):
        try:
            pids += [int(pid) for pid in (task / "children").read_text().split()]
        except (OSError, ValueError):
            pass
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    ``multiprocessing`` starts a resource-tracker process the first time
    a shared-memory block is made (the process executor ships
    partitions that way).  Nothing waits for it: it ends on its own only
    once this process has exited, so it would outlive the run.  Stop it
    the documented way, by closing its pipe, then terminate and reap any
    other child that is left.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, OSError):
        pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pending = _children()
        for pid in pending:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        while pending and time.monotonic() < deadline:
            for pid in list(pending):
                try:
                    done, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    pending.remove(pid)
            if pending:
                time.sleep(0.05)
        if not pending:
            return


def complete(metrics: dict, trace: bool) -> dict:
    """Every metric ``BENCHMARK.json`` declares for this kind of run.

    A per-layer metric a workload does not exercise (the executor on a
    serial workload, the service on a library one) reads 0, which is
    also the prediction that it does not move there.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace else "end_to_end"]
    unknown = set(metrics) - {entry["name"] for entry in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    missing = [e["name"] for e in wanted if e["name"] not in metrics]
    if missing and not trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    return {
        entry["name"]: {"value": float(metrics.get(entry["name"], (0.0,))[0]),
                        "unit": entry["unit"]}
        for entry in wanted
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A SIGTERM (a driver's timeout) unwinds like an exception, so the
    # ``finally`` below still stops the processes this run started.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    stamp = context(args.workload, args.seed, args.seconds, trace)
    try:
        if args.workload == "service-mix":
            from service import run_service

            outcome = run_service(args.seed, args.seconds, trace, SRC)
        else:
            from library import run_library

            outcome = run_library(args.workload, args.seed, args.seconds, trace)
    finally:
        stop_children()

    print(json.dumps({"context": stamp, "counters": outcome["counters"],
                      "calls": outcome.get("calls", {})}, sort_keys=True))
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": complete(outcome["metrics"], trace),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
