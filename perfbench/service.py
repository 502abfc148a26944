"""The ``service-mix`` workload: a closed loop against ``repro serve``.

Every run starts fresh ``repro serve`` subprocesses on ephemeral ports
(set-up is repeated and its median reported) and stops each with SIGINT,
requiring it to exit cleanly, so no cache or process outlives a run.

Two datasets are registered: wisconsin x8 and adult at 5,000 rows.
There are twelve (dataset, config) keys: epsilon in {0, 0.01, 0.05} x
``max_lhs_size`` in {none, 3}.  The seeded schedule is a sequence of
phases with a fixed make-up, so every run executes exactly the same
discoveries (see :func:`schedule`):

* phase 0 asks for every key once (twelve first discoveries), then
  ``PHASE0_REPEATS`` seeded repeats, which are result-cache hits;
* each later phase starts with a write that re-registers wisconsin,
  switching between the original and a seeded small edit (which drops
  that dataset's cached results and partitions), then asks for the six
  wisconsin keys while ``HITS_BESIDE_MISSES`` adult hits run beside
  them, then ``PHASE_REPEATS`` seeded repeats of all keys.

Writes run alone.  Two closed-loop client threads send the requests,
each its next one when the previous one has answered; the first-time
requests of a phase come from one client, so discoveries never overlap
each other.  Responses are checked after the loop: every
distinct payload returned for a (dataset version, config) must hold the
library's ``discover()`` cover, errors and keys on the same CSV.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro import TaneConfig, discover
from repro.datasets.csvio import read_csv_text

import inputs
import memory

__all__ = ["run_service"]

CLIENTS = 2
SERVER_WORKERS = 4
SETUP_REPEATS = 3
PHASE0_REPEATS = 240
PHASE_REPEATS = 120
HITS_BESIDE_MISSES = 40
SECONDS_PER_PHASE = 5.0
REQUEST_TIMEOUT = 120.0
SHUTDOWN_TIMEOUT = 30.0
CONFIGS = tuple(
    {"epsilon": epsilon, "max_lhs_size": lhs}
    for epsilon in (0.0, 0.01, 0.05)
    for lhs in (None, 3)
)
DATASETS = ("wisconsin", "adult")
EDITED = "wisconsin"
URL_PREFIX = "serving discovery API at "
HERE = Path(__file__).resolve().parent


# -- server lifecycle ----------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, src: Path, ledger_path: Path | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        serve = ["serve", "--port", "0", "--workers", str(SERVER_WORKERS)]
        if ledger_path is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(ledger_path), str(src), *serve]
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, text=True,
        )
        timer = threading.Timer(60.0, self.process.kill)
        timer.start()
        try:
            line = self.process.stdout.readline()
        finally:
            timer.cancel()
        if not line.startswith(URL_PREFIX):
            self.stop()
            raise RuntimeError(f"server did not announce its URL: {line!r}")
        host_port = line[len(URL_PREFIX):].strip().split("//", 1)[1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def peak_rss_mib(self) -> float:
        return memory.vm_hwm_kib(self.process.pid) / 1024.0

    def stop(self) -> bool:
        """SIGINT, then require the process to have exited with status 0."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=SHUTDOWN_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                return False
        self.process.stdout.close()
        return self.process.returncode == 0


def _post(connection: http.client.HTTPConnection, path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    connection.request("POST", path, body, {"Content-Type": "application/json"})
    response = connection.getresponse()
    data = response.read()
    if response.status != 200:
        raise RuntimeError(f"POST {path} -> {response.status}: {data[:200]!r}")
    return data


def _get(host: str, port: int, path: str) -> dict:
    connection = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def _register(server: Server, name: str, csv_text: str) -> dict:
    connection = http.client.HTTPConnection(server.host, server.port, timeout=REQUEST_TIMEOUT)
    try:
        return json.loads(_post(connection, "/datasets", {"name": name, "csv": csv_text}))
    finally:
        connection.close()


def _setup(seed: int, src: Path, ledger_path: Path | None = None):
    """Inputs, encoding, a fresh server, and both registrations."""
    relations = inputs.service_inputs(seed)
    csv = {name: [inputs.to_csv(relation)] for name, relation in relations.items()}
    csv[EDITED].append(inputs.to_csv(inputs.edited(relations[EDITED], seed)))
    server = Server(src, ledger_path)
    try:
        for name in DATASETS:
            _register(server, name, csv[name][0])
    except Exception:
        server.stop()
        raise
    return server, csv


# -- schedule --------------------------------------------------------------


def schedule(seed: int, seconds: float) -> list[dict]:
    """The phases of a run: a write (all but phase 0), then two stages.

    Stage ``fresh``: client 0 asks for the keys not yet cached, one at a
    time, so no two discoveries overlap; client 1 meanwhile sends
    repeats of cached adult keys (hits that wait on the GIL while the
    miss computes).  Stage ``repeats``: both clients share seeded
    repeats of all twelve keys.
    """
    rng = np.random.default_rng([seed, 11])
    keys = [(name, index) for name in DATASETS for index in range(len(CONFIGS))]
    adult = [key for key in keys if key[0] != EDITED]
    phases = []
    for phase in range(1 + max(1, int(seconds // SECONDS_PER_PHASE))):
        fresh = keys if phase == 0 else [key for key in keys if key[0] == EDITED]
        beside = [] if phase == 0 else [
            adult[i] for i in rng.integers(len(adult), size=HITS_BESIDE_MISSES)]
        repeats = PHASE0_REPEATS if phase == 0 else PHASE_REPEATS
        phases.append({
            "write": phase > 0,
            "fresh": [[fresh[i] for i in rng.permutation(len(fresh))], beside],
            "repeats": [keys[i] for i in rng.integers(len(keys), size=repeats)],
        })
    return phases


_RESULT = b'"result": '


def _split(body: bytes) -> tuple[dict, str, bytes]:
    """Job snapshot head, digest and bytes of the ``result`` payload.

    The result is the last field of a snapshot, so the head is parsed
    without the (large) payload; otherwise the whole body is parsed.
    """
    at = body.find(_RESULT)
    if at >= 0:
        try:
            head = json.loads(body[:at] + b'"result": null}')
            tail = body[at + len(_RESULT):-1]
            return head, hashlib.sha256(tail).hexdigest(), tail
        except json.JSONDecodeError:
            pass
    snapshot = json.loads(body)
    tail = json.dumps(snapshot.get("result"), sort_keys=True).encode("utf-8")
    return snapshot, hashlib.sha256(tail).hexdigest(), tail


def _client(server: Server, queue: list, version: dict, records: list,
            payloads: dict) -> None:
    """One closed-loop client: the next request when the last has answered.

    ``queue`` may be shared with the other client (``list.pop`` is
    atomic); records and payloads are shared too.
    """
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=REQUEST_TIMEOUT)
    try:
        while True:
            try:
                dataset, config_index = queue.pop()
            except IndexError:
                return
            record = {"kind": "discover", "dataset": dataset,
                      "version": version[dataset], "config": config_index, "ok": False}
            began = time.perf_counter()
            try:
                body = _post(connection, "/discover", {
                    "dataset": dataset, "config": CONFIGS[config_index],
                    "wait": True, "timeout": REQUEST_TIMEOUT})
                record["latency"] = time.perf_counter() - began
                head, digest, tail = _split(body)
                payloads.setdefault(digest, tail)
                record.update(
                    ok=head.get("status") == "done", digest=digest,
                    hit=bool(head.get("cache_hit")), created=head.get("created_at"),
                    started=head.get("started_at"), finished=head.get("finished_at"))
            except (OSError, RuntimeError, ValueError, http.client.HTTPException) as error:
                record["latency"] = time.perf_counter() - began
                print(f"request failed: {error}", flush=True)
                connection.close()
                connection = http.client.HTTPConnection(
                    server.host, server.port, timeout=REQUEST_TIMEOUT)
            records.append(record)
    finally:
        connection.close()


def run_schedule(server: Server, csv: dict, phases) -> dict:
    """Drive every phase; return request records and the wall time."""
    records: list[dict] = []
    payloads: dict[str, bytes] = {}
    version = {name: 0 for name in DATASETS}
    start = time.perf_counter()
    for phase in phases:
        if phase["write"]:
            version[EDITED] = 1 - version[EDITED]
            began = time.perf_counter()
            try:
                summary = _register(server, EDITED, csv[EDITED][version[EDITED]])
                ok = bool(summary.get("replaced"))
            except (OSError, RuntimeError, ValueError) as error:
                print(f"write failed: {error}", flush=True)
                ok = False
            records.append({"kind": "write", "latency": time.perf_counter() - began,
                            "ok": ok})
        current = dict(version)
        shared = list(reversed(phase["repeats"]))
        for queues in ([list(reversed(q)) for q in phase["fresh"]], [shared] * CLIENTS):
            threads = [
                threading.Thread(target=_client,
                                 args=(server, queue, current, records, payloads))
                for queue in queues
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    return {"records": records, "payloads": payloads,
            "wall": time.perf_counter() - start}


# -- correctness -------------------------------------------------------------


def _canonical_library(csv_text: str, config: dict):
    result = discover(read_csv_text(csv_text), TaneConfig(**config))
    names = result.schema.attribute_names
    deps = sorted(
        (tuple(result.schema.names_of(fd.lhs)), names[fd.rhs], fd.error)
        for fd in result.dependencies
    )
    keys = sorted(tuple(key) for key in result.key_names())
    return deps, keys


def _canonical_payload(tail: bytes):
    payload = json.loads(tail)
    deps = sorted(
        (tuple(d["lhs"]), d["rhs"], d["error"]) for d in payload["dependencies"]
    )
    keys = sorted(tuple(key) for key in payload["keys"])
    return deps, keys


def library_results(runs: list[dict], csv: dict) -> dict:
    """The library's canonical result for every (dataset, version, config)
    the runs asked for."""
    keys = {
        (r["dataset"], r["version"], r["config"])
        for run in runs for r in run["records"] if r["kind"] == "discover"
    }
    return {
        (dataset, version, config): _canonical_library(csv[dataset][version],
                                                       CONFIGS[config])
        for dataset, version, config in keys
    }


def check(run: dict, expected: dict) -> int:
    """Failed operations: errors, and responses unequal to the library's."""
    failed = 0
    groups: dict[tuple, list[dict]] = {}
    for record in run["records"]:
        if not record["ok"]:
            failed += 1
        elif record["kind"] == "discover":
            key = (record["dataset"], record["version"], record["config"], record["digest"])
            groups.setdefault(key, []).append(record)
    for (dataset, version, config_index, digest), records in sorted(groups.items()):
        # One digest per computed payload: a recomputation after a write
        # carries new timing statistics, but must hold the same cover.
        if _canonical_payload(run["payloads"][digest]) != expected[(dataset, version, config_index)]:
            print(f"service result differs from the library: {dataset} v{version} "
                  f"{CONFIGS[config_index]}", flush=True)
            failed += len(records)
    return failed


# -- metrics -------------------------------------------------------------------


def _percentile(values: list[float], share: float) -> float:
    return float(np.percentile(values, share * 100.0)) if values else 0.0


def _serve_metrics(run: dict, stats: dict) -> dict:
    records = [r for r in run["records"] if r["kind"] == "discover" and r["ok"]]
    hits = [r for r in records if r["hit"]]
    misses = [r for r in records if not r["hit"]]
    writes = [r["latency"] for r in run["records"] if r["kind"] == "write" and r["ok"]]
    ms = 1000.0
    return {
        "serve.hit_p50_ms": (_percentile([r["latency"] for r in hits], 0.5) * ms, "ms"),
        "serve.hit_p95_ms": (_percentile([r["latency"] for r in hits], 0.95) * ms, "ms"),
        "serve.miss_p50_ms": (_percentile([r["latency"] for r in misses], 0.5) * ms, "ms"),
        "serve.register_p50_ms": (_percentile(writes, 0.5) * ms, "ms"),
        "serve.queue_wait_ms": (
            _percentile([r["started"] - r["created"] for r in records], 0.5) * ms, "ms"),
        "serve.run_ms": (
            _percentile([r["finished"] - r["started"] for r in hits], 0.5) * ms, "ms"),
        "serve.http_ms": (_percentile(
            [r["latency"] - (r["finished"] - r["created"]) for r in records], 0.5) * ms,
            "ms"),
        "serve.result_hit_ratio": (len(hits) / len(records) if records else 0.0, "ratio"),
        "serve.discoveries_n": (
            stats.get("counters", {}).get("service.discoveries_executed", 0), "count"),
        "cache.partition_hits_n": (stats.get("partition_cache", {}).get("hits", 0), "count"),
        "cache.partition_misses_n": (
            stats.get("partition_cache", {}).get("misses", 0), "count"),
    }


def _miss_run_s(run: dict) -> float:
    """Mean server-side run time of the requests that ran a discovery.

    The misses are a fixed mix of twelve keys whose costs differ tenfold,
    so their median jumps between cost clusters; the mean over the fixed
    mix is steady.
    """
    return statistics.fmean(
        r["finished"] - r["started"] for r in run["records"]
        if r["kind"] == "discover" and r["ok"] and not r["hit"]
    )


def _measured(server: Server, csv: dict, phases) -> tuple[dict, dict, float]:
    """Run the schedule, then read /stats and the peak RSS, then stop."""
    try:
        run = run_schedule(server, csv, phases)
        stats = _get(server.host, server.port, "/stats")
        peak = server.peak_rss_mib()
    finally:
        stopped = server.stop()
    if not stopped:
        run["records"].append({"kind": "shutdown", "ok": False})
    return run, stats, peak


def run_service(seed: int, seconds: float, trace: bool, src: Path) -> dict:
    phases = schedule(seed, seconds)
    setup_times = []
    shutdown_failures = 0
    for repeat in range(1 if trace else SETUP_REPEATS):
        began = time.perf_counter()
        server, csv = _setup(seed, src)
        setup_times.append(time.perf_counter() - began)
        if repeat < (0 if trace else SETUP_REPEATS - 1):
            shutdown_failures += not server.stop()
    run, stats, peak = _measured(server, csv, phases)

    traced_run = None
    if trace:
        ledger_path = src.parent / ".perfbench" / f"serve-ledger-{os.getpid()}.json"
        ledger_path.parent.mkdir(exist_ok=True)
        traced_server, _csv = _setup(seed, src, ledger_path)
        traced_run, _stats, _peak = _measured(traced_server, csv, phases)
        ledger = json.loads(ledger_path.read_text())
        ledger_path.unlink()

    # -- correctness, outside the timed loop -------------------------------
    check_start = time.perf_counter()
    runs = [run] + ([traced_run] if traced_run else [])
    attempted = sum(len(r["records"]) for r in runs) + shutdown_failures
    expected_results = library_results(runs, csv)
    failed = sum(check(r, expected_results) for r in runs) + shutdown_failures
    discoveries = stats.get("counters", {}).get("service.discoveries_executed", 0)
    expected = len(DATASETS) * len(CONFIGS) + (len(phases) - 1) * len(CONFIGS)
    if discoveries != expected:
        print(f"server ran {discoveries} discoveries, expected {expected}", flush=True)
        failed += 1
    requests = sum(r["kind"] in ("discover", "write") for r in run["records"])
    counters = {"discoveries": discoveries, "requests": requests,
                "phases": len(phases)}

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "discover_s": (_miss_run_s(run), "s"),
            "peak_rss_mib": (peak, "MiB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
            "req_per_s": (requests / run["wall"], "1/s"),
        }
    else:
        metrics = {name: (value, unit) for name, (value, unit) in ledger["metrics"].items()}
        metrics.update(_serve_metrics(run, stats))
        metrics["trace.overhead_frac"] = (
            _miss_run_s(traced_run) / _miss_run_s(run) - 1.0, "ratio")
        counters["library"] = ledger["counters"]
    calls = {"schedule_wall_s": run["wall"], "check_s": time.perf_counter() - check_start}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "counters": counters, "calls": calls}
