"""In-process span ledger for the traced benchmark runs.

The benchmark never edits the program: for a traced run it wraps the
public entry points of each layer of ``repro`` in this process, keeps
one span per call (name, layer, start, end, parent) in memory, and
derives each layer's *self time* — a span's duration minus the part of
it covered by its child spans.  Whatever the root ``discover`` span
does outside every wrapped call is reported as ``scheduler.self_s``, so
the layer self times always add up to the traced discover wall time.

Functions the search calls once per validity test (store gets, tracker
``apply_outcome``, the measures themselves) would run hundreds of
thousands of times on a wide lattice; they get no span.  Their time
lands in the per-batch caller that is wrapped (``validity_tests``,
``products``) or in ``scheduler.self_s``.  Store gets and puts are
counted by a clock-free shim instead.

Every hook is optional: when a wrapped name does not exist in the
program (a later refactor renamed it) the hook is skipped and listed in
``Ledger.missing``, and its time falls into the caller's layer.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter
from contextlib import contextmanager

__all__ = ["Ledger", "instrumented", "layer_metrics", "run_statistics", "LAYERS"]

# Layers whose self time the ledger reports, in report order.  The
# root span's own layer is "scheduler": time inside discover() that no
# wrapped call covers (the level loop, apply_outcome, counters,
# component assembly).
LAYERS = ("partition", "measures", "tracker", "strategy", "partitions",
          "store", "parallel", "scheduler")


class Ledger:
    """Spans kept in memory; thread-aware (the service runs jobs on threads)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self.counts: Counter = Counter()
        self._cells: list[tuple[str, list[int]]] = []
        self.missing: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.counts[name] += 1
            self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str) -> int:
        """Calls recorded under ``name`` (spans opened plus shim counts)."""
        return self.counts[name] + sum(cell[0] for key, cell in self._cells if key == name)

    def self_times(self, by: str = "layer") -> dict[str, float]:
        """Seconds of self time per layer (or per span name, ``by="name"``)."""
        child_time = [0.0] * len(self.spans)
        for _name, _layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        field = 1 if by == "layer" else 0
        totals = dict.fromkeys(LAYERS, 0.0) if by == "layer" else {}
        for index, span in enumerate(self.spans):
            own = span[3] - span[2] - child_time[index]
            totals[span[field]] = totals.get(span[field], 0.0) + own
        return totals

    def wall(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, _l, start, end, _p in self.spans if n == name)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "layer": l, "start": s, "end": e, "parent": p}
                for n, l, s, e, p in self.spans
            ],
            "counts": {name: self.count(name) for name in
                       set(self.counts) | {key for key, _cell in self._cells}},
            "missing": sorted(self.missing),
        }


def _timed(ledger: Ledger, name: str, layer: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = ledger.open(name, layer)
        try:
            return function(*args, **kwargs)
        finally:
            ledger.close(index)

    return wrapper


def _resumes_timed(ledger: Ledger, name: str, layer: str, function):
    """Wrap a generator function: one span per resume of the stream.

    Executors stream products to the store, so the work happens between
    yields; timing each ``next`` attributes it to the producer while the
    consumer's own work stays in its span.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        iterator = iter(function(*args, **kwargs))

        def stream():
            try:
                while True:
                    index = ledger.open(name, layer)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        ledger.close(index)
                    yield item
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

        return stream()

    return wrapper


def _count_only(ledger: Ledger, name: str, function):
    """Clock-free call counter for a per-run instance's hot method.

    Each instance belongs to one run on one thread, so a private cell
    needs no lock.
    """
    cell = [0]
    ledger._cells.append((name, cell))

    def wrapper(*args, **kwargs):
        cell[0] += 1
        return function(*args, **kwargs)

    return wrapper


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._undo: list = []

    def replace(self, owner, attribute: str, make) -> None:
        """Swap a module or class attribute; a missing one is reported."""
        original = getattr(owner, attribute, None)
        if original is None:
            self.ledger.missing.add(f"{owner.__name__}.{attribute}")
            return
        had_own = attribute in vars(owner)
        setattr(owner, attribute, make(original))
        self._undo.append((owner, attribute, original if had_own else None))

    def undo(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


# (module, class or "" for a module function, attribute, layer, kind).
_HOOKS = (
    ("repro.search.tracker", "CandidateTracker", "compute_cplus", "tracker", "timed"),
    ("repro.search.tracker", "CandidateTracker", "testable_groups", "tracker", "timed"),
    ("repro.search.tracker", "CandidateTracker", "prune", "tracker", "timed"),
    ("repro.search.partitions", "PartitionManager", "bootstrap", "partitions", "timed"),
    ("repro.search.partitions", "PartitionManager", "materialize", "partitions", "timed"),
    ("repro.search.partitions", "PartitionManager", "materialize_mask", "partitions", "timed"),
    ("repro.search.partitions", "PartitionManager", "reclaim", "store", "timed"),
    ("repro.partition.vectorized", "CsrPartition", "product", "partition", "timed"),
    ("repro.search.execution", "", "batched_products", "partition", "timed"),
)

# Methods hooked on the instances the composition root builds.
_EXECUTOR_HOOKS = (
    ("products", "partition", "resumes"),
    ("validity_tests", "measures", "timed"),
    ("begin_run", "parallel", "timed"),
    ("release_masks", "parallel", "timed"),
    ("close", "parallel", "timed"),
)
_STORE_HOOKS = (("put_many", "store", "timed"), ("close", "store", "timed"))
_STRATEGY_HOOKS = (
    ("expand", "strategy", "timed"),
    ("should_stop", "strategy", "timed"),
    ("finalize", "strategy", "timed"),
)

_MAKERS = {"timed": _timed, "resumes": _resumes_timed}


def _hook_instance(ledger: Ledger, instance, prefix: str, hooks, counted) -> None:
    """Shadow methods on one per-run instance (absent ones are skipped:
    the serial executor has no shipping lifecycle)."""
    for method, layer, kind in hooks:
        function = getattr(instance, method, None)
        if function is not None:
            name = f"{prefix}.{method}"
            setattr(instance, method, _MAKERS[kind](ledger, name, layer, function))
    for method in counted:
        setattr(instance, method,
                _count_only(ledger, f"{prefix}.{method}", getattr(instance, method)))


@contextmanager
def instrumented(ledger: Ledger):
    """Install every layer hook for the duration of the block."""
    patches = _Patches(ledger)
    try:
        for module_name, class_name, attribute, layer, kind in _HOOKS:
            module = _module(module_name)
            owner = getattr(module, class_name, None) if class_name else module
            if owner is None:
                ledger.missing.add(f"{module_name}.{class_name}")
                continue
            name = f"{class_name}.{attribute}" if class_name else attribute
            patches.replace(
                owner, attribute,
                lambda fn, name=name, layer=layer, kind=kind: _MAKERS[kind](
                    ledger, name, layer, fn
                ),
            )
        tane = _module("repro.core.tane")

        def hook_factory(factory_name: str, prefix: str, hooks, counted=()):
            def make(factory):
                @functools.wraps(factory)
                def wrapper(*args, **kwargs):
                    instance = factory(*args, **kwargs)
                    _hook_instance(ledger, instance, prefix, hooks, counted)
                    return instance

                return wrapper

            patches.replace(tane, factory_name, make)

        if tane is not None:
            hook_factory("make_executor", "executor", _EXECUTOR_HOOKS)
            hook_factory("make_store", "store", _STORE_HOOKS, counted=("get", "put"))
            hook_factory("make_strategy", "strategy", _STRATEGY_HOOKS)
        else:
            ledger.missing.add("repro.core.tane")
        yield ledger
    finally:
        patches.undo()


MIB = 1024 * 1024


def run_statistics(results) -> dict:
    """The statistics of one or more discover() results, summed
    (peak residency: the largest)."""
    total = {
        "products": 0, "tests": 0, "error_computations": 0, "bound_rejections": 0,
        "levels": 0, "nodes": 0, "peak_resident_bytes": 0, "parallel": False,
        "busy_s": 0.0, "workers": 1, "shm_shipped": 0, "shm_saved": 0,
        "chunks": 0, "retries": 0,
    }
    for result in results:
        stats = result.statistics
        total["products"] += stats.partition_products
        total["tests"] += stats.validity_tests
        total["error_computations"] += stats.error_computations
        total["bound_rejections"] += stats.g3_bound_rejections
        total["levels"] += len(stats.level_sizes)
        total["nodes"] += sum(stats.level_sizes)
        total["peak_resident_bytes"] = max(
            total["peak_resident_bytes"], stats.peak_resident_bytes)
        total["parallel"] = total["parallel"] or stats.executor != "serial"
        total["busy_s"] += stats.worker_busy_seconds
        total["workers"] = max(total["workers"], stats.workers_used)
        total["shm_shipped"] += stats.shm_bytes_shipped
        total["shm_saved"] += stats.shm_bytes_saved
        total["chunks"] += stats.worker_chunks
        total["retries"] += stats.chunk_retries + stats.pool_respawns
    return total


def layer_metrics(ledger: Ledger, stats: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the traced ``discover`` spans in ``ledger``.

    Times are self times, so they add up to ``trace.discover_s``;
    ``parallel.*_wall_s`` are the parent-side durations of the process
    executor's calls (the same spans as ``partition``/``measures``).
    """
    wall = ledger.wall("discover")
    own = ledger.self_times()
    bootstrap = ledger.self_times(by="name").get("PartitionManager.bootstrap", 0.0)
    parallel = stats["parallel"]
    tests = stats["tests"]
    busy = stats["busy_s"]
    return {
        "trace.discover_s": (wall, "s"),
        "partition.product_s": (own["partition"], "s"),
        "partition.products_n": (stats["products"], "count"),
        "partition.product_calls_n": (
            ledger.count("batched_products") + ledger.count("CsrPartition.product"),
            "count"),
        "measures.validity_s": (own["measures"], "s"),
        "measures.tests_n": (tests, "count"),
        "measures.error_computations_n": (stats["error_computations"], "count"),
        "measures.bound_rejections_n": (stats["bound_rejections"], "count"),
        "measures.bound_reject_ratio": (
            stats["bound_rejections"] / tests if tests else 0.0, "ratio"),
        "tracker.s": (own["tracker"], "s"),
        "strategy.s": (own["strategy"], "s"),
        "scheduler.self_s": (own["scheduler"], "s"),
        "scheduler.levels_n": (stats["levels"], "count"),
        "scheduler.nodes_n": (stats["nodes"], "count"),
        "partitions.bootstrap_s": (bootstrap, "s"),
        "partitions.materialize_s": (own["partitions"] - bootstrap, "s"),
        "store.s": (own["store"], "s"),
        "store.gets_n": (ledger.count("store.get"), "count"),
        "store.puts_n": (ledger.count("store.put"), "count"),
        "store.peak_resident_mib": (stats["peak_resident_bytes"] / MIB, "MiB"),
        "parallel.s": (own["parallel"], "s"),
        "parallel.products_wall_s": (
            ledger.wall("executor.products") if parallel else 0.0, "s"),
        "parallel.validity_wall_s": (
            ledger.wall("executor.validity_tests") if parallel else 0.0, "s"),
        "parallel.worker_busy_s": (busy, "s"),
        "parallel.utilization": (
            busy / (wall * stats["workers"]) if parallel and wall else 0.0, "ratio"),
        "parallel.shm_shipped_mib": (stats["shm_shipped"] / MIB, "MiB"),
        "parallel.shm_saved_mib": (stats["shm_saved"] / MIB, "MiB"),
        "parallel.chunks_n": (stats["chunks"], "count"),
        "parallel.retries_n": (stats["retries"], "count"),
        "trace.hooks_missing_n": (len(ledger.missing), "count"),
    }
