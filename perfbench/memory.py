"""Peak resident memory of one ``discover()`` call, workers included.

Linux keeps a per-process high-water mark (``VmHWM``) that writing
``5`` to ``/proc/self/clear_refs`` resets, so the peak of one call is
read without sampling.  Process-pool workers exit when the executor
closes; their marks are read just before, through a hook on the
executor's ``close`` (one call per run, so it costs nothing measurable).
Where ``clear_refs`` is not writable the process-lifetime
``ru_maxrss`` is reported instead.
"""

from __future__ import annotations

import importlib
import re
import resource
from contextlib import contextmanager

__all__ = ["peak_rss", "vm_hwm_kib"]

_HWM = re.compile(r"VmHWM:\s+(\d+)\s+kB")


def vm_hwm_kib(pid: int | str = "self") -> int:
    """``VmHWM`` of a process in KiB (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            match = _HWM.search(handle.read())
    except OSError:
        return 0
    return int(match.group(1)) if match else 0


def _reset_hwm() -> bool:
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


class _Peak:
    mib = 0.0


@contextmanager
def peak_rss():
    """Yield a holder whose ``mib`` is the peak RSS of the block, once it ends."""
    peak = _Peak()
    workers_kib = []
    tane = importlib.import_module("repro.core.tane")
    factory = getattr(tane, "make_executor", None)
    if factory is not None:
        def make_executor(*args, **kwargs):
            executor = factory(*args, **kwargs)
            usage = getattr(executor, "usage", None)
            close = executor.close

            def close_reading_workers():
                pids = getattr(usage, "pids", ()) or ()
                workers_kib.append(sum(vm_hwm_kib(pid) for pid in pids))
                close()

            if usage is not None:
                executor.close = close_reading_workers
            return executor

        tane.make_executor = make_executor
    reset = _reset_hwm()
    try:
        yield peak
    finally:
        if factory is not None:
            tane.make_executor = factory
        own = vm_hwm_kib() if reset else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak.mib = (own + sum(workers_kib)) / 1024.0
