"""Run ``repro serve`` with the benchmark's layer hooks installed.

Usage (the service workload starts it; not meant to be run by hand)::

    python3 perfbench/serve_traced.py LEDGER_JSON SRC_DIR serve --port 0 ...

Every discovery a job runs becomes a root ``discover`` span; the layer
hooks of :mod:`ledger` record the spans below it on the job's thread.
When the server exits (SIGINT), the per-layer metrics summed over all
discoveries, and their summed deterministic counters, are written to
``LEDGER_JSON``.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path


def main() -> int:
    ledger_path, src, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import repro.serve.service as service_module
    from repro.cli import main as cli_main

    from ledger import Ledger, instrumented, layer_metrics, run_statistics

    ledger = Ledger()
    results = []
    lock = threading.Lock()
    original = service_module.discover

    def discover(relation, config=None):
        index = ledger.open("discover", "scheduler")
        try:
            result = original(relation, config)
        finally:
            ledger.close(index)
        with lock:
            results.append(result)
        return result

    service_module.discover = discover
    try:
        with instrumented(ledger):
            code = cli_main(argv)
    finally:
        service_module.discover = original
    stats = run_statistics(results)
    summary = {
        "metrics": layer_metrics(ledger, stats),
        "counters": {key: stats[key] for key in
                     ("products", "tests", "error_computations", "bound_rejections",
                      "levels", "nodes")},
    }
    ledger_path.write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
