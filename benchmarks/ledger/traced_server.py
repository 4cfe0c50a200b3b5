"""``python -m repro.server`` with the ledger's span wrappers installed.

Started by :class:`harness.Server` for the traced pass of the served
workloads::

    python benchmarks/ledger/traced_server.py --trace-label NAME \
        --port 0 [--data-dir DIR]

It calls :func:`trace.install`, then hands the remaining arguments to
``repro.server.server.main`` unchanged.  When the server shuts down
(SIGTERM from the harness) it writes, under ``results/``:

* ``trace_NAME.jsonl`` — every span kept in memory;
* ``trace_NAME.summary.json`` — self/inclusive time and call count per
  wrapped function and the raw queue-wait samples.

Counts the server keeps itself (WAL records and flushes, segments, pages
read, windows) are read by the workload over its connection, from the
system views, while the server is still up.

Timestamps are ``time.perf_counter()``, which on Linux is the
system-wide monotonic clock, so the generator process can cut these
spans to the window of the phase it timed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-label", required=True)
    args, server_argv = parser.parse_known_args(argv)

    sys.path.insert(0, LEDGER_DIR)
    from harness import load_trace
    trace = load_trace()
    recorder = trace.install(trace.RECORDER)

    from repro.server import server as server_module
    code = server_module.main(server_argv)

    results = os.path.join(LEDGER_DIR, "results")
    os.makedirs(results, exist_ok=True)
    base = os.path.join(results, f"trace_{args.trace_label}")
    if os.path.exists(base + ".jsonl"):
        os.remove(base + ".jsonl")
    spans = recorder.write(base + ".jsonl")
    with open(base + ".summary.json", "w", encoding="utf-8") as handle:
        json.dump({"spans": spans, "totals": recorder.totals(),
                   "samples": recorder.samples}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
