#!/usr/bin/env python3
"""The ledger: one command for the ingest->emit benchmark.

One workload, one pass (what the benchmark driver runs)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` installs the span wrappers of ``trace.py`` and reports the
per-layer metrics instead.  Every metric is printed by name with its
unit, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

The whole ledger (no ``--trace``)::

    PYTHONPATH=src python benchmarks/ledger/run.py [--seed N]
        [--workload NAME] [--out FILE]

runs every workload (or the one named) ``REPS`` times untraced and once
traced — each pass a child process of this script, so no state leaks
between passes; the ladder is part of ``served_durable_e1``'s traced
pass — prints one table, and writes the same as JSON with commit, seed,
``nproc`` and python/numpy versions.  ``--quick`` runs everything at
1/20 size with all reference checks on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys

import harness

harness.ensure_engine_importable()

import layers  # noqa: E402
import workloads  # noqa: E402  (needs the engine importable)
from harness import median  # noqa: E402

DEFAULT_SEED = 2009
#: untraced passes per workload in the whole ledger
REPS = 3


def stand_in(measured: dict) -> tuple:
    """``(source, value)`` for an end-to-end name a workload does not
    measure, from the ones it ``measured``.

    The driver's contract wants every end-to-end name from every
    workload, never zero (README.md quotes it).  A workload measures the
    metrics README.md lists for it; every other name is a rate, and
    under it the workload repeats its own ``events_per_s`` — measured,
    and moving only when that workload moves.  These cells are marked in
    everything the ledger prints and writes except the contract line,
    whose keys are fixed; ``compare.py`` never judges them."""
    return "events_per_s", measured["events_per_s"]


def run_one(name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """One pass of one workload; returns the detailed result."""
    spec = layers.benchmark_spec()
    function, why = workloads.WORKLOADS[name]
    with harness.WorkDir() as work:
        run = workloads.Run(name, seed, seconds, trace, quick, work)
        if trace:
            run.recorder = harness.load_trace().RECORDER
            run.layers.update(layers.zero_layers())
        function(run)

    metrics = {}
    stand_ins = {}
    if trace:
        for key in layers.PREDICTED_NONZERO[name]:
            run.expect(run.layers[key] > 0.0,
                       f"{key} reads {run.layers[key]!r}: a function the "
                       "traced pass wraps is no longer called")
        for metric in spec["per_layer"]:
            metrics[metric["name"]] = {
                "value": float(run.layers[metric["name"]]),
                "unit": metric["unit"]}
    else:
        # the fastest of the pass's set-ups, as every rate is made of
        # the fastest of its calls: the host only ever adds time
        run.e2e["setup_s"] = min(run.setup_s)
        run.samples("setup_s", len(run.setup_s))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            value = run.e2e.get(key)
            if value is None:
                stand_ins[key], value = stand_in(run.e2e)
            metrics[key] = {"value": float(value), "unit": metric["unit"]}
    for key, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            run.ops(1, 1, f"metric {key} is not finite")
            entry["value"] = 0.0
    return {
        "workload": name, "why": why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick,
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed, "failures": run.failures,
        "metrics": metrics, "stand_ins": stand_ins,
        "setup_samples_s": run.setup_s, "details": run.details,
    }


def print_metrics(result: dict) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"# {result['workload']}  seed={result['seed']}  "
          f"seconds={result['seconds']:g}  {kind}")
    print(f"# sizes: {json.dumps(result['details']['sizes'])}")
    for name, entry in result["metrics"].items():
        note = ""
        if name in result["stand_ins"]:
            note = f"   (= {result['stand_ins'][name]})"
        count = result["details"]["samples"].get(name)
        if count is not None:
            note += f"   n={count}"
        print(f"{name:42s} {entry['value']:14.4f} {entry['unit']}{note}")
    if result["stand_ins"]:
        print(f"# stand-ins (not measured by this workload): "
              f"{json.dumps(result['stand_ins'])}")
    for phase in result["details"].get("void_phases", []):
        print(f"# VOID: {phase} (generator late_send_p99 > 5 ms)")
    print(f"# operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}")


def contract_line(result: dict) -> str:
    return json.dumps({"correct": result["correct"],
                       "attempted": max(1, result["attempted"]),
                       "failed": result["failed"],
                       "metrics": result["metrics"]})


# ---------------------------------------------------------------------------
# the whole ledger
# ---------------------------------------------------------------------------

def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.REPO_ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"commit": commit or "unknown", "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


def child(name: str, args, trace: int, out: str) -> dict:
    """One pass in a child process of this script."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--out", out]
    if args.quick:
        argv.append("--quick")
    completed = subprocess.run(argv, stdout=subprocess.DEVNULL)
    with open(out, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(out)
    result["exit_code"] = completed.returncode
    return result


def _extras(details: dict) -> dict:
    """What a pass recorded beyond sizes and sample counts: client
    tails, exact counts, per-repetition rates, void phases ..."""
    return {key: value for key, value in details.items()
            if key not in ("sizes", "samples")}


def run_all(args) -> int:
    spec = layers.benchmark_spec()
    os.makedirs(harness.RESULTS_DIR, exist_ok=True)
    scratch = os.path.join(harness.RESULTS_DIR, f".pass-{os.getpid()}.json")
    ledger = {"environment": environment(), "seed": args.seed,
              "seconds": args.seconds, "quick": args.quick,
              "reps": REPS, "workloads": {}}
    bad = 0
    for name in [args.workload] if args.workload else workloads.WORKLOADS:
        print(f"== {name}", file=sys.stderr, flush=True)
        passes = [child(name, args, 0, scratch) for _ in range(REPS)]
        traced = child(name, args, 1, scratch)
        entry = {"why": workloads.WORKLOADS[name][1],
                 "end_to_end": {}, "per_layer": {},
                 "sizes": passes[0]["details"]["sizes"],
                 "samples": passes[0]["details"]["samples"],
                 "stand_ins": passes[0]["stand_ins"],
                 "untraced_details": _extras(passes[0]["details"]),
                 "attempted": sum(p["attempted"] for p in passes)
                 + traced["attempted"],
                 "failed": sum(p["failed"] for p in passes)
                 + traced["failed"],
                 "failures": [f for p in passes + [traced]
                              for f in p["failures"]],
                 "void_phases": [phase for p in passes + [traced]
                                 for phase in p["details"].get(
                                     "void_phases", [])],
                 "traced_details": _extras(traced["details"])}
        for metric in spec["end_to_end"]:
            values = [p["metrics"][metric["name"]]["value"] for p in passes]
            entry["end_to_end"][metric["name"]] = {
                "median": median(values), "min": min(values),
                "max": max(values), "values": values,
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"]}
        for metric in spec["per_layer"]:
            entry["per_layer"][metric["name"]] = {
                "value": traced["metrics"][metric["name"]]["value"],
                "unit": metric["unit"]}
        bad += entry["failed"] + len(entry["void_phases"])
        ledger["workloads"][name] = entry
    print_ledger(ledger)
    out = args.out or os.path.join(
        harness.RESULTS_DIR,
        f"ledger_{ledger['environment']['commit'][:12]}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1)
    print(f"# written to {out}")
    return 1 if bad else 0


def print_ledger(ledger: dict) -> None:
    env = ledger["environment"]
    print(f"# ledger @ {env['commit'][:12]}  seed={ledger['seed']}  "
          f"nproc={env['nproc']}  python={env['python']}  "
          f"numpy={env['numpy']}  seconds={ledger['seconds']:g}"
          f"{'  QUICK' if ledger['quick'] else ''}")
    for name, entry in ledger["workloads"].items():
        print(f"\n## {name}   sizes: {json.dumps(entry['sizes'])}")
        print(f"{'end-to-end metric':28s} {'median':>12s} {'min':>12s} "
              f"{'max':>12s}  unit")
        for metric, cell in entry["end_to_end"].items():
            note = ""
            if metric in entry["stand_ins"]:
                note = f"  (= {entry['stand_ins'][metric]})"
            elif metric in entry["samples"]:
                note = f"  n={entry['samples'][metric]}"
            print(f"{metric:28s} {cell['median']:12.3f} {cell['min']:12.3f} "
                  f"{cell['max']:12.3f}  {cell['unit']}{note}")
        print(f"{'per-layer metric (traced; zeros omitted)':42s} "
              f"{'value':>14s}  unit")
        for metric, cell in entry["per_layer"].items():
            if metric.startswith("ladder.") or not cell["value"]:
                continue
            print(f"{metric:42s} {cell['value']:14.4f}  {cell['unit']}")
        ladder = entry["traced_details"].get("ladder")
        if ladder:
            print(f"ladder: {ladder['events']} events x {ladder['rounds']} "
                  "rounds")
            for rung, cost in ladder["rung_us_per_event"].items():
                print(f"  rung {rung:10s} {cost:10.3f}  us/event")
            for metric, value in ladder["metrics"].items():
                print(f"{metric:42s} {value:14.4f}  us")
        print(f"operations: {entry['attempted']} attempted, "
              f"{entry['failed']} failed")
        for failure in entry["failures"]:
            print(f"FAILED: {failure}")
        for phase in entry["void_phases"]:
            print(f"VOID: {phase} (generator late_send_p99 > 5 ms)")


def main(argv=None) -> int:
    spec = layers.benchmark_spec()
    parser = argparse.ArgumentParser(
        description="The ingest->emit ledger (see README.md).")
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured seconds per pass; sizes scale "
                             "with it (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one pass of --workload: 0 end-to-end, "
                             "1 per-layer; without it, the whole ledger")
    parser.add_argument("--out", help="write the result as JSON here")
    parser.add_argument("--quick", action="store_true",
                        help="1/20 size, all reference checks on")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_all(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick)
    print_metrics(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    print(contract_line(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
