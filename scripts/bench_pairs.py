#!/usr/bin/env python
"""Ten alternating pairs of one ledger workload: a ref against this tree.

    python scripts/bench_pairs.py REF WORKLOAD [--pairs N]

Exports ``REF`` (``git archive``) into a scratch directory and runs the
command ``BENCHMARK.json`` declares —

    python3 benchmarks/ledger/run.py --workload WORKLOAD --seed N \
        --seconds <run_seconds> --trace 0

— alternately there and in the working tree: one seed per pair, the
side that goes first alternating pair by pair.  Then, per end-to-end
metric the workload measures: each side's median and quartiles, pairs
won (ties count for neither), failed operations, and how the numbers
read against the two rules the guides set — a gain needs nine tenths of
the pairs and a median shift wider than the ref's own quartile spread;
a regression is a median worse than the metric's bound.

It only calls the ledger's command; every run made is printed.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 3001


def export_ref(ref, dest):
    """The committed files of ``ref``, as the benchmark driver sees them."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)


def run_once(tree, command, workload, seed, seconds):
    """One untraced pass in ``tree``; returns the ledger's contract line
    plus the names it only stands in for."""
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench-pairs: run failed in {tree} (seed {seed}):\n"
                 f"{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    result["stand_ins"] = {}
    for line in lines:
        if line.startswith("# stand-ins"):
            result["stand_ins"] = json.loads(line[line.index("{"):])
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(spec, workload, ref, runs):
    """``runs``: one ``{"ref": result, "tree": result}`` per pair."""
    measured = [m for m in spec["end_to_end"]
                if m["name"] in runs[0]["tree"]["metrics"]
                and m["name"] not in runs[0]["tree"]["stand_ins"]]
    print(f"\n# {workload}: {len(runs)} pairs, ref {ref} against the "
          "working tree")
    for metric in measured:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [run[side]["metrics"][name]["value"] for run in runs]
                 for side in ("ref", "tree")}
        wins = {"ref": 0, "tree": 0}
        for old, new in zip(sides["ref"], sides["tree"]):
            if old != new:
                wins["tree" if (new > old) == higher else "ref"] += 1
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {metric['bound']:.0%})")
        stats = {}
        for side in ("ref", "tree"):
            q1, q2, q3 = stats[side] = quartiles(sides[side])
            print(f"  {side:<5} median {q2:14.4f}   quartiles "
                  f"{q1:14.4f} .. {q3:14.4f}   pairs won {wins[side]:2d}")
        (r1, rmed, r3), tmed = stats["ref"], stats["tree"][1]
        gain = (tmed - rmed) if higher else (rmed - tmed)
        print(f"  tree/ref median ratio {tmed / rmed:.3f} "
              f"(base: ref median {rmed:.4f})")
        if len(runs) < 10:
            print("  reads as: nothing (the rules need ten pairs)")
        elif wins["tree"] >= 0.9 * len(runs) and gain > r3 - r1:
            print("  reads as: GAIN (>= 9/10 pairs, shift wider than the "
                  "ref's quartile spread)")
        elif -gain > metric["bound"] * rmed:
            print("  reads as: REGRESSION (median worse than the bound)")
        else:
            print("  reads as: no claimable change")
    print()
    for side in ("ref", "tree"):
        attempted = sum(run[side]["attempted"] for run in runs)
        failed = sum(run[side]["failed"] for run in runs)
        wrong = sum(1 for run in runs if not run[side]["correct"])
        print(f"{side:<5} operations: {attempted} attempted, {failed} "
              f"failed; {wrong} of {len(runs)} runs incorrect")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="commit to compare against")
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        export_ref(args.ref, scratch)
        trees = {"ref": scratch, "tree": ROOT}
        for pair in range(args.pairs):
            seed = FIRST_SEED + pair
            order = ("ref", "tree") if pair % 2 == 0 else ("tree", "ref")
            run = {side: run_once(trees[side], spec["command"],
                                  args.workload, seed, spec["run_seconds"])
                   for side in order}
            runs.append(run)
            print(f"pair {pair + 1:2d} seed {seed} first {order[0]:<4} " +
                  "  ".join(
                      f"{side} {name}={values['value']:.4f}"
                      for side in ("ref", "tree")
                      for name, values in run[side]["metrics"].items()
                      if name not in run[side]["stand_ins"]), flush=True)
    report(spec, args.workload, args.ref, runs)
    return 1 if any(run["tree"]["failed"] or not run["tree"]["correct"]
                    for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
