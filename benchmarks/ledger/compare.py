#!/usr/bin/env python3
"""Compare two ledger files: ``compare.py A.json B.json``.

One row per workload x end-to-end metric the workload measures (a
stand-in cell repeats a measured one and is never judged), with both
medians, the min..max of each side's repetitions, the metric's
regression bound and a verdict for *B against A*:

``same``        medians within the bound of each other
``better``      B's median better than A's by more than the bound — or,
                when the repetitions spread wider than the bound, every
                repetition of B better than every repetition of A
``worse``       the mirror image
``unresolved``  the repetitions of either side spread wider than the
                bound and the two sides overlap: the runs cannot tell
``void``        the metric comes from a paced phase whose generator ran
                late (``late_send_p99`` > 5 ms) on either side
``missing``     B does not report the workload or the metric

After the table, the counts that must repeat exactly between two runs of
one commit (taken in single-client closed-loop phases) are compared for
identity.  The exit code is 1 on any ``worse``, ``void``, ``missing``,
differing count or failed operation in B; 2 when the two files were not
run at the same sizes and cannot be compared at all.
"""

from __future__ import annotations

import json
import sys

EXACT_COUNTS = {
    "served_durable_e1": ["storage.wal_records_per_event",
                          "streaming.windows_emitted"],
    "served_reads_writes": ["streaming.windows_emitted"],
    "embedded_multi_cq": ["streaming.windows_emitted",
                          "streaming.slow_path_row_share"],
    "embedded_eventtime_late": ["streaming.windows_emitted",
                                "streaming.slow_path_row_share",
                                "eventtime.late_rows",
                                "eventtime.retract_pairs"],
    "partitioned_e1": ["streaming.windows_emitted"],
}
#: end-to-end metrics taken in open-loop (paced) phases
PACED = ("queries_per_s",)


def verdict(a: dict, b: dict) -> tuple:
    """``(verdict, change)``; ``change`` is B's median against A's as a
    share of A's, signed so that positive is *worse*."""
    bound = a["bound"]
    sign = 1.0 if a["better"] == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((side["max"] - side["min"]) / side["median"]
                 for side in (a, b))
    if spread > bound:
        # only when every run of one side beats every run of the other;
        # ranges are signed so that lower is better
        range_a = sorted((sign * a["min"], sign * a["max"]))
        range_b = sorted((sign * b["min"], sign * b["max"]))
        if range_b[1] < range_a[0]:
            return "better", change
        if range_b[0] > range_a[1]:
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    ledger_a, ledger_b = ledgers
    for label, ledger in zip("AB", ledgers):
        env = ledger["environment"]
        print(f"# {label}: commit {env['commit'][:12]}  seed "
              f"{ledger['seed']}  nproc {env['nproc']}  python "
              f"{env['python']}  numpy {env['numpy']}")
    for key in ("seconds", "quick", "reps"):
        if ledger_a[key] != ledger_b[key]:
            print(f"not comparable: {key} is {ledger_a[key]!r} in A and "
                  f"{ledger_b[key]!r} in B", file=sys.stderr)
            return 2
    print(f"{'workload':24s} {'metric':22s} {'A median':>11s} "
          f"{'A min..max':>23s} {'B median':>11s} {'B min..max':>23s} "
          f"{'bound':>6s} {'change':>8s}  verdict")
    tally = dict.fromkeys(("same", "better", "worse", "unresolved", "void",
                           "missing", "differ"), 0)
    for name, entry_a in ledger_a["workloads"].items():
        entry_b = ledger_b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:24s} missing from B")
            tally["missing"] += 1
            continue
        if entry_a["sizes"] != entry_b["sizes"]:
            print(f"not comparable: {name} ran at {entry_a['sizes']} in A "
                  f"and {entry_b['sizes']} in B", file=sys.stderr)
            return 2
        void = entry_a.get("void_phases") or entry_b.get("void_phases")
        for metric, a in entry_a["end_to_end"].items():
            if metric in entry_a["stand_ins"]:
                continue
            b = entry_b["end_to_end"].get(metric)
            if b is None or metric in entry_b["stand_ins"]:
                print(f"{name:24s} {metric:22s} missing from B")
                tally["missing"] += 1
                continue
            word, change = verdict(a, b)
            if void and metric in PACED:
                word = "void"
            tally[word] += 1
            print(f"{name:24s} {metric:22s} {a['median']:11.3f} "
                  f"{a['min']:11.3f}..{a['max']:<11.3f}"
                  f"{b['median']:11.3f} {b['min']:11.3f}..{b['max']:<11.3f}"
                  f"{a['bound'] * 100:5.0f}% {change * 100:+7.1f}%  {word}")
        if entry_b["failed"]:
            print(f"{name:24s} B has {entry_b['failed']} failed operations")
            tally["worse"] += 1
    print("\n# counts that must repeat exactly")
    for name, counts in EXACT_COUNTS.items():
        layers_a = ledger_a["workloads"].get(name, {}).get("per_layer", {})
        layers_b = ledger_b["workloads"].get(name, {}).get("per_layer", {})
        for metric in counts:
            if metric not in layers_a or metric not in layers_b:
                continue                # a ledger of fewer workloads
            a = layers_a[metric]["value"]
            b = layers_b[metric]["value"]
            if a != b:
                tally["differ"] += 1
            print(f"{name:24s} {metric:34s} {a:14.6f} {b:14.6f}  "
                  f"{'identical' if a == b else 'DIFFER'}")
    print("\n# " + ", ".join(f"{count} {word}"
                             for word, count in tally.items()))
    bad = sum(tally[word] for word in ("worse", "void", "missing", "differ"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
