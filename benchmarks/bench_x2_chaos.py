"""X2 — the cost of staying alive: supervision overhead under the E1
ingest workload, and the same pipeline with live fault injection.

The supervisor (quarantine and retry — docs/FAULTS.md) only earns
its place in an always-on engine if the fault-free path stays cheap: its
wrappers sit on every window close, every channel write and every tuple
fan-out.  This benchmark ingests the E1 security workload through the
continuous pipeline three ways — unsupervised, supervised with an idle
(wired but disarmed) injector, and supervised with faults actually
firing — and reports best-of-N wall time per mode.

Acceptance: supervised/unsupervised best-of-N ratio <= 1.10 (the
guarded fast path costs less than 10%).
"""

import time

from repro import Database
from repro.bench.harness import format_table
from repro.faults import FaultInjector
from repro.workloads import SecurityEventGenerator
from repro.workloads.security import SECURITY_STREAM_DDL

PIPELINE_DDL = """
CREATE STREAM blocked_rollup AS
    SELECT severity, count(*) AS hits, sum(bytes_sent) AS bytes,
           cq_close(*)
    FROM security_events <VISIBLE '1 minute'>
    WHERE action = 'block'
    GROUP BY severity;
CREATE TABLE blocked_archive (severity integer,
    hits bigint, bytes bigint, stime timestamp);
CREATE CHANNEL blocked_channel FROM blocked_rollup INTO blocked_archive APPEND;
"""

N_EVENTS = 20_000
ROUNDS = 5
MAX_OVERHEAD = 1.10


def chaos_injector():
    injector = FaultInjector(2009)
    injector.arm("cq.window", probability=0.05, count=3)
    injector.arm("channel.write", probability=0.05, count=3)
    injector.arm("stream.deliver", probability=0.0002, count=3)
    return injector


def ingest(events, supervised, injector=None):
    """One timed ingest; setup (DDL, generation) stays outside the clock."""
    db = Database(buffer_pages=64, supervised=supervised,
                  fault_injector=injector)
    db.execute(SECURITY_STREAM_DDL)
    db.execute_script(PIPELINE_DDL)
    started = time.perf_counter()
    db.insert_stream("security_events", events)
    db.advance_streams(events[-1][0] + 60.0)
    wall = time.perf_counter() - started
    letters = len(db.supervisor.dead_letter_log) if db.supervisor else 0
    return wall, len(db.table_rows("blocked_archive")), letters


def test_x2_supervision_overhead(benchmark, report):
    report.experiment_id = "X2_chaos_overhead"
    events = SecurityEventGenerator(rate_per_second=1000.0,
                                    seed=1).batch(N_EVENTS)
    modes = [
        ("unsupervised", dict(supervised=False)),
        ("supervised (idle injector)",
         dict(supervised=True, injector=FaultInjector(2009))),
        ("supervised + live faults",
         dict(supervised=True)),  # fresh armed injector per round, below
    ]
    best = {}
    detail = {}
    # interleave the modes across rounds so drift hits them all equally
    for _round in range(ROUNDS):
        for name, kwargs in modes:
            if name == "supervised + live faults":
                kwargs = dict(supervised=True, injector=chaos_injector())
            wall, archived, letters = ingest(events, **kwargs)
            if name not in best or wall < best[name]:
                best[name] = wall
            detail[name] = (archived, letters)

    base = best["unsupervised"]
    rows = []
    for name, _kwargs in modes:
        archived, letters = detail[name]
        rows.append([name, round(best[name], 4),
                     round(best[name] / base, 3), archived, letters])
    text = format_table(
        ["mode", "best wall s", "ratio vs unsupervised",
         "windows archived", "dead letters"],
        rows,
        title=f"X2: supervision overhead on the E1 ingest workload "
              f"({N_EVENTS} events, best of {ROUNDS})")
    print("\n" + text)
    report.add(text)

    ratio = best["supervised (idle injector)"] / base
    assert ratio <= MAX_OVERHEAD, \
        f"supervision overhead {ratio:.3f} exceeds {MAX_OVERHEAD}"
    # the fault-free supervised run archives exactly what unsupervised does
    assert detail["supervised (idle injector)"][0] \
        == detail["unsupervised"][0]
    # and the chaos run quarantined what it dropped
    assert detail["supervised + live faults"][1] > 0

    benchmark.pedantic(
        lambda: ingest(events[:2_000], supervised=True,
                       injector=FaultInjector(2009)),
        rounds=3, iterations=1)
