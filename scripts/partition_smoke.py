#!/usr/bin/env python
"""CI smoke test for partitioned execution: real workers, real SIGKILL.

First the poison-window leg: a supervised engine over two subprocess
workers runs ``10 / (sum(v) - 6)`` over a window where a key sums to 6.
The window must be dead-lettered on the CQ, every batch acked, every
later window emitted — windows and ``repro_dead_letters`` equal to one
supervised :class:`Database` fed the same batches (the merge stage used
to retry the raising boundary forever and emit nothing again).  The
same workload then runs on two inline workers — threads on the same
frame loop over socketpairs — with one killed mid-window: the output
must be the same again, and no worker thread may outlive ``close()``.

Then it boots a :class:`PartitionedEngine` with **subprocess workers**
over loopback sockets, runs the standard keyed window CQ, and:

1. ingests two batches and notes each worker's PID from the
   ``repro_partitions`` status rows;
2. parks two **stray connections** in the listener's backlog — one a
   pickle frame whose ``__reduce__`` would create a file, one that
   sends nothing at all — and SIGKILLs one worker **mid-window** (its
   shard has buffered rows the next boundary still needs — no frame in
   flight, no warning); the respawn's accept meets the strays first and
   must close the first undecoded and not wait on the silent one (were
   it to, the respawn would fail after ``spawn_timeout``);
3. keeps ingesting: the next frame owed to the dead worker triggers
   restart-with-replay — respawn, replay of the acked frame log,
   watermark fast-forward, then the in-flight frame;
4. flushes and compares the full window sequence against a plain
   single-process :class:`Database` fed exactly the same batches: the
   output must be **bit-identical** — same boundaries, same rows, no
   gap and no duplicate where the crash happened;
5. checks the restart surfaced in the status rows (``restarts == 1``,
   ``replayed_batches >= 1``) and that every worker ended ``up``.

Then the stall detector: it times window-closing round trips through
two process workers and **fails if their median is ≥ 20 ms** — a
worker response split over two writes on a Nagle socket costs the
coordinator's delayed ACK (~40 ms) per round trip, and once shipped an
11× throughput loss that no functional test noticed.  It also prints
the process-transport and single-engine events/s on the same rows; those
are for reading, not gating — no machine-dependent floor.

Run from the repository root::

    PYTHONPATH=src python scripts/partition_smoke.py
"""

import os
import signal
import socket
import statistics
import sys
import tempfile
import threading
import time


def fail(message):
    print(f"PARTITION SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


DDL = ("CREATE STREAM s (t DOUBLE CQTIME, k TEXT, v DOUBLE) "
       "PARTITION BY k")
CQ = ("SELECT k, count(*) AS n, sum(v) AS total, min(v) AS lo, "
      "max(v) AS hi FROM s <visible 10 advance 5> GROUP BY k "
      "ORDER BY k")

KEYS = ["alpha", "beta", "gamma", "delta", "epsilon"]
BATCHES = [
    [(float(t), KEYS[(t * 3 + b) % len(KEYS)], float(t % 7 - 3))
     for t in range(b * 6, b * 6 + 6)]
    for b in range(8)
]
KILL_AFTER = 2          # SIGKILL between batches 2 and 3 (mid-window)
SILENT_STRAY_S = 10.0   # a third of the default spawn_timeout

STALL_MS = 20.0         # half a delayed ACK: no healthy loopback hop is near
ROUND_TRIPS = 41
BULK_ROWS, BULK_CHUNK = 40_000, 2_000


def collect(sub):
    return [(w.kind, w.open_time, w.close_time, tuple(w.rows))
            for w in sub.poll()]


def reference():
    from repro import Database

    db = Database()
    db.execute(DDL.replace(" PARTITION BY k", ""))
    sub = db.execute(CQ)
    for rows in BATCHES:
        db.ingest_batch("s", rows)
    db.flush_streams()
    out = collect(sub)
    db.close()
    return out


POISON_DDL = ("CREATE STREAM s (k varchar, v integer, ts timestamp "
              "CQTIME USER) PARTITION BY k")
POISON_CQ = ("SELECT k, 10 / (sum(v) - 6) AS r FROM s "
             "<VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY k")
POISON_BATCHES = [
    [("a", 1, 1.0), ("a", 5, 3.0), ("b", 2, 4.0)],     # a sums to 6
    [("a", 2, 12.0), ("b", 2, 14.0)],
    [("a", 3, 22.0), ("b", 3, 24.0)],
]


def poison_run(engine, db, ingest, advance, ddl, mid_window=None):
    engine.execute(ddl)
    sub = engine.execute(POISON_CQ)
    acks = []
    for rows in POISON_BATCHES:
        acks.append(ingest("s", rows)["accepted"])
        if mid_window is not None:
            mid_window()            # after the first batch: window 10 open
            mid_window = None
    advance(40.0)
    windows = [(w.open_time, w.close_time, tuple(sorted(w.rows)))
               for w in sub.poll()]
    letters = db.query("SELECT source, kind FROM repro_dead_letters").rows
    return windows, letters, acks


def poison_leg():
    from repro import Database
    from repro.partition import PartitionedEngine

    print("== partition smoke: poison window under supervision, "
          "two process workers, then two inline ones (one killed) ==")
    db = Database(supervised=True)
    want = poison_run(db, db, db.ingest_batch, db.advance_streams,
                      POISON_DDL.replace(" PARTITION BY k", ""))
    db.close()
    if [kind for _source, kind in want[1]] != ["poison-window"] \
            or len(want[0]) != 3:
        fail(f"single engine: expected one poison window and three "
             f"emitted, got {want}")
    for transport in ("process", "inline"):
        threads_before = set(threading.enumerate())
        with PartitionedEngine(partitions=2, transport=transport,
                               db=Database(supervised=True)) as eng:
            # an inline worker is a thread on the process's frame loop:
            # killed mid-window, its respawn replays like a process's
            kill = (lambda: eng.kill_worker(0)) \
                if transport == "inline" else None
            try:
                got = poison_run(eng, eng.db, eng.ingest, eng.advance,
                                 POISON_DDL, mid_window=kill)
            except Exception as exc:    # noqa: BLE001 — the old wedge
                fail(f"a poison window raised out of the {transport} "
                     f"partitioned engine: {type(exc).__name__}: {exc}")
            if kill is not None and eng.restarts[0] != 1:
                fail(f"inline worker 0 restarts = {eng.restarts[0]}, "
                     "expected exactly 1")
        if got != want:
            fail(f"poison window: {transport} partitioned {got} != "
                 f"single engine {want}")
        survivors = [t.name for t in threading.enumerate()
                     if t not in threads_before
                     and t.name.startswith("repro-partition-worker-")]
        if survivors:
            fail(f"worker threads survived close(): {survivors}")
    print(f"  window 10 dead-lettered {want[1]}, {len(want[0])} later "
          f"windows emitted, batches acked {want[2]}: as one Database on "
          "both transports, no worker thread left after close()")


def park_stray(eng, target):
    """A connection waiting in the listener's backlog for the next
    accept, its bytes a pickle that would create ``target`` if loaded."""
    from repro.partition import wire

    class Evil:
        def __reduce__(self):
            return (open, (target, "w"))

    stray = socket.create_connection((eng._host, eng._port))
    stray.sendall(wire.encode_frame(
        {"type": "hello", "worker": 1, "nonce": "0" * 32, "x": Evil()}))
    return stray


def bulk_rows():
    """400 events a second over 200 keys: every chunk closes a window."""
    return [(t / 400.0, f"key{(t * 7) % 200}", float(t % 11))
            for t in range(BULK_ROWS)]


def timed_feed(ingest, rows):
    started = time.perf_counter()
    for i in range(0, len(rows), BULK_CHUNK):
        ingest(rows[i:i + BULK_CHUNK])
    return len(rows) / (time.perf_counter() - started)


def stall_check():
    from repro import Database
    from repro.partition import PartitionedEngine

    print("== partition smoke: round trips and throughput, "
          "two process workers ==")
    rows = bulk_rows()
    db = Database()
    db.execute(DDL.replace(" PARTITION BY k", ""))
    single_sub = db.execute(CQ)
    single_rate = timed_feed(lambda chunk: db.ingest_batch("s", chunk), rows)
    db.flush_streams()
    want = collect(single_sub)
    db.close()

    with PartitionedEngine(partitions=2, transport="process") as eng:
        eng.execute(DDL)
        sub = eng.execute(CQ)
        rate = timed_feed(lambda chunk: eng.ingest("s", chunk), rows)
        eng.flush()
        if collect(sub) != want:
            fail("bulk feed: merged windows differ from the single engine")
        # each call moves the clock one ADVANCE on: every worker closes
        # a window and answers with partial(s) + ack
        start = rows[-1][0] + 100.0
        trips = []
        for i in range(ROUND_TRIPS):
            began = time.perf_counter()
            eng.ingest("s", [(start + 5.0 * i, KEYS[i % len(KEYS)], 1.0)])
            trips.append((time.perf_counter() - began) * 1000.0)
        if len(sub.poll()) < ROUND_TRIPS - 1:
            fail("round trips closed no windows: nothing was measured")
        status = eng.status_rows()
    median = statistics.median(trips)
    print(f"  process transport: {rate:,.0f} ev/s   single engine: "
          f"{single_rate:,.0f} ev/s   ({rate / single_rate:.2f}x)")
    for line in status:
        print(f"  worker {line[0]}: busy {line[12]:.3f} s, coordinator "
              f"waited {line[13]:.3f} s")
    print(f"  window-closing round trip: median {median:.2f} ms, "
          f"max {max(trips):.2f} ms over {len(trips)}")
    if median >= STALL_MS:
        fail(f"median window-closing round trip {median:.1f} ms >= "
             f"{STALL_MS:.0f} ms: the coordinator<->worker hop is stalling "
             "(one write per response? TCP_NODELAY on both ends?)")


def main():
    from repro.partition import PartitionedEngine

    poison_leg()
    print("== partition smoke: subprocess workers + SIGKILL mid-window ==")
    want = reference()
    print(f"  reference: {len(want)} windows from the single engine")

    eng = PartitionedEngine(partitions=3, transport="process")
    try:
        eng.execute(DDL)
        sub = eng.execute(CQ)
        for rows in BATCHES[:KILL_AFTER]:
            eng.ingest("s", rows)

        rows = eng.status_rows()
        if any(r[3] != "process" for r in rows):
            fail(f"expected subprocess transport, got {rows}")
        victim, pid = rows[1][0], rows[1][1]
        ran = os.path.join(tempfile.mkdtemp(prefix="partition-smoke-"),
                           "ran")
        stray = park_stray(eng, ran)
        silent = socket.create_connection((eng._host, eng._port))
        print(f"  stray connections parked (evil pickle, silent); SIGKILL "
              f"worker {victim} (pid {pid}) mid-window")
        os.kill(pid, signal.SIGKILL)

        began = time.perf_counter()
        eng.ingest("s", BATCHES[KILL_AFTER])    # owed to the dead worker
        respawn_s = time.perf_counter() - began
        if respawn_s >= SILENT_STRAY_S:
            fail(f"the respawn took {respawn_s:.2f} s past a silent stray "
                 f"connection (the accept waited on it)")
        for rows in BATCHES[KILL_AFTER + 1:]:
            eng.ingest("s", rows)
        eng.flush()
        got = collect(sub)

        status = eng.status_rows()
        for line in status:
            print(f"  worker {line[0]}: state={line[2]} "
                  f"routed={line[5]} restarts={line[10]} "
                  f"replayed={line[11]}")
        if got != want:
            diff = next((i for i, (g, w) in enumerate(zip(got, want))
                         if g != w), min(len(got), len(want)))
            fail(f"output diverged at window {diff}: "
                 f"got {got[diff:diff + 1]} want {want[diff:diff + 1]} "
                 f"({len(got)} vs {len(want)} windows)")
        if status[victim][10] != 1:
            fail(f"worker {victim} restarts = {status[victim][10]}, "
                 "expected exactly 1")
        if status[victim][11] < 1:
            fail("restart replayed no batches")
        if any(r[2] != "up" for r in status):
            fail(f"not all workers ended up: {status}")
        if os.path.exists(ran):
            fail("the coordinator unpickled a stray connection's bytes")
        os.rmdir(os.path.dirname(ran))
        for conn in (stray, silent):
            conn.settimeout(5)
            try:
                if conn.recv(1) != b"":
                    fail("a stray connection was answered, not closed")
            except ConnectionError:
                pass
            conn.close()
        print(f"  stray connections closed undecoded, worker respawned past "
              f"them in {respawn_s:.2f} s")
    finally:
        eng.close()

    stall_check()
    print(f"PARTITION SMOKE PASS: poison window quarantined as on one "
          f"Database, {len(want)} windows bit-identical across stray "
          "connections + SIGKILL + restart-with-replay, no stalled hop")


if __name__ == "__main__":
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    main()
