#!/usr/bin/env python
"""CI smoke test for high availability: SIGKILL the primary mid-window.

Boots a primary and a warm standby as real subprocesses on a shared
loopback, subscribes a client with ``failover_targets`` pointing at the
standby, ingests two full windows, then SIGKILLs the primary while the
third window is in flight.  The standby must auto-promote after missed
heartbeats, the client must fail over and resume its subscription, and
the delivered window sequence must be gap-free and duplicate-free —
identical closes to an uninterrupted run.

Also proves idempotent ingest end to end: two pre-crash batches are
stamped with ``(sender, seq)``; after promotion both are re-sent to the
new primary.  The one whose window had closed must be recognised from
the shipped dedup marker and acked ``duplicate`` without applying a
single row; the *in-flight* one (its window still open at the SIGKILL)
must be acked exactly once across two re-sends — the standby either
held the whole batch (rows + marker: duplicate) or none of it (rows
without their marker are discarded at promotion: accepted fresh) — and
counted exactly once in the window it belongs to.

And proves event-time watermark durability end to end: an event-time
stream gets rows plus an explicit watermark injection pre-crash; the
promoted standby and a rebooted primary (same data dir, after the
SIGKILL) must both report the exact pre-crash watermark — promotion
and restart never regress it.

Run from the repository root::

    PYTHONPATH=src python scripts/failover_smoke.py
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time


def fail(message):
    print(f"FAILOVER SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def boot(args):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0"] + args,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    banner = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", banner)
    if not match:
        proc.kill()
        fail(f"no banner, got {banner!r}")
    return proc, match.group(1), int(match.group(2))


def main():
    workdir = tempfile.mkdtemp(prefix="repro-failover-")
    prim = stby = None
    try:
        prim, host, pport = boot(
            ["--data-dir", os.path.join(workdir, "primary"),
             "--retention", "600"])
        print(f"primary up at {host}:{pport}")

        import repro.client as client
        pconn = client.connect(host, pport)
        pconn.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        pconn.execute("CREATE STREAM totals AS SELECT count(*) c, "
                      "cq_close(*) FROM s "
                      "<VISIBLE '10 seconds' ADVANCE '10 seconds'>")
        pconn.execute("CREATE TABLE archive (c bigint, ts timestamp)")
        pconn.execute("CREATE CHANNEL arch FROM totals INTO archive APPEND")
        pconn.execute("CREATE STREAM ev (v integer, ts timestamp "
                      "CQTIME USER) WATERMARK '5 seconds'")

        stby, _shost, sport = boot(
            ["--data-dir", os.path.join(workdir, "standby"),
             "--standby-of", f"{host}:{pport}",
             "--heartbeat-interval", "0.2", "--miss-limit", "3",
             "--retention", "600"])
        print(f"standby up at {host}:{sport}")

        watcher = client.connect(host, pport,
                                 failover_targets=[(host, sport)],
                                 reconnect_max_backoff=0.5)
        sub = watcher.subscribe("totals")

        # two full windows, then tuples of the in-flight third window;
        # the second batch is stamped for the post-failover replay proof
        pconn.ingest("s", [(i, float(i)) for i in range(1, 10)])
        pconn.ingest("s", [(i, 10.0 + i) for i in range(1, 6)],
                     sender="smoke", seq=7)
        # closes (10,20]; 21.0 in flight
        pconn.ingest("s", [(0, 21.0)], sender="smoke", seq=8)

        # event-time watermark: out-of-order rows plus an explicit
        # injection; the ack must carry the injected value back
        ev_ack = pconn.ingest("ev", [(1, 30.0), (2, 12.0)], watermark=42.0)
        if ev_ack.watermark != 42.0:
            fail(f"ingest ack watermark wrong: {ev_ack.watermark!r}")
        print(f"event-time watermark injected: {ev_ack.watermark}")

        got = list(sub.wait_windows(2, timeout=15.0))
        print(f"pre-crash windows: {[(w.close_time, w.rows) for w in got]}")

        # wait for the standby to be fully caught up
        sconn = client.connect(host, sport)
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            rows = sconn.query(
                "SELECT lag FROM repro_replication_status").rows
            if rows and rows[0][0] == 0:
                break
            time.sleep(0.2)
        else:
            fail(f"standby never caught up: {rows}")
        print("standby lag: 0")

        # kill -9 the primary mid-window
        prim.send_signal(signal.SIGKILL)
        prim.wait(timeout=10)
        print("primary SIGKILLed")

        # the standby promotes itself after missed heartbeats
        deadline = time.monotonic() + 30.0
        role = None
        while time.monotonic() < deadline:
            try:
                role = sconn.query(
                    "SELECT role FROM repro_replication_status").scalar()
            except Exception:
                role = None
            if role == "primary":
                break
            time.sleep(0.3)
        if role != "primary":
            fail(f"standby never promoted (role={role!r})")
        print("standby promoted")

        # continue the stream on the new primary — but first, retry the
        # stamped pre-crash batch verbatim: its dedup marker travelled
        # in the shipped WAL, so the promoted standby must recognise
        # the replay and apply zero rows
        nconn = client.connect(host, sport)
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            names = [r[0] for r in nconn.query(
                "SELECT name FROM repro_streams").rows]
            if "s" in names:
                break
            time.sleep(0.2)
        else:
            fail(f"promoted standby never rebuilt the pipeline: {names}")
        retry = nconn.ingest("s", [(i, 10.0 + i) for i in range(1, 6)],
                             sender="smoke", seq=7)
        if retry.accepted != 0 or retry.duplicate != 5:
            fail(f"replayed batch was not deduplicated: {retry!r}")
        print(f"replayed batch ack: {retry!r}")
        # the in-flight batch: whole or not at all, never twice
        acks = [nconn.ingest("s", [(0, 21.0)], sender="smoke", seq=8)
                for _attempt in range(2)]
        if acks[0].accepted + acks[0].duplicate != 1 \
                or (acks[1].accepted, acks[1].duplicate) != (0, 1):
            fail(f"in-flight batch was not acked exactly once: {acks!r}")
        print(f"in-flight batch acks: {acks!r}")

        # the shipped watermark survived promotion, exactly
        wm = nconn.query("SELECT watermark FROM repro_watermarks "
                         "WHERE stream = 'ev'").scalar()
        if float(wm) != 42.0:
            fail(f"watermark regressed on promotion: {wm!r}")
        print(f"promoted standby watermark: {float(wm)}")
        nconn.ingest("s", [(i, 20.0 + i) for i in range(2, 8)])
        nconn.ingest("s", [(0, 31.0)])    # closes (20,30]

        deadline = time.monotonic() + 30.0
        while len(got) < 3 and time.monotonic() < deadline:
            got.extend(sub.poll(timeout=0.5))
        if len(got) < 3:
            fail(f"missing post-failover window: "
                 f"{[(w.close_time, w.rows) for w in got]}")
        if watcher.failovers < 1:
            fail("client never failed over")

        closes = [w.close_time for w in got]
        if closes != sorted(set(closes)):
            fail(f"duplicate or out-of-order windows: {closes}")
        if closes[:3] != [10.0, 20.0, 30.0]:
            fail(f"gap in window sequence: {closes}")
        # (20,30] = 0@21 (shipped pre-crash, rebuilt from the active
        # table at promotion; re-sent twice above, counted once)
        # + 2..7@22..27 (post-failover) = 7 tuples
        third = got[2]
        if third.rows != [(7, 30.0)]:
            fail(f"wrong post-failover window: {third.rows}")
        print(f"all windows: {[(w.close_time, w.rows) for w in got]}")
        print(f"client failovers: {watcher.failovers}")

        # reboot the SIGKILLed primary on its own data dir: crash
        # recovery must land the watermark exactly where it was durable
        prim2, rhost, rport = boot(
            ["--data-dir", os.path.join(workdir, "primary"),
             "--retention", "600"])
        rconn = client.connect(rhost, rport)
        wm = rconn.query("SELECT watermark FROM repro_watermarks "
                         "WHERE stream = 'ev'").scalar()
        if float(wm) != 42.0:
            fail(f"watermark regressed on kill -9 restart: {wm!r}")
        print(f"rebooted primary watermark: {float(wm)}")
        rconn.close()
        prim2.kill()
        prim2.wait()

        watcher.close()
        sconn.close()
        nconn.close()
        pconn.close()
        print("FAILOVER SMOKE OK")
    finally:
        for proc in (prim, stby):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
