#!/usr/bin/env python
"""CI smoke test for the network server.

Starts ``repro-server`` as a real subprocess on a data directory,
connects with the client library and drives the full stack the way a
deployment would — separate processes, a real TCP socket:

1. the client ingests a micro-batch (a **row-block** frame) and a raw
   socket that never says ``hello`` sends one **version 1 JSON**
   ``ingest`` frame beside it; both must land in the same window of a
   subscribed derived stream;
2. a second block batch — idempotent, stamped ``(sender, seq)`` — is
   left in an open window and the server is ``kill -9``-ed; a fresh
   process reopens the data directory, replays the block records from
   the log, is re-sent that batch (the client cannot know its ack was
   the last thing the dead server did), and must close the window with
   exactly the rows acknowledged before the kill;
3. that server is ``kill -9``-ed too: the third process must find the
   same window in the archive, still know the batch, and still close
   windows;
4. on that server, with ``SET supervision = on``, an ad-hoc CQ with a
   poison expression meets two poison windows: each must be one
   ``poison-window`` dead letter, the CQ must run on, and unsubscribing
   must bring the stream's consumer count in ``repro_streams`` back to
   what it was before the subscribe;
5. the third server shuts down gracefully over the protocol and must
   exit 0;
6. ``repro-server --archive-dir X`` without ``--data-dir`` must exit
   non-zero before printing a banner: log options need a log directory,
   and the server must not quietly run on an in-memory log instead.

The archived CQ projects a timestamp (``max(ts)``) *after* its
``cq_close(*)``: a boot after ``kill -9`` must re-grid the windows on
the close column, not on the last timestamp column, so every window is
compared with a never-crashed embedded engine fed the same rows.

Run from the repository root::

    PYTHONPATH=src python scripts/server_smoke.py
"""

import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time


def fail(message):
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def boot(data_dir):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0",
         "--data-dir", data_dir, "--retention", "600"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    banner = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", banner)
    if not match:
        proc.kill()
        fail(f"no banner, got {banner!r}")
    print(f"server up at {match.group(1)}:{match.group(2)}")
    return proc, match.group(1), int(match.group(2))


def json_ingest(host, port, rows):
    """One version 1 frame from a bare socket: no hello, JSON rows."""
    from repro.server import protocol
    frame = protocol.encode_frame(
        {"id": 1, "op": "ingest", "stream": "s",
         "rows": [list(row) for row in rows]})
    if frame[4:5] != b"{":
        fail("the hand-made version 1 frame is not a JSON body")
    with socket.create_connection((host, port), timeout=10.0) as raw:
        raw.sendall(frame)
        decoder = protocol.FrameDecoder()
        answers = []
        while not answers:
            answers = decoder.feed(raw.recv(65536))
    if not answers[0].get("ok") or answers[0].get("accepted") != len(rows):
        fail(f"version 1 ingest was not accepted whole: {answers[0]}")


PIPELINE = (
    "CREATE STREAM s (v integer, ts timestamp CQTIME USER)",
    "CREATE STREAM agg AS SELECT sum(v) total, cq_close(*), "
    "max(ts) newest FROM s <VISIBLE '10 seconds'>",
    "CREATE TABLE archive (total bigint, ts timestamp, newest timestamp)",
    "CREATE CHANNEL arch FROM agg INTO archive APPEND",
)


def never_crashed(batches, until):
    """The archive of one embedded engine that saw every batch."""
    from repro import Database
    db = Database()
    for statement in PIPELINE:
        db.execute(statement)
    for batch in batches:
        db.insert_stream("s", batch)
    db.advance_streams(until)
    return sorted(db.table_rows("archive"), key=lambda row: row[1])


def resend(conn, batch):
    """The client's retry of its last batch: a duplicate, whole."""
    ack = conn.ingest("s", batch, sender="smoke", seq=1)
    if (ack.accepted, ack.duplicate) != (0, len(batch)):
        fail(f"re-sent batch was not recognised: {ack!r}")


def poison_leg(conn):
    """Two poison windows are two dead letters and the CQ runs on;
    unsubscribing stops it."""
    conn.execute("SET supervision = on")
    conn.execute("CREATE STREAM p (v integer, ts timestamp CQTIME USER)")
    consumers = "SELECT consumers FROM repro_streams WHERE name = 'p'"
    before = conn.query(consumers).rows
    sub = conn.execute("SELECT 10 / sum(v) AS r FROM p "
                       "<VISIBLE '10 seconds'>")
    for close in (40.0, 50.0):              # two poison windows
        conn.ingest("p", [(0, close - 5.0)])
        conn.advance(close)
    letters = conn.query("SELECT kind, close_time FROM repro_dead_letters "
                         "WHERE source = ?", (sub.name,)).rows
    if letters != [("poison-window", 40.0), ("poison-window", 50.0)]:
        fail(f"two poison windows are not two dead letters: {letters}")
    sub.unsubscribe()
    after = conn.query(consumers).rows
    if after != before:
        fail(f"unsubscribing the CQ left consumers {after} on the stream "
             f"(before the subscribe: {before})")
    print(f"two poison windows quarantined, CQ stopped by its "
          f"unsubscribe: consumers {after}")


def refusal_leg(scratch):
    """Log options without a log directory are a usage error."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0",
         "--archive-dir", scratch],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("--archive-dir without --data-dir served instead of exiting")
    if proc.returncode == 0 or "listening on" in out:
        fail(f"--archive-dir without --data-dir: exit {proc.returncode}, "
             f"stdout {out!r}")
    print("--archive-dir without --data-dir refused: "
          f"{err.strip().splitlines()[-1]}")


def main():
    import repro.client
    from repro.server import protocol

    # (0, 10): the first half from the client, the second as JSON;
    # (10, 20): left open across the kill
    blocked = [(i, i / 5) for i in range(1, 21)]
    plain = [(100 + i, 5.0 + i / 2) for i in range(8)]
    in_flight = [(2 * i, 10.0 + i / 5) for i in range(1, 21)]
    if protocol.encode_frame({}, blocked)[4:5] != protocol.BLOCK_BODY:
        fail("the client's batches would not be sent as row blocks")
    last = [(5, 25.0)]
    reference = never_crashed([blocked, plain, in_flight, last], 30.0)
    if [row[1] for row in reference] != [10.0, 20.0, 30.0]:
        fail(f"reference archive: {reference}")

    data_dir = tempfile.mkdtemp(prefix="repro-smoke-")
    proc = None
    try:
        proc, host, port = boot(data_dir)
        with repro.client.connect(host, port) as conn:
            if (conn.protocol_version or 0) < 2:
                fail(f"server speaks protocol {conn.protocol_version}")
            for statement in PIPELINE:
                conn.execute(statement)
            sub = conn.subscribe("agg")

            accepted = conn.ingest("s", blocked)
            if accepted != len(blocked):
                fail(f"ingest accepted {accepted}, wanted {len(blocked)}")
            json_ingest(host, port, plain)
            # closes (0, 10)
            accepted = conn.ingest("s", in_flight, sender="smoke", seq=1)
            if accepted != len(in_flight):
                fail(f"ingest accepted {accepted}, wanted {len(in_flight)}")

            windows = sub.wait_windows(1, timeout=10.0)
            if reference[0][0] != sum(v for v, _t in blocked + plain):
                fail(f"reference window (0, 10): {reference[0]}")
            if windows[0].rows != reference[:1]:
                fail(f"wrong window rows: {windows[0].rows}, wanted the "
                     f"block and the JSON rows together: {reference[0]}")
            print(f"window ok (block + JSON rows): {windows[0].rows}")

            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            print("server SIGKILLed with a window open")

        proc, host, port = boot(data_dir)
        with repro.client.connect(host, port) as conn:
            archived = conn.query("SELECT * FROM archive").rows
            if archived != reference[:1]:
                fail(f"archive after restart: {archived}")
            sub = conn.subscribe("agg")
            resend(conn, in_flight)
            conn.advance(20.0)
            windows = sub.wait_windows(1, timeout=10.0)
            if windows[0].rows != reference[1:2]:
                fail(f"window rebuilt from replayed block records: "
                     f"{windows[0].rows}, wanted {reference[1]}")
            print(f"replayed window ok: {windows[0].rows}")

            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            print("second server SIGKILLed after the re-send")

        proc, host, port = boot(data_dir)
        with repro.client.connect(host, port) as conn:
            archived = conn.query("SELECT * FROM archive ORDER BY ts").rows
            if archived != reference[:2]:
                fail(f"archive after the second restart: {archived}")
            sub = conn.subscribe("agg")
            resend(conn, in_flight)
            conn.ingest("s", last)
            conn.advance(30.0)
            windows = sub.wait_windows(1, timeout=10.0)
            if windows[0].rows != reference[2:]:
                fail(f"window after the second restart: {windows[0].rows}")
            print(f"second restart ok: {archived}, then {windows[0].rows}")
            archived = conn.query("SELECT * FROM archive ORDER BY ts").rows
            if archived != reference:
                fail(f"archive {archived} is not the never-crashed "
                     f"engine's {reference}")
            print("archive equals the never-crashed reference")
            poison_leg(conn)

            conn.shutdown_server()
            deadline = time.monotonic() + 10.0
            while conn.server_goodbye is None \
                    and time.monotonic() < deadline:
                sub.poll(timeout=0.2)
            if conn.server_goodbye is None:
                fail("no goodbye frame from graceful shutdown")
            print(f"goodbye: {conn.server_goodbye}")

        code = proc.wait(timeout=10)
        if code != 0:
            fail(f"server exited {code}")
        refusal_leg(os.path.join(data_dir, "refused-archive"))
        print("SMOKE OK")
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
