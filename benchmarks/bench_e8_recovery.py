"""E8 — recovery: operator checkpointing vs rebuild-from-active-tables.

Section 4: checkpointing "is hard to implement correctly and requires
every operator to be taught how to recover its state"; with active
tables one can "instead implement a strategy that rebuilds runtime state
from disk automatically".  Correctness is equal (both resume exactly);
the measurable trade is steady-state overhead — checkpoints pay WAL
writes on every window — versus recovery-time work.  We run the same
crash scenario under both strategies and report both sides of the trade.
"""

import time

from repro import Database
from repro.bench.harness import format_table
from repro.sql import parse_statement
from repro.streaming.cq import ContinuousQuery
from repro.streaming.recovery import (
    CheckpointManager,
    recover_from_active_table,
)

CQ_SQL = ("SELECT url, count(*) scnt, cq_close(*) FROM clicks "
          "<VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url")
MINUTES = 20
CRASH_AT = 12
PER_MINUTE = 200


def make_db():
    db = Database(stream_retention=3600.0, buffer_pages=128)
    db.execute("CREATE STREAM clicks (url varchar(100), "
               "ts timestamp CQTIME USER, ip varchar(20))")
    db.execute("CREATE TABLE archive (url varchar(100), scnt integer, "
               "stime timestamp)")
    return db


def events(minute_from, minute_to):
    out = []
    for minute in range(minute_from, minute_to):
        for i in range(PER_MINUTE):
            out.append((f"/p{i % 7}", minute * 60.0 + 0.1 + i * 0.25, "x"))
    return out


def archive_sink(db):
    table = db.get_table("archive")

    def sink(_kind, rows, open_time, close_time):
        txn = db.txn_manager.begin()
        for row in rows:
            table.insert(txn, row)
        txn.commit()
    return sink


def scenario(strategy):
    db = make_db()
    cq = db.runtime.create_cq(parse_statement(CQ_SQL), name="rollup")
    cq.add_sink(archive_sink(db))
    if strategy == "checkpoint":
        CheckpointManager(cq, db.storage.wal, every_windows=1)

    steady_before = db.io_snapshot()
    db.insert_stream("clicks", events(0, CRASH_AT))
    db.advance_streams(CRASH_AT * 60.0)
    steady_io = db.io_snapshot() - steady_before

    # crash: runtime state is gone; tables/WAL/stream tail survive
    db.runtime.stop_cq(cq)

    recovery_before = db.io_snapshot()
    started = time.perf_counter()
    new_cq = ContinuousQuery("rollup", parse_statement(CQ_SQL),
                             db.catalog, db.txn_manager)
    new_cq.add_sink(archive_sink(db))
    if strategy == "checkpoint":
        CheckpointManager.recover(new_cq, db.storage.wal)
    else:
        recover_from_active_table(new_cq, db.get_table("archive"),
                                  db.txn_manager, "stime")
    new_cq.attach()
    recovery_wall = time.perf_counter() - started
    recovery_io = db.io_snapshot() - recovery_before

    db.insert_stream("clicks", events(CRASH_AT, MINUTES))
    db.advance_streams(MINUTES * 60.0)
    archive = sorted(db.table_rows("archive"))
    return steady_io, recovery_io, recovery_wall, archive


def reference_archive():
    db = make_db()
    cq = db.runtime.create_cq(parse_statement(CQ_SQL), name="rollup")
    cq.add_sink(archive_sink(db))
    db.insert_stream("clicks", events(0, MINUTES))
    db.advance_streams(MINUTES * 60.0)
    return sorted(db.table_rows("archive"))


def test_e8_recovery_strategies(benchmark, report):
    report.experiment_id = "E8_recovery"
    reference = reference_archive()

    ckpt_steady, ckpt_rec, ckpt_wall, ckpt_archive = scenario("checkpoint")
    at_steady, at_rec, at_wall, at_archive = scenario("active_table")

    # both strategies recover to exactly the uninterrupted archive
    assert ckpt_archive == reference
    assert at_archive == reference

    disk = Database().disk  # for the cost model conversion only
    rows = [
        ["checkpoint every window",
         ckpt_steady.pages_written,
         round(disk.elapsed_seconds(ckpt_steady), 4),
         ckpt_rec.pages_read, round(ckpt_wall * 1e3, 2), "yes"],
        ["rebuild from active table (paper)",
         at_steady.pages_written,
         round(disk.elapsed_seconds(at_steady), 4),
         at_rec.pages_read, round(at_wall * 1e3, 2), "yes"],
    ]
    text = format_table(
        ["strategy", "steady-state pages written", "steady-state sim s",
         "recovery pages read", "recovery wall ms", "output exact"],
        rows,
        title=f"E8: crash at minute {CRASH_AT} of {MINUTES} — recovery "
              "correctness and the steady-state-overhead trade (Section 4)")
    print("\n" + text)
    report.add(text)

    # shape: the active-table strategy pays ~nothing during normal
    # operation (only the channel's own writes), checkpointing pays
    # per-window WAL flushes
    assert ckpt_steady.pages_written > at_steady.pages_written + CRASH_AT - 2

    benchmark.pedantic(lambda: scenario("active_table"),
                       rounds=1, iterations=1)
