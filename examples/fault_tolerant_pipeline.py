"""Crash and recover a continuous query from its Active Table.

Section 4's recovery argument, demonstrated: a rollup CQ archives into
an active table; we kill it mid-stream, rebuild its runtime state from
the archive's high-water mark plus a short stream replay, and show the
final archive is byte-identical to an uninterrupted run — with zero
extra I/O paid during normal operation.

Run:  python examples/fault_tolerant_pipeline.py
"""

from repro import Database
from repro.sql import parse_statement
from repro.streaming.cq import ContinuousQuery
from repro.streaming.recovery import recover_from_active_table

MINUTE = 60.0
CQ_SQL = """
    SELECT url, count(*) AS hits, cq_close(*)
    FROM clicks <VISIBLE '2 minutes' ADVANCE '1 minute'>
    GROUP BY url
"""


def make_db():
    db = Database(stream_retention=3600.0)
    db.execute("CREATE STREAM clicks (url varchar(100), "
               "ts timestamp CQTIME USER)")
    db.execute("CREATE TABLE archive (url varchar(100), hits integer, "
               "stime timestamp)")
    return db


def attach_archiving_cq(db, name="rollup"):
    cq = db.runtime.create_cq(parse_statement(CQ_SQL), name=name)
    table = db.get_table("archive")

    def sink(_kind, rows, open_time, close_time):
        txn = db.txn_manager.begin()
        for row in rows:
            table.insert(txn, row)
        txn.commit()
    cq.add_sink(sink)
    return cq, sink


def minute_of_traffic(minute):
    base = minute * MINUTE
    return [(f"/page{i % 3}", base + 1.0 + i) for i in range(20)]


def main():
    db = make_db()
    cq, sink = attach_archiving_cq(db)

    print("feeding minutes 0-5 ...")
    for minute in range(5):
        db.insert_stream("clicks", minute_of_traffic(minute))
    db.advance_streams(5 * MINUTE)
    print(f"  archive rows so far: {len(db.table_rows('archive'))}")

    print("\nCRASH: killing the CQ (runtime state lost; tables and the "
          "stream's retained tail survive)")
    db.runtime.stop_cq(cq)

    print("recovering from the active table ...")
    new_cq = ContinuousQuery("rollup", parse_statement(CQ_SQL),
                             db.catalog, db.txn_manager)
    new_cq.add_sink(sink)
    replay_from = recover_from_active_table(
        new_cq, db.get_table("archive"), db.txn_manager, "stime")
    new_cq.attach()
    print(f"  archive high-water mark found; stream replayed from "
          f"t={replay_from:.0f}s")

    print("\nfeeding minutes 5-9 ...")
    for minute in range(5, 9):
        db.insert_stream("clicks", minute_of_traffic(minute))
    db.advance_streams(9 * MINUTE)

    # reference: the same workload with no crash
    ref_db = make_db()
    attach_archiving_cq(ref_db)
    for minute in range(9):
        ref_db.insert_stream("clicks", minute_of_traffic(minute))
    ref_db.advance_streams(9 * MINUTE)

    recovered = sorted(db.table_rows("archive"))
    reference = sorted(ref_db.table_rows("archive"))
    print(f"\nrecovered archive: {len(recovered)} rows; "
          f"uninterrupted run: {len(reference)} rows")
    print("archives identical:", recovered == reference)
    assert recovered == reference


if __name__ == "__main__":
    main()
