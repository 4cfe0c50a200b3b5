"""Tests for CQ recovery: rebuild-from-active-tables.

The crash model: the CQ (runtime state) dies; tables, the WAL and the
stream's retained tail survive.  A recovered CQ must resume producing
exactly the windows an uninterrupted run would have produced
(``tests/test_differential.py`` draws reopened and promoted lives;
these pin what it does not: refusals, the close column's place, a late
row replayed at boot).  A live CQ is never rebuilt: poison windows are
quarantined and the CQ runs on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.errors import RecoveryError
from repro.streaming.cq import ContinuousQuery
from repro.streaming.recovery import recover_from_active_table
from repro.sql import parse_statement

CQ_SQL = ("SELECT url, count(*) scnt, cq_close(*) FROM clicks "
          "<VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url")


def make_db():
    db = Database(stream_retention=3600.0)
    db.execute("CREATE STREAM clicks (url varchar(100), "
               "ts timestamp CQTIME USER, ip varchar(20))")
    return db


def events(start_minute, end_minute):
    out = []
    for minute in range(start_minute, end_minute):
        out.append((f"/p{minute % 2}", minute * 60.0 + 5, "x"))
        out.append(("/p0", minute * 60.0 + 30, "x"))
    return out


def run_uninterrupted(total_minutes=8):
    """Reference output: the same workload with no crash."""
    db = make_db()
    sub = db.subscribe(CQ_SQL)
    db.insert_stream("clicks", events(0, total_minutes))
    db.advance_streams(total_minutes * 60.0)
    return [(w.close_time, sorted(w.rows)) for w in sub.poll()]


class TestActiveTableRecovery:
    def build_pipeline(self, db):
        db.execute("CREATE TABLE archive (url varchar(100), scnt integer, "
                   "stime timestamp)")
        cq = db.runtime.create_cq(parse_statement(CQ_SQL))
        table = db.get_table("archive")

        def archive_sink(_kind, rows, open_time, close_time):
            txn = db.txn_manager.begin()
            for row in rows:
                table.insert(txn, row)
            txn.commit()
        cq.add_sink(archive_sink)
        return cq, table, archive_sink

    def test_poison_windows_leave_the_rest_uninterrupted(self):
        """Two consecutive poison windows are quarantined, and the CQ
        keeps its window state: every other window is archived as a
        fault-free run archives it, once, and each missing window is a
        dead letter."""
        from collections import Counter
        from repro.faults import FaultInjector

        def run(injector):
            db = Database(supervised=injector is not None,
                          stream_retention=3600.0, fault_injector=injector)
            db.execute("CREATE STREAM clicks (url varchar(100), "
                       "ts timestamp CQTIME USER, ip varchar(20))")
            db.execute(f"CREATE STREAM agg AS {CQ_SQL}")
            db.execute("CREATE TABLE archive (url varchar(100), "
                       "scnt integer, stime timestamp)")
            db.execute("CREATE CHANNEL ch FROM agg INTO archive APPEND")
            db.insert_stream("clicks", events(0, 8))
            db.advance_streams(480.0)
            return db

        injector = FaultInjector()
        injector.arm("cq.window", after=2, count=2)
        faulted = run(injector)
        reference = run(None)
        letters = faulted.supervisor.dead_letter_rows()
        assert [row[2] for row in letters] == ["poison-window"] * 2
        lost = [row[7] for row in letters]
        assert lost == [180.0, 240.0]
        assert sorted(faulted.table_rows("archive")) == sorted(
            row for row in reference.table_rows("archive")
            if row[2] not in lost)
        assert Counter(r[2] for r in faulted.table_rows("archive")) \
            == Counter(r[2] for r in reference.table_rows("archive")
                       if r[2] not in lost)

    def test_insufficient_retention_detected(self):
        db = Database(stream_retention=30.0)  # too short for a 2min window
        db.execute("CREATE STREAM clicks (url varchar(100), "
                   "ts timestamp CQTIME USER, ip varchar(20))")
        db.execute("CREATE TABLE archive (url varchar(100), scnt integer, "
                   "stime timestamp)")
        cq = db.runtime.create_cq(parse_statement(CQ_SQL))
        table = db.get_table("archive")
        txn = db.txn_manager.begin()
        table.insert(txn, ("/p0", 1, 240.0))
        txn.commit()
        db.insert_stream("clicks", events(0, 8))
        db.runtime.stop_cq(cq)
        fresh = ContinuousQuery("fresh", parse_statement(CQ_SQL),
                                db.catalog, db.txn_manager)
        with pytest.raises(RecoveryError):
            recover_from_active_table(fresh, table, db.txn_manager, "stime")

    def test_retention_gap_error_names_missing_range(self):
        """When the stream's shed-oldest retention has already dropped
        the tail the in-flight window needs, recovery must fail loudly
        and say exactly which range is missing — silently rebuilding a
        short window would archive wrong aggregates forever."""
        db = Database(stream_retention=30.0)
        db.execute("CREATE STREAM clicks (url varchar(100), "
                   "ts timestamp CQTIME USER, ip varchar(20))")
        db.execute("CREATE TABLE archive (url varchar(100), scnt integer, "
                   "stime timestamp)")
        cq = db.runtime.create_cq(parse_statement(CQ_SQL))
        table = db.get_table("archive")
        txn = db.txn_manager.begin()
        table.insert(txn, ("/p0", 1, 240.0))   # archive high-water: 240
        txn.commit()
        db.insert_stream("clicks", events(0, 8))
        db.runtime.stop_cq(cq)
        stream = db.catalog.get_relation("clicks")
        # the tail the next window needs starts at 240 + 60 - 120 = 180,
        # but shed-oldest has already evicted everything before horizon
        needed = 180.0
        assert stream.replay_horizon() > needed
        fresh = ContinuousQuery("fresh", parse_statement(CQ_SQL),
                                db.catalog, db.txn_manager)
        with pytest.raises(RecoveryError) as info:
            recover_from_active_table(fresh, table, db.txn_manager, "stime")
        message = str(info.value)
        assert "clicks" in message
        assert f"need {needed}" in message
        assert f"have {stream.replay_horizon()}" in message


# ---------------------------------------------------------------------------
# the close column is a fact of the channel, not a guess about the table
# ---------------------------------------------------------------------------

#: select list of the archived CQ -> the active table's columns (mapped
#: positionally, so the table may name them differently)
ARCHIVES = {
    "close-first-timestamp-last": (
        "cq_close(*) AS stime, count(*) AS n, max(ts) AS last_seen",
        "stime timestamp, n integer, last_seen timestamp"),
    "close-in-the-middle": (
        "count(*) AS n, cq_close(*), max(ts) AS last_seen",
        "n integer, closed timestamp, last_seen timestamp"),
    "close-last-aliased": (
        "min(ts) AS first_seen, count(*) AS n, cq_close(*) AS closed_at",
        "first_seen timestamp, n integer, closed_at timestamp"),
}
NO_CLOSE = ("count(*) AS n, max(ts) AS last_seen",
            "n integer, last_seen timestamp")
BEFORE = [1.0, 3.0, 12.0, 17.0, 23.0, 24.0]     # window 30 is open
AFTER = [26.0, 31.0, 38.0, 45.0]


def archived_pipeline(db, select, columns):
    db.execute("CREATE STREAM s (k varchar(10), v integer, "
               "ts timestamp CQTIME USER)")
    db.execute(f"CREATE STREAM agg AS SELECT {select} FROM s "
               "<VISIBLE '10 seconds' ADVANCE '10 seconds'>")
    db.execute(f"CREATE TABLE arch ({columns})")
    db.execute("CREATE CHANNEL ch FROM agg INTO arch APPEND")


def feed(db, times):
    for when in times:
        db.insert_stream("s", [("a", 1, when)])


def archive(db):
    return sorted(db.table_rows("arch"), key=repr)  # an empty window: NULLs


def never_crashed(select, columns):
    db = Database(stream_retention=3600.0)
    archived_pipeline(db, select, columns)
    feed(db, BEFORE + AFTER)
    db.advance_streams(60.0)
    return db


@pytest.mark.parametrize("shape", sorted(ARCHIVES))
class TestCloseColumnIsAFact:
    """A boot or a promotion re-grids the CQ on the column its bare
    ``cq_close(*)`` lands in — wherever the select list puts it,
    whatever the table calls it, whatever other timestamps sit beside
    it — and archives exactly what a never-crashed run archives."""

    def want(self, shape):
        rows = archive(never_crashed(*ARCHIVES[shape]))
        assert len(rows) == 6
        return rows

    def test_channel_knows_its_close_column(self, shape):
        from repro.streaming.channels import archive_of
        db = never_crashed(*ARCHIVES[shape])
        channel = archive_of(db.catalog.get_relation("agg"))
        position = [c.name for c in channel.table.schema].index(
            channel.close_column)
        assert sorted({row[position] for row in db.table_rows("arch")}) \
            == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]

    @pytest.mark.parametrize("options", [{"stream_retention": 3600.0}, {}],
                             ids=["retention", "no-retention"])
    def test_open_database(self, shape, options, tmp_path):
        from repro.replication import open_database
        db = open_database(str(tmp_path), **options)
        archived_pipeline(db, *ARCHIVES[shape])
        feed(db, BEFORE)
        db.close()
        db = open_database(str(tmp_path), **options)
        assert db.recovery_stats["cqs"] == [("derived:agg", "active-table")]
        if not options:
            # what the log held was kept for the rebuild, and only for it
            assert db.get_stream("s").replay_horizon() == float("inf")
        feed(db, AFTER)
        db.advance_streams(60.0)
        assert archive(db) == self.want(shape)
        db.close()

    def test_promoted_applier(self, shape, tmp_path):
        from repro.replication import open_database
        from repro.replication.bootstrap import WalApplier
        from repro.storage.wal import record_to_wire
        primary = open_database(wal_path=str(tmp_path / "wal"),
                                stream_retention=3600.0)
        archived_pipeline(primary, *ARCHIVES[shape])
        feed(primary, BEFORE)
        primary.storage.wal.flush()
        shipped = [{"records": [
            record_to_wire(r) for r in primary.storage.wal.durable_records()]}]
        standby = Database(stream_retention=3600.0)
        applier = WalApplier(standby)
        assert applier.apply_batches(shipped) == primary.storage.wal.head_lsn
        assert applier.promote() == [("derived:agg", "active-table")]
        feed(standby, AFTER)
        standby.advance_streams(60.0)
        assert archive(standby) == self.want(shape)
        primary.close()

    def test_resubscription_replays_the_archive_as_the_tail_would(
            self, shape, tmp_path):
        from repro.replication import open_database
        from repro.replication.bootstrap import replay_derived_windows
        reference = never_crashed(*ARCHIVES[shape])
        want = reference.catalog.get_relation("agg").replay_windows(0.0)
        assert [close for _open, close, _rows in want] \
            == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
        db = open_database(str(tmp_path), stream_retention=3600.0)
        archived_pipeline(db, *ARCHIVES[shape])
        feed(db, BEFORE)
        db.close()
        db = open_database(str(tmp_path), stream_retention=3600.0)
        feed(db, AFTER)
        db.advance_streams(60.0)
        derived = db.catalog.get_relation("agg")
        # the restart emptied the window tail: 10 and 20 are archive-only
        assert derived.replay_windows(0.0)[0][1] == 30.0
        got = replay_derived_windows(db, derived, 0.0)
        assert [(o, c, [tuple(r) for r in rows]) for o, c, rows in got] \
            == [(o, c, [tuple(r) for r in rows]) for o, c, rows in want]
        db.close()


class TestReplayMeetsWhatLiveMet:
    """A replay walks the tail as the live stream delivered it, and what
    the live rows already did is not done again."""

    def test_a_restart_files_a_late_row_once(self, tmp_path):
        """A boot replays the tail holding the late row at 21: it was
        dead-lettered when it arrived, and is not filed again."""
        from repro.replication import open_database
        db = open_database(str(tmp_path), supervised=True,
                           stream_retention=3600.0)
        db.execute("CREATE STREAM s (k varchar(8), v integer, "
                   "ts timestamp CQTIME USER) WATERMARK '2 seconds'")
        db.execute_script("""
            CREATE STREAM agg AS SELECT k, count(*) AS n,
                cq_close(*) AS stime
                FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'>
                GROUP BY k EMIT ON WATERMARK
                ALLOW LATENESS '20 seconds' DEAD LETTER;
            CREATE TABLE arch (k varchar(8), n bigint, stime timestamp);
            CREATE CHANNEL ch FROM agg INTO arch APPEND;
        """)

        def late_letters():
            return [row for row in db.supervisor.dead_letter_rows()
                    if row[2] == "late-event"]

        for when in (1, 12, 22, 26, 21):
            db.insert_stream("s", [("a", 1, float(when))])
        assert len(late_letters()) == 1
        db.close()
        db = open_database(str(tmp_path), supervised=True,
                           stream_retention=3600.0)
        assert db.recovery_stats["cqs"] == [("derived:agg", "active-table")]
        # the replayed tail holds the row at 21 again: not a new letter
        assert late_letters() == []
        db.insert_stream("s", [("a", 1, 8.0)])
        assert len(late_letters()) == 1
        db.close()

    def test_a_boot_walks_past_a_window_that_raised_live(self, tmp_path):
        """Unsupervised, the window closed by the row at 22 divides by
        zero: the live insert raised, the live stream went on, and a
        boot replaying that tail goes on too."""
        from repro.replication import open_database

        def pipeline(db):
            db.execute_script("""
                CREATE STREAM s (k varchar(8), v integer,
                    ts timestamp CQTIME USER);
                CREATE STREAM agg AS SELECT k, count(*) AS n,
                    10 / (sum(v) - 0) AS r, cq_close(*) AS stime
                    FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'>
                    GROUP BY k;
                CREATE TABLE arch (k varchar(8), n bigint, r double,
                    stime timestamp);
                CREATE CHANNEL ch FROM agg INTO arch APPEND;
            """)
            return db

        before = [(1, 1.0), (1, 5.0), (1, 12.0), (0, 15.0), (-1, 18.0),
                  (1, 22.0), (2, 25.0)]

        def feed_rows(db, rows):
            for v, when in rows:
                try:
                    db.insert_stream("s", [("a", v, when)])
                except Exception as exc:
                    assert when == 22.0 and "division by zero" in str(exc)

        reference = pipeline(Database(stream_retention=3600.0))
        feed_rows(reference, before + [(1, 31.0)])
        want = archive(reference)
        assert want == [("a", 1, 5.0, 30.0), ("a", 2, 5.0, 10.0)]
        db = pipeline(open_database(str(tmp_path), stream_retention=3600.0))
        feed_rows(db, before)
        db.close()
        db = open_database(str(tmp_path), stream_retention=3600.0)
        assert db.recovery_stats["cqs"] == [("derived:agg", "active-table")]
        feed_rows(db, [(1, 31.0)])
        assert archive(db) == want
        db.close()


class TestNoCloseColumnNoGuess:
    """A CQ that does not project a bare ``cq_close(*)`` has no
    active-table rung: the last timestamp column is not a stand-in."""

    def test_restart_is_cold_and_stays_on_the_epoch_grid(self, tmp_path):
        from repro.replication import open_database
        from repro.streaming.channels import archive_of
        db = open_database(str(tmp_path), stream_retention=3600.0)
        archived_pipeline(db, *NO_CLOSE)
        assert archive_of(
            db.catalog.get_relation("agg")).close_column is None
        sub = db.subscribe("SELECT * FROM agg")
        feed(db, BEFORE)
        assert [w.close_time for w in sub.poll()] == [10.0, 20.0]
        db.close()
        db = open_database(str(tmp_path), stream_retention=3600.0)
        assert db.recovery_stats["cqs"] == [("derived:agg", "cold")]
        closes = []
        db.catalog.get_relation("agg").cq.add_sink(
            lambda _kind, rows, open_time, close_time:
            closes.append(close_time))
        feed(db, AFTER)
        db.advance_streams(60.0)
        assert closes == [30.0, 40.0, 50.0, 60.0]
        db.close()

    def test_an_unsupervised_cold_promotion_shows_in_the_status_view(
            self, tmp_path):
        """A standby trims its tails to retention as it follows, so the
        open window's rows are gone by its promotion: the CQ comes back
        cold, and says so in ``repro_supervisor_status`` with nothing
        supervised."""
        from repro.replication import open_database
        db = open_database(str(tmp_path))
        archived_pipeline(db, *ARCHIVES["close-last-aliased"])
        feed(db, BEFORE)
        db.close()
        db = open_database(str(tmp_path), standby=True,
                           stream_retention=0.5)
        [(name, rung)] = db.applier.promote()
        assert rung.startswith("cold:") and "need 20.0" in rung
        assert db.supervisor is None
        assert db.query("SELECT name, kind, state, last_error FROM "
                        "repro_supervisor_status").rows == [
            (name, "recovery", "cold", rung[len("cold:"):])]

    @pytest.mark.parametrize("select, position", [
        ("*, cq_close(*)", 3), ("cq_close(*) AS c, *", 0),
        ("k, *, cq_close(*), v", 4), ("*, cq_close(*), *", None),
        ("cq_close(*) + 1 AS later, v", None),
    ])
    def test_a_star_widens_the_select_list(self, select, position):
        from repro.streaming.channels import _close_position
        db = Database()
        db.execute("CREATE STREAM s (k varchar(10), v integer, "
                   "ts timestamp CQTIME USER)")
        db.execute(f"CREATE STREAM d AS SELECT {select} FROM s "
                   "<VISIBLE '10 seconds'>")
        cq = db.catalog.get_relation("d").cq
        assert _close_position(cq) == position
        if position is not None:
            assert cq.output_schema.columns[position].datatype.sql_name() \
                .startswith("timestamp")


class TestRecordsFromEdges:
    """Direct contract tests for WriteAheadLog.records_from/head_lsn.

    These edges back the replication attach path: an empty log and a
    resume point past the head both mean "nothing to ship yet", never
    an error; a resume point inside a torn record resumes at the
    truncated (durable) head.
    """

    def test_empty_log(self):
        from repro.storage.wal import WriteAheadLog
        wal = WriteAheadLog()
        assert wal.head_lsn == 0
        assert wal.records_from(1) == []
        assert wal.records_from(100) == []

    def test_from_lsn_past_head_returns_nothing(self):
        from repro.storage.wal import WriteAheadLog
        wal = WriteAheadLog()
        for i in range(3):
            wal.append(1, "insert", "t", rid=(0, i), after=(i,))
        assert wal.head_lsn == 3
        assert wal.records_from(4) == []
        assert wal.records_from(99) == []
        assert [r.lsn for r in wal.records_from(3)] == [3]

    def test_from_lsn_clamps_below_one(self):
        from repro.storage.wal import WriteAheadLog
        wal = WriteAheadLog()
        wal.append(1, "insert", "t", rid=(0, 0), after=(1,))
        # 0 and negatives mean "from the beginning", not a gap error
        assert [r.lsn for r in wal.records_from(0)] == [1]
        assert [r.lsn for r in wal.records_from(-5)] == [1]

    def test_from_lsn_mid_torn_record(self, tmp_path):
        """A torn tail truncates the durable log; a resume point at or
        past the torn record finds nothing rather than garbage."""
        from repro.faults import FaultInjector
        from repro.storage.wal import WriteAheadLog
        path = str(tmp_path / "wal.jsonl")
        faults = FaultInjector(7)
        wal = WriteAheadLog(faults=faults, path=path)
        wal.append(1, "insert", "t", rid=(0, 1), after=(1, "a"))
        wal.append(1, "insert", "t", rid=(0, 2), after=(2, "b"))
        wal.flush()
        wal.append(2, "insert", "t", rid=(0, 3), after=(3, "c"))
        faults.arm("wal.torn_write", probability=1.0, count=1)
        wal.flush()                      # tears the lsn-3 record
        wal.close()

        reloaded = WriteAheadLog(path=path)
        assert reloaded.head_lsn == 2    # truncate-at-first-corrupt
        assert reloaded.records_from(3) == []
        assert [r.lsn for r in reloaded.records_from(2)] == [2]
        assert [r.lsn for r in reloaded.records_from(1)] == [1, 2]


# ---------------------------------------------------------------------------
# stream_rows: one WAL record per ingest batch
# ---------------------------------------------------------------------------

STREAM_DDL = "CREATE STREAM s (v integer, ts timestamp CQTIME USER)"
EVENT_TIME_DDL = ("CREATE STREAM s (v integer, ts timestamp CQTIME USER) "
                  "WATERMARK '5 seconds'")


def stream_tail(db, name="s"):
    return list(db.get_stream(name).replay_since(float("-inf")))


class TestBatchRecordRecovery:
    def test_fast_path_batch_is_one_record(self, tmp_path):
        from repro.replication import open_database
        db = open_database(wal_path=str(tmp_path / "wal"),
                           stream_retention=3600.0)
        db.execute(STREAM_DDL)
        db.insert_stream("s", [(i, float(i)) for i in range(50)])
        kinds = [r.kind for r in db.storage.wal.records]
        assert kinds.count("stream_rows") == 1
        assert all(r.is_valid() for r in db.storage.wal.records)
        db.close()

    def test_torn_batch_record_truncates_there(self, tmp_path):
        """``wal.torn_write`` tearing a batch record: the log ends at
        the record before it and none of its rows are recovered."""
        from repro.faults import FaultInjector
        from repro.replication import open_database
        wal_path = str(tmp_path / "wal")
        faults = FaultInjector(7)
        db = open_database(wal_path=wal_path, stream_retention=3600.0,
                           fault_injector=faults)
        db.execute(STREAM_DDL)
        kept = [(i, float(i)) for i in range(20)]
        db.insert_stream("s", kept)
        db.storage.wal.flush()
        head = db.storage.wal.head_lsn
        # unarmed while the rows go in (an armed injector sends them
        # down the per-row path), armed for the flush that tears them
        db.insert_stream("s", [(i, float(i)) for i in range(20, 40)])
        assert db.storage.wal.head_lsn == head + 1
        faults.arm("wal.torn_write", probability=1.0, count=1)
        db.storage.wal.flush()
        db.close()

        recovered = open_database(wal_path=wal_path,
                                  stream_retention=3600.0)
        try:
            assert recovered.storage.wal.head_lsn == head
            assert stream_tail(recovered) == [(t, (v, t)) for v, t in kept]
            assert recovered.recovery_stats["stream_tuples"] == len(kept)
            assert recovered.get_stream("s").watermark == 19.0
        finally:
            recovered.close()

    def test_close_flushes_the_stream_tail(self, tmp_path):
        """Plain ``insert_stream`` commits nothing, so its batch record
        sits in the WAL's buffer; ``close()`` flushes it — a reopen
        finds the tail without the caller flushing by hand."""
        from repro.replication import open_database
        wal_path = str(tmp_path / "wal")
        db = open_database(wal_path=wal_path, stream_retention=3600.0)
        db.execute(STREAM_DDL)
        rows = [(i, float(i)) for i in range(20)]
        db.insert_stream("s", rows)
        db.close()

        recovered = open_database(wal_path=wal_path,
                                  stream_retention=3600.0)
        try:
            assert [row for _t, row in stream_tail(recovered)] == rows
        finally:
            recovered.close()

    def test_legacy_per_tuple_segment_recovers(self, tmp_path):
        """A segment written before batch records — one ``stream_insert``
        line per tuple, spaced JSON — still opens: same tail, same
        watermark, marker-less batch rows discarded row by row."""
        import json
        import os
        from repro.replication import open_database
        from repro.storage.wal import LogRecord, record_to_wire
        reference = open_database(wal_path=str(tmp_path / "ref"))
        reference.execute(STREAM_DDL)
        ddl = next(r for r in reference.storage.wal.records
                   if r.kind == "ddl_obj")
        reference.close()
        ddl.payload["retention"] = 3600.0
        content = [ddl]
        for v in range(5):
            content.append(LogRecord(0, 0, "stream_insert", "s",
                                     after=(v, float(v)),
                                     payload=float(v)))
        content.append(LogRecord(0, 0, "stream_advance", "s", payload=9.0))
        # an idempotent batch that committed, and one that did not
        for v, rid in ((10, ("c1", 1)), (11, ("c1", 1)), (12, ("c1", 2))):
            content.append(LogRecord(0, 0, "stream_insert", "s", rid=rid,
                                     after=(v, float(v)),
                                     payload=float(v)))
            if v == 11:
                content.append(LogRecord(0, 0, "stream_dedup", "s",
                                         rid=("c1", 1)))
        wal_dir = tmp_path / "wal"
        os.makedirs(wal_dir)
        with open(wal_dir / "wal.000001.log", "w", encoding="utf-8") as fh:
            for lsn, record in enumerate(content, 1):
                record.lsn = lsn
                record.crc = record.content_crc()
                fh.write(json.dumps(record_to_wire(record), default=str)
                         + "\n")

        recovered = open_database(wal_path=str(wal_dir))
        try:
            stats = recovered.recovery_stats
            assert stats["stream_tuples"] == 7
            assert stats["torn_batch_rows"] == 1
            assert [row for _t, row in stream_tail(recovered)] == \
                [(v, float(v)) for v in (0, 1, 2, 3, 4, 10, 11)]
            assert recovered.get_stream("s").watermark == 11.0
            # and the reopened log keeps appending after the old lines
            recovered.insert_stream("s", [(20, 20.0)])
            assert recovered.storage.wal.records[-1].kind == "stream_rows"
        finally:
            recovered.close()


    def test_three_generations_of_stream_record_in_one_log(self, tmp_path):
        """One log holding per-tuple ``stream_insert`` lines, a JSON
        ``stream_rows`` record (``[times, rows]``, what the log held
        before row blocks) and row-block records written on top of them
        recovers all three through ``stream_points``."""
        import json
        import os
        from repro.replication import open_database
        from repro.storage.wal import LogRecord, record_to_wire, stream_points
        reference = open_database(wal_path=str(tmp_path / "ref"))
        reference.execute(STREAM_DDL)
        ddl = next(r for r in reference.storage.wal.records
                   if r.kind == "ddl_obj")
        reference.close()
        ddl.payload["retention"] = 3600.0
        content = [ddl,
                   LogRecord(0, 0, "stream_insert", "s", after=(0, 0.0),
                             payload=0.0),
                   LogRecord(0, 0, "stream_insert", "s", after=(1, 1.0),
                             payload=1.0),
                   LogRecord(0, 0, "stream_rows", "s",
                             payload=[[2.0, 3.5], [[2, 2.0], [3, 3.5]]]),
                   # an idempotent JSON batch whose marker never landed
                   LogRecord(0, 0, "stream_rows", "s", rid=("c1", 1),
                             payload=[[4.0], [[4, 4.0]]])]
        wal_dir = tmp_path / "wal"
        os.makedirs(wal_dir)
        with open(wal_dir / "wal.000001.log", "w", encoding="utf-8") as fh:
            for lsn, record in enumerate(content, 1):
                record.lsn = lsn
                record.crc = record.content_crc()
                fh.write(json.dumps(record_to_wire(record)) + "\n")

        old = [(v, float(t)) for v, t in ((0, 0), (1, 1), (2, 2), (3, 3.5))]
        new = [(v, float(v)) for v in range(10, 30)]
        recovered = open_database(wal_path=str(wal_dir))
        try:
            assert recovered.recovery_stats["stream_tuples"] == len(old)
            assert recovered.recovery_stats["torn_batch_rows"] == 1
            assert [row for _t, row in stream_tail(recovered)] == old
            recovered.ingest_batch("s", new[:12], sender="c1", seq=2)
            recovered.insert_stream("s", new[12:])
            written = recovered.storage.wal.records[-1]
            assert written.kind == "stream_rows"
            assert isinstance(written.payload, str)
            assert stream_points(written) == [(t, (v, t))
                                              for v, t in new[12:]]
        finally:
            recovered.close()

        again = open_database(wal_path=str(wal_dir))
        try:
            assert again.recovery_stats["stream_tuples"] \
                == len(old) + len(new)
            assert stream_tail(again) == [(t, (v, t)) for v, t in old + new]
            assert again.get_stream("s").watermark == 29.0
        finally:
            again.close()


_value = st.integers(min_value=-5, max_value=5)
_ordered_batch = st.lists(
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False), max_size=12)
_raw_batch = st.lists(
    st.one_of(st.none(),
              st.floats(min_value=0.0, max_value=40.0, allow_nan=False)),
    max_size=12)


class TestBatchRecordProperties:
    """Whatever path a batch takes into the stream — the fast path, the
    per-row path an unordered or NULL-CQTIME batch falls to (which may
    raise part way), a ``WATERMARK`` stream — the reopened tail is the
    tail the live stream held, and recovery counts rows, not records."""

    @given(event_time=st.booleans(),
           batches=st.lists(st.one_of(
               st.tuples(st.just("ordered"), _ordered_batch),
               st.tuples(st.just("raw"), _raw_batch)), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_reopened_tail_equals_accepted_rows(self, event_time, batches):
        import tempfile
        from repro.errors import StreamingError
        from repro.replication import open_database
        with tempfile.TemporaryDirectory() as work:
            db = open_database(wal_path=work, stream_retention=1e9)
            db.execute(EVENT_TIME_DDL if event_time else STREAM_DDL)
            clock = 0.0
            for shape, batch in batches:
                if shape == "ordered":   # non-decreasing, past the clock
                    times = []
                    for step in batch:
                        clock += step
                        times.append(clock)
                else:
                    times = batch
                rows = [(i, when) for i, when in enumerate(times)]
                try:
                    db.insert_stream("s", rows)
                except StreamingError:
                    pass                 # rows before the bad one stay
                clock = max(clock, db.get_stream("s").raw_watermark)
            live = db.get_stream("s")
            accepted = stream_tail(db)
            assert len(accepted) == live.tuples_in
            watermark = live.watermark
            rows_records = sum(1 for r in db.storage.wal.records
                               if r.kind == "stream_rows")
            assert rows_records <= len(accepted)
            db.storage.wal.flush()
            db.close()

            recovered = open_database(wal_path=work, stream_retention=1e9)
            try:
                assert stream_tail(recovered) == accepted
                assert recovered.recovery_stats["stream_tuples"] \
                    == len(accepted)
                assert recovered.get_stream("s").watermark == watermark
            finally:
                recovered.close()
