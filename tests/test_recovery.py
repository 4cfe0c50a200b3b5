"""Tests for CQ recovery: checkpointing vs rebuild-from-active-tables.

The crash model: the CQ (runtime state) dies; tables, the WAL and the
stream's retained tail survive.  Both strategies must resume producing
exactly the windows an uninterrupted run would have produced.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.errors import RecoveryError
from repro.streaming.cq import ContinuousQuery
from repro.streaming.recovery import (
    CheckpointManager,
    capture_window_state,
    recover_from_active_table,
    restore_window_state,
)
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


class TestCaptureRestore:
    def test_roundtrip(self):
        db = make_db()
        cq = db.runtime.create_cq(parse_statement(CQ_SQL))
        db.insert_stream("clicks", events(0, 3))
        state = capture_window_state(cq)
        assert state["buffer"]
        fresh = ContinuousQuery("copy", parse_statement(CQ_SQL),
                                db.catalog, db.txn_manager)
        restore_window_state(fresh, state)
        assert fresh._window_op.points() == cq._window_op.points()
        assert fresh._window_op._base == cq._window_op._base


    EVENT_CQ = ("SELECT count(*) FROM clicks "
                "<VISIBLE '10 seconds' ADVANCE '5 seconds'>")

    def event_time_db(self):
        db = Database(stream_retention=3600.0)
        db.execute("CREATE STREAM clicks (url varchar(100), "
                   "ts timestamp CQTIME USER) WATERMARK '5 seconds'")
        return db

    def windows_after_restore(self, db, state):
        """Restore ``state`` into a fresh copy of EVENT_CQ and flush it."""
        fresh = ContinuousQuery("copy", parse_statement(self.EVENT_CQ),
                                db.catalog, db.txn_manager)
        out = []
        fresh.add_sink(lambda _kind, rows, o, c: out.append((o, c, rows)))
        restore_window_state(fresh, state)
        fresh._window_op.on_flush()
        return out

    def test_event_time_roundtrip_of_an_out_of_order_buffer(self):
        db = self.event_time_db()
        cq = db.runtime.create_cq(parse_statement(self.EVENT_CQ))
        live = []
        cq.add_sink(lambda _kind, rows, o, c: live.append((o, c, rows)))
        arrivals = [("/a", 4.0), ("/b", 8.0), ("/c", 6.0), ("/d", 11.0),
                    ("/e", 9.0), ("/f", 7.0)]
        db.insert_stream("clicks", arrivals)
        # the watermark (6) has closed [-5, 5); the rest is buffered,
        # filed by event time: slice-major, arrival order within a slice
        assert live == [(-5.0, 5.0, [(1,)])]
        state = capture_window_state(cq)
        assert [when for when, _row in state["buffer"]] \
            == [4.0, 8.0, 6.0, 9.0, 7.0, 11.0]
        restored = self.windows_after_restore(db, state)
        assert restored == [(0.0, 10.0, [(5,)]), (5.0, 15.0, [(5,)]),
                            (10.0, 20.0, [(1,)])]
        del live[:]
        db.flush_streams()
        assert live == restored

    def test_old_arrival_ordered_payload_restores_to_the_same_windows(self):
        """A ``cq_checkpoint`` written when the buffer was one
        arrival-ordered list: same keys, same ``[[when, row], ...]``."""
        db = self.event_time_db()
        cq = db.runtime.create_cq(parse_statement(self.EVENT_CQ))
        arrivals = [("/a", 4.0), ("/b", 8.0), ("/c", 6.0), ("/d", 11.0),
                    ("/e", 9.0), ("/f", 7.0)]
        db.insert_stream("clicks", arrivals)
        state = capture_window_state(cq)
        old = {"buffer": [[when, [url, when]] for url, when in arrivals],
               "base": 0.0, "boundary_index": 2,
               "replay_after": 11.0, "replay_from": None,
               "last_close": 5.0, "close_time": 5.0}
        assert set(state) | {"close_time"} == set(old)
        assert sorted(map(repr, old["buffer"])) \
            == sorted(repr([when, row]) for when, row in state["buffer"])
        from_new = self.windows_after_restore(db, state)
        from_old = self.windows_after_restore(db, old)
        assert from_old == from_new and len(from_old) == 3


class TestCheckpointRecovery:
    def crash_and_recover(self, crash_minute=4, total_minutes=8, every=1):
        db = make_db()
        cq = db.runtime.create_cq(parse_statement(CQ_SQL), name="reporting")
        outputs = []
        cq.add_sink(
            lambda _kind, rows, o, c: outputs.append((c, sorted(rows))))
        manager = CheckpointManager(cq, db.storage.wal, every_windows=every)

        db.insert_stream("clicks", events(0, crash_minute))
        db.advance_streams(crash_minute * 60.0)
        # crash: kill the CQ, lose its runtime state
        db.runtime.stop_cq(cq)

        # checkpoints are keyed by CQ name: the restarted CQ reuses it
        new_cq = ContinuousQuery("reporting", parse_statement(CQ_SQL),
                                 db.catalog, db.txn_manager)
        new_cq.add_sink(
            lambda _kind, rows, o, c: outputs.append((c, sorted(rows))))
        CheckpointManager.recover(new_cq, db.storage.wal)
        new_cq.attach()

        db.insert_stream("clicks", events(crash_minute, total_minutes))
        db.advance_streams(total_minutes * 60.0)
        return outputs, manager

    def test_output_matches_uninterrupted_run(self):
        outputs, _manager = self.crash_and_recover()
        assert outputs == run_uninterrupted()

    def test_no_duplicate_windows(self):
        outputs, _manager = self.crash_and_recover()
        closes = [c for c, _rows in outputs]
        assert len(closes) == len(set(closes))

    def test_checkpoints_pay_wal_io(self):
        db = make_db()
        cq = db.runtime.create_cq(parse_statement(CQ_SQL))
        CheckpointManager(cq, db.storage.wal, every_windows=1)
        before = db.io_snapshot()
        db.insert_stream("clicks", events(0, 5))
        db.advance_streams(300.0)
        delta = db.io_snapshot() - before
        assert delta.pages_written >= 4  # one flush per window close

    def test_every_n_checkpoints_less_often(self):
        db = make_db()
        cq = db.runtime.create_cq(parse_statement(CQ_SQL))
        manager = CheckpointManager(cq, db.storage.wal, every_windows=3)
        db.insert_stream("clicks", events(0, 7))
        db.advance_streams(420.0)
        assert manager.checkpoints_taken == 2

    def test_recover_without_checkpoint_raises(self):
        db = make_db()
        cq = ContinuousQuery("never_seen", parse_statement(CQ_SQL),
                             db.catalog, db.txn_manager)
        with pytest.raises(RecoveryError):
            CheckpointManager.recover(cq, db.storage.wal)

    def test_sparse_checkpoints_are_at_least_once(self):
        """With checkpoint gaps, windows emitted after the last checkpoint
        are re-emitted on recovery — at-least-once, never lossy."""
        outputs, _manager = self.crash_and_recover(every=3)
        reference = run_uninterrupted()
        # no window is lost, and duplicates are exact repeats
        deduped = []
        for item in outputs:
            if item not in deduped:
                deduped.append(item)
        assert deduped == reference
        for item in outputs:
            assert item in reference


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

    def test_output_matches_uninterrupted_run(self):
        total, crash = 8, 4
        db = make_db()
        cq, table, archive_sink = self.build_pipeline(db)
        db.insert_stream("clicks", events(0, crash))
        db.advance_streams(crash * 60.0)
        db.runtime.stop_cq(cq)  # crash

        new_cq = ContinuousQuery("recovered", parse_statement(CQ_SQL),
                                 db.catalog, db.txn_manager)
        new_cq.add_sink(archive_sink)
        replay_from = recover_from_active_table(
            new_cq, table, db.txn_manager, "stime")
        assert replay_from is not None
        new_cq.attach()
        db.insert_stream("clicks", events(crash, total))
        db.advance_streams(total * 60.0)

        # compare archives: crashed+recovered vs uninterrupted
        reference_db = make_db()
        _cq2, table2, _sink2 = self.build_pipeline(reference_db)
        reference_db.insert_stream("clicks", events(0, total))
        reference_db.advance_streams(total * 60.0)

        recovered = sorted(db.table_rows("archive"))
        reference = sorted(reference_db.table_rows("archive"))
        assert recovered == reference

    def test_empty_archive_means_cold_start(self):
        db = make_db()
        _cq, table, _sink = self.build_pipeline(db)
        fresh = ContinuousQuery("fresh", parse_statement(CQ_SQL),
                                db.catalog, db.txn_manager)
        assert recover_from_active_table(
            fresh, table, db.txn_manager, "stime") is None

    def test_no_steady_state_overhead(self):
        """The paper's key claim: this strategy costs nothing during
        normal operation beyond what the channel already writes."""
        db_plain = make_db()
        cq_plain = db_plain.runtime.create_cq(parse_statement(CQ_SQL))
        db_ckpt = make_db()
        cq_ckpt = db_ckpt.runtime.create_cq(parse_statement(CQ_SQL))
        CheckpointManager(cq_ckpt, db_ckpt.storage.wal, every_windows=1)

        for db in (db_plain, db_ckpt):
            before = db.io_snapshot()
            db.insert_stream("clicks", events(0, 6))
            db.advance_streams(360.0)
            db._steady_io = db.io_snapshot() - before

        assert db_plain._steady_io.pages_written == 0
        assert db_ckpt._steady_io.pages_written > 0

    def test_supervised_restart_matches_uninterrupted_run(self):
        """A supervisor-driven restart (poison windows, then recovery from
        the channel's active table) must converge to the same archive as a
        fault-free run: failed windows are re-derived by the replay, and
        nothing is archived twice."""
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
        assert sorted(faulted.table_rows("archive")) \
            == sorted(reference.table_rows("archive"))
        # every window close appears the same number of times as in the
        # reference (no double-archival from the replay)
        from collections import Counter
        assert Counter(r[2] for r in faulted.table_rows("archive")) \
            == Counter(r[2] for r in reference.table_rows("archive"))
        entry = faulted.supervisor.entry_for(
            faulted.runtime.cqs()["derived:agg"])
        assert entry.restarts == 1
        # the two poison windows were quarantined before being re-derived
        kinds = [row[2] for row in faulted.supervisor.dead_letter_rows()]
        assert kinds.count("poison-window") >= 2

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
    """A restart re-grids the CQ on the column its bare ``cq_close(*)``
    lands in — wherever the select list puts it, whatever the table
    calls it, whatever other timestamps sit beside it — and archives
    exactly what a never-crashed run archives."""

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

    def test_supervisor_restart(self, shape):
        from repro.faults import FaultInjector
        injector = FaultInjector()
        injector.arm("cq.window", after=2, count=2)     # windows 30, 40
        db = Database(supervised=True, stream_retention=3600.0,
                      fault_injector=injector)
        archived_pipeline(db, *ARCHIVES[shape])
        feed(db, BEFORE + AFTER)
        db.advance_streams(60.0)
        entry = db.supervisor.entry_for(db.runtime.cqs()["derived:agg"])
        assert entry.restarts == 1
        kinds = [row[2] for row in db.supervisor.dead_letter_rows()]
        assert "restart-loss" not in kinds
        assert archive(db) == self.want(shape)

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

    def test_supervisor_restart_reports_the_loss(self):
        from repro.faults import FaultInjector
        injector = FaultInjector()
        injector.arm("cq.window", after=2, count=2)
        db = Database(supervised=True, stream_retention=3600.0,
                      fault_injector=injector)
        archived_pipeline(db, *NO_CLOSE)
        feed(db, BEFORE + AFTER)
        db.advance_streams(60.0)
        kinds = [row[2] for row in db.supervisor.dead_letter_rows()]
        assert "restart-loss" in kinds

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
