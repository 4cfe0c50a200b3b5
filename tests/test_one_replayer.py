"""The log has one replayer.

Boot recovery, a restarted standby, a following standby and promotion
all turn records into engine state through ``WalApplier.apply`` /
``promote``, and ``open_database`` is the one way onto a log.  The
differential machine (``tests/test_differential.py``) checks before
every crash it draws that they rebuild the same engine
(``replayers_agree``), then lives on through boot or a promoted standby
against its oracle; the pinned cases here are the bugs the fork used to
hide.
"""

import pytest

from repro.core.database import Database
from repro.errors import FaultInjected
from repro.faults import FaultInjector
from repro.replication import open_database
from repro.replication.bootstrap import WalApplier
from repro.storage.table import Table
from repro.storage.wal import LogRecord
from tests.conftest import rebuilt_from, replay
from tests.test_differential import Config, frames, run, tail, write_log

S_DDL = "CREATE STREAM s (v integer, ts timestamp CQTIME USER)"


class TestReplayersAgree:
    """Boot, a follower fed the records and a standby restarted half way
    rebuild the same engine from any prefix of the log, and agree with
    ``tests.conftest.replay``: the differential machine
    (``tests/test_differential.py``, ``replayers_agree``) checks it
    before every crash it draws — table transactions in any ending,
    DDL, a WATERMARK stream, torn batches and log cuts included — and
    then lives on through boot or a promoted standby against its oracle.
    This is one of its step programs."""

    def test_every_entry_point_rebuilds_the_same_engine(self):
        rows = [("ab"[t % 2], t % 5, float(t)) for t in range(16)]
        run(Config(topologies=("reopen",)),
            ("send", rows[:4]), ("write", [1, 2], "insert", "COMMIT"),
            ("ddl", "x text"), ("ddl", "x row"), ("ddl", "w batch"),
            ("write", [0], "insert", "in flight"),
            ("crash", ("a", 1, 4.0)), ("send", rows[5:9]),
            ("ddl", "w plain"), ("ddl", "drop x"), ("ddl", "x int"),
            ("crash", None, True, 3), ("write", [1, 3], "delete", "COMMIT"),
            ("write", [2], "update", "COMMIT"), ("ddl", "index t"),
            ("write", [4], "insert", "flush fails"), ("ddl", "renew w"),
            ("crash", ("b", 2, 9.0), True, 0, "wal.torn_write"),
            ("send", rows[10:]), ("write", [4], "insert", "ROLLBACK"),
            ("crash", None, False, 40))


# ---------------------------------------------------------------------------
# pinned regressions
# ---------------------------------------------------------------------------


class TestOneWayToOpen:
    """``open_database`` is the only way onto a log.  The constructor
    used to take one too, load it and never apply it: a second life saw
    an empty catalog, re-created the table and reused the first life's
    txid and rids, and the third boot folded its rows onto the first's
    (``[(2,), (30,)]`` for ``[(1,), (2,), (30,)]``)."""

    def test_the_constructor_takes_no_log(self, tmp_path):
        with pytest.raises(TypeError):
            Database(wal_path=str(tmp_path / "wal"))

    def test_three_lives_keep_every_committed_row(self):
        # tests/test_differential.py checks table t after every crash
        machine = run(Config(topologies=("reopen",)),
                      ("write", [1, 2], "insert", "COMMIT"), ("crash",),
                      ("write", [1], "delete", "COMMIT"),
                      ("write", [30], "insert", "COMMIT"), ("crash",),
                      ("write", [30], "delete", "COMMIT"),
                      ("write", [300, 301], "insert", "COMMIT"), ("crash",))
        assert sorted(machine.table.elements()) == [2, 300, 301]
        records = machine.engine.db.storage.wal.records
        commits = [r.txid for r in records if r.kind == "commit"]
        assert len(commits) == len(set(commits))
        rids = [r.rid for r in records if r.kind == "insert"
                and r.table == "t"]
        assert len(rids) == len(set(rids)) == 5

    def test_an_applier_holds_the_log_muted_until_promoted(self):
        db = Database()
        applier = WalApplier(db)
        assert db.storage.wal.muted
        applier.promote()
        assert not db.storage.wal.muted
        fresh = open_database()
        assert not fresh.storage.wal.muted and fresh.applier.promoted
        assert fresh.recovery_stats["cqs"] == []
        assert open_database(standby=True).storage.wal.muted


class TestTornBatch:
    FIRST = [(i, float(i)) for i in range(1, 6)]

    def test_discarded_batch_stays_discarded_at_every_later_restart(self):
        """ROADMAP 2(c): the retry's marker used to vouch for the torn
        rows as well, from the second restart on (21 rows, not 13).  A
        step program of tests/test_differential.py: tear, reopen, retry,
        reopen twice more.  Every life checks its log
        (``Engine.check_log``): one tombstone, each acked row in the tail
        once, the last batch sent again a duplicate."""
        first = [("a", 1, float(t)) for t in range(1, 6)]
        machine = run(Config(topologies=("reopen",)), ("send", first),
                      ("crash", ("a", 2, 6.0)), ("crash",), ("crash",))
        db = machine.engine.db
        assert db.applier.stream_tuples == 6 and db.applier.torn_batch_rows \
            == 0
        assert [row for _t, row in tail(db, "s")] == first + [("a", 2, 6.0)]
        assert [r.kind for r in db.storage.wal.records].count(
            "stream_abort") == 1

    def test_promoted_standby_discards_what_boot_would(self):
        """A following standby holds marker-less rows pending instead of
        applying them; promotion discards them, so the client's retry is
        accepted once and the window equals a never-crashed run's."""
        run(Config(topologies=("reopen",), window=(10.0, 10.0)),
            ("send", [("a", 1, float(t)) for t in range(1, 6)]),
            ("crash", ("a", 2, 6.0), True), ("move_clock", 20.0))

    def test_frame_arriving_after_promotion_is_dropped(self, tmp_path):
        """The follower loop checks for promotion before it pumps, not
        after: a frame the old primary still got out used to mute the
        promoted node's log again (even when every record in it was a
        duplicate), and what it acked from then on was lost."""
        primary = Database(stream_retention=600.0)
        primary.enable_replication_logging()
        primary.execute(S_DDL)
        primary.execute("CREATE TABLE t (a integer)")
        primary.execute("INSERT INTO t VALUES (1)")
        path = str(tmp_path / "wal")
        standby = open_database(wal_path=path, standby=True,
                                stream_retention=600.0)
        applier = standby.applier
        shipped = list(primary.storage.wal.records)
        applier.apply_batches(frames(shipped))
        assert standby.storage.wal.muted
        applier.promote()
        assert not standby.storage.wal.muted
        primary.execute("INSERT INTO t VALUES (2)")
        late = list(primary.storage.wal.records)
        for frame in (shipped, late, late[len(shipped):]):
            assert applier.apply_batches(frames(frame)) == 0
            assert not standby.storage.wal.muted
        standby.execute("INSERT INTO t VALUES (3)")
        standby.ingest_batch("s", self.FIRST, sender="c1", seq=1)
        standby.close()
        again = open_database(wal_path=path, stream_retention=600.0)
        assert again.table_rows("t") == [(1,), (3,)]
        assert [row for _t, row in tail(again, "s")] == self.FIRST
        assert again.admission.dedup.watermark("s", "c1") == 1
        again.close()

    def test_marker_arriving_after_a_standby_restart_keeps_the_rows(
            self, tmp_path):
        """Boot used to discard a follower's marker-less rows although
        the marker was merely still on its way."""
        primary = Database(stream_retention=600.0)
        primary.enable_replication_logging()
        primary.execute(S_DDL)
        primary.ingest_batch("s", self.FIRST, sender="c1", seq=1)
        records = list(primary.storage.wal.records)
        assert records[-1].kind == "stream_dedup"
        path = str(tmp_path / "wal")
        first = open_database(wal_path=path, standby=True)
        first.applier.apply_batches(frames(records[:-1]))
        first.close()
        again = open_database(wal_path=path, standby=True)
        assert tail(again, "s") == []
        again.applier.apply_batches(frames(records))
        assert [row for _t, row in tail(again, "s")] == self.FIRST
        assert again.admission.dedup.watermark("s", "c1") == 1


class TestDropTable:
    #: a step program of tests/test_differential.py: every crash checks
    #: the replayers against the live tables and a fold of the log
    DROPS = (("ddl", "x int"), ("ddl", "x row"), ("ddl", "drop x"),
             ("crash",), ("ddl", "x text"), ("ddl", "x row"), ("crash",))

    def test_dropped_table_stays_dropped_across_restarts(self):
        # another schema under the old name replays cleanly
        machine = run(Config(topologies=("reopen",)), *self.DROPS,
                      ("ddl", "drop x"), ("crash",))
        assert not machine.engine.db.catalog.has_relation("x")

    def test_plain_database_logs_the_drop_too(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("DROP TABLE t")
        recovered = rebuilt_from(db.storage.wal)
        assert not recovered.catalog.has_relation("t")

    def test_drop_reaches_a_following_standby(self):
        # each life a standby that followed the log, then promoted
        machine = run(Config(topologies=("reopen",)), *(
            ("crash", None, True) if step == ("crash",) else step
            for step in self.DROPS))
        assert machine.engine.db.table_rows("x") == [("seven", 7)]


class TestFailedCommitFlush:
    def history(self, **options):
        injector = FaultInjector()
        db = open_database(fault_injector=injector, **options)
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        injector.arm("disk.write_page", count=1)
        with pytest.raises(FaultInjected):
            db.execute("INSERT INTO t VALUES (2)")
        injector.disarm()
        return db

    def test_failed_commit_is_aborted_live(self):
        db = self.history()
        assert db.table_rows("t") == [(1,)]
        # not pinned active: the vacuum horizon moves on
        assert db.txn_manager.oldest_visible_horizon() \
            == db.txn_manager._next_txid
        kinds = [(r.txid, r.kind) for r in db.storage.wal.records[-3:]]
        assert kinds == [(2, "insert"), (2, "commit"), (2, "abort")]

    def test_session_commit_that_fails_ends_the_session_txn(self):
        injector = FaultInjector()
        db = Database(fault_injector=injector)
        db.execute("CREATE TABLE t (a integer)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (2)")
        injector.arm("disk.write_page", count=1)
        with pytest.raises(FaultInjected):
            db.execute("COMMIT")
        injector.disarm()
        db.execute("INSERT INTO t VALUES (3)")
        assert db.table_rows("t") == [(3,)]

    def test_the_next_flush_does_not_make_it_durable(self, tmp_path):
        """The unflushed ``insert`` + ``commit`` used to ride the next
        successful flush: live ``[1, 3]``, recovered ``[1, 2, 3]``."""
        path = str(tmp_path / "wal")
        db = self.history(wal_path=path)
        db.execute("INSERT INTO t VALUES (3)")
        assert db.table_rows("t") == [(1,), (3,)]
        wal = db.storage.wal
        assert replay(wal) == {"t": [(1,), (3,)]}
        rebuilt = rebuilt_from(wal)
        assert rebuilt.table_rows("t") == [(1,), (3,)]
        standby = Database(supervised=True)
        applier = WalApplier(standby)
        # record by record: the commit is applied, then taken back
        for record in wal.records:
            applier.apply_batches(frames([record]))
        assert applier.poisoned == 0
        assert standby.table_rows("t") == [(1,), (3,)]
        db.close()
        reopened = open_database(wal_path=path)
        assert reopened.table_rows("t") == [(1,), (3,)]
        reopened.close()


class TestEmptyArchive:
    def test_open_window_keeps_its_rows_when_nothing_was_archived(self):
        """Two rows acked and flushed, crash, one more row: the first
        window used to count 1 (a step program of
        tests/test_differential.py)."""
        machine = run(Config(topologies=("reopen",), window=(10.0, 10.0)),
                      ("send", [("a", 1, 1.0), ("a", 2, 2.0)]), ("crash",),
                      ("send", [("a", 3, 3.0)]), ("move_clock", 10.0))
        assert machine.engine.archive()[10.0] == [("a", 3, 6, 2.0, 1, 3)]


class TestLogWrittenAcrossRestarts:
    def test_rids_and_txids_mean_the_same_after_a_restart(self):
        """A rebuilt heap used to hand out rids — and a rebooted engine
        txids — the log had already used, so what the second life logged
        was folded onto the first life's rows at the third boot (a step
        program of tests/test_differential.py: each life checks its log,
        each crash the replayers against ``replay(wal)``)."""
        machine = run(Config(topologies=("reopen",)),
                      *[("write", [v], "insert", "COMMIT") for v in range(5)],
                      ("write", [1], "delete", "COMMIT"),
                      ("write", [100], "insert", "ROLLBACK"), ("crash",),
                      ("write", [4], "delete", "COMMIT"),
                      *[("write", [v], "insert", "COMMIT")
                        for v in range(10, 16)], ("crash",))
        assert sorted(machine.table.elements()) \
            == [0, 2, 3] + list(range(10, 16))


class TestReplaceChannelStandby:
    def test_deletes_find_their_rows_without_scanning(self, monkeypatch):
        """Each REPLACE window deletes the previous one row by row; the
        applier used to scan the table for every before-image."""
        windows, width = 60, 200
        primary = Database(stream_retention=5.0)
        primary.enable_replication_logging()
        primary.execute(S_DDL)
        primary.execute("CREATE STREAM latest AS SELECT v, count(*) c, "
                        "cq_close(*) FROM s <VISIBLE '1 second'> GROUP BY v")
        primary.execute("CREATE TABLE board (v integer, c bigint, "
                        "ts timestamp)")
        primary.execute("CREATE CHANNEL show FROM latest INTO board REPLACE")
        standby = Database(supervised=True)
        applier = WalApplier(standby)
        scans = []
        real_scan = Table.scan
        shipped = 0
        for window in range(windows):
            primary.insert_stream(
                "s", [(v, window + 0.5) for v in range(width)])
            primary.vacuum("board")
            batch = primary.storage.wal.records[shipped:]
            shipped += len(batch)
            monkeypatch.setattr(
                Table, "scan",
                lambda self, *a, **kw: scans.append(self.name)
                or real_scan(self, *a, **kw))
            applier.apply_batches(frames(batch))
            monkeypatch.setattr(Table, "scan", real_scan)
        assert applier.poisoned == 0 and scans == []
        assert sorted(standby.table_rows("board")) \
            == sorted(primary.table_rows("board"))
        assert len(standby.table_rows("board")) == width


class TestParentWrittenDataDir:
    def test_opens_as_it_did(self, tmp_path):
        """No tombstone, every generation of stream record, a stream
        that was dropped (its rows count for nothing, the batch it held
        pending is torn): same stats, tables, tails and watermarks as
        the binary that wrote it reported."""
        reference = open_database(wal_path=str(tmp_path / "ref"))
        reference.execute(S_DDL)
        reference.execute("CREATE TABLE t (a integer)")
        reference.execute("INSERT INTO t VALUES (1), (2)")
        reference.execute("DELETE FROM t WHERE a = 1")
        reference.execute(S_DDL.replace(" s ", " gone "))
        reference.insert_stream("gone", [(1, 1.0), (2, 2.0)])
        reference.execute("DROP STREAM gone")
        content = list(reference.storage.wal.records)
        reference.close()
        content[0].payload["retention"] = 3600.0
        from repro import rowblock
        assert content[-1].payload["op"] == "drop"
        content.insert(-1, LogRecord(
            0, 0, "stream_rows", "gone", rid=("c9", 1),
            payload=rowblock.pack([3.0], [(3, 3.0)])))
        content += [
            LogRecord(0, 0, "stream_insert", "s", after=(0, 0.0),
                      payload=0.0),
            LogRecord(0, 0, "stream_rows", "s",
                      payload=[[1.0, 2.5], [[1, 1.0], [2, 2.5]]]),
            LogRecord(0, 0, "stream_rows", "s",
                      payload=rowblock.pack([3.0], [(3, 3.0)])),
            LogRecord(0, 0, "stream_advance", "s", payload=9.0),
            # an idempotent batch that committed, in two generations ...
            LogRecord(0, 0, "stream_insert", "s", rid=("c1", 1),
                      after=(10, 10.0), payload=10.0),
            LogRecord(0, 0, "stream_rows", "s", rid=("c1", 1),
                      payload=rowblock.pack([11.0], [(11, 11.0)])),
            LogRecord(0, 0, "stream_dedup", "s", rid=("c1", 1)),
            # ... one that did not, and an open transaction
            LogRecord(0, 0, "stream_rows", "s", rid=("c1", 2),
                      payload=[[12.0], [[12, 12.0]]]),
            LogRecord(0, 9, "insert", "t", rid=(0, 2), after=(3,)),
        ]
        for lsn, record in enumerate(content, 1):
            record.lsn = lsn
            record.crc = record.content_crc()
        recovered = open_database(
            wal_path=write_log(str(tmp_path / "wal"), content))
        stats = dict(recovered.recovery_stats)
        assert stats == {
            "tables": stats["tables"], "rows": 1, "streams": 1,
            "stream_tuples": 6, "dedup_markers": 1, "torn_batch_rows": 2,
            "deferred": [], "cqs": []}
        assert recovered.table_rows("t") == [(2,)]
        assert [row for _t, row in tail(recovered, "s")] == [
            (0, 0.0), (1, 1.0), (2, 2.5), (3, 3.0), (10, 10.0), (11, 11.0)]
        assert recovered.get_stream("s").watermark == 11.0
        assert recovered.admission.dedup.watermark("s", "c1") == 1
        recovered.close()

    def test_a_stream_logged_with_slack_opens_without_it(self, tmp_path):
        """Logs once recorded each stream's reorder-buffer ``slack``.
        The key is ignored: the stream replays its rows and takes a
        later in-order row."""
        data_dir = str(tmp_path / "data")
        writer = open_database(data_dir)
        writer.storage.wal.append(0, "ddl_obj", "s", payload={
            "op": "create", "kind": "stream", "name": "s",
            "columns": [
                {"name": "v", "type": "integer", "not_null": False,
                 "primary_key": False, "cqtime": None},
                {"name": "ts", "type": "timestamp", "not_null": False,
                 "primary_key": False, "cqtime": "user"}],
            "retention": 3600.0, "slack": 5.0, "disorder_policy": "raise",
            "watermark_bound": None, "partition_by": None}, flush=True)
        writer.storage.wal.append(0, "stream_rows", "s", payload=(
            [1.0, 2.0], [(1, 1.0), (2, 2.0)]), flush=True)
        writer.close()
        recovered = open_database(data_dir)
        stream = recovered.get_stream("s")
        assert not hasattr(stream, "slack")
        assert [row for _t, row in tail(recovered, "s")] == [
            (1, 1.0), (2, 2.0)]
        assert recovered.insert_stream("s", [(3, 3.0)]) == 1
        assert stream.watermark == 3.0
        recovered.close()

    def test_a_data_dir_holding_a_wal_manifest_opens_and_replays(
            self, tmp_path):
        """Logs once kept a ``wal.manifest.json`` beside their segments,
        rewritten on every roll.  Nothing read it: a leftover one —
        here a stale one naming a segment that is not there, and its
        ``.tmp`` — is neither read nor rewritten, and the directory's
        segments replay."""
        import json
        import os
        data_dir = str(tmp_path / "data")
        writer = open_database(data_dir, stream_retention=3600.0,
                               wal_segment_bytes=256)
        writer.execute(S_DDL)
        rows = [(i, float(i)) for i in range(12)]
        for i in range(0, len(rows), 3):
            writer.insert_stream("s", rows[i:i + 3])
        writer.close()
        wal_dir = os.path.join(data_dir, "wal")
        assert len([n for n in os.listdir(wal_dir)
                    if n.endswith(".log")]) >= 2
        manifest = {"segment_bytes": 256, "archive_dir": None,
                    "active_index": 99,
                    "segments": [{"name": "wal.000099.log", "index": 99,
                                  "first_lsn": 1, "last_lsn": 1,
                                  "bytes": 0, "sealed": False,
                                  "archived": False}]}
        for name in ("wal.manifest.json", "wal.manifest.json.tmp"):
            with open(os.path.join(wal_dir, name), "w") as fh:
                json.dump(manifest, fh)
        recovered = open_database(data_dir, stream_retention=3600.0,
                                  wal_segment_bytes=256)
        assert [row for _t, row in tail(recovered, "s")] == rows
        assert recovered.insert_stream("s", [(12, 12.0)]) == 1
        recovered.close()
        with open(os.path.join(wal_dir, "wal.manifest.json")) as fh:
            assert json.load(fh) == manifest
