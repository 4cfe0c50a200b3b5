"""The log has one replayer.

Boot recovery, a restarted standby, a following standby and promotion
all turn records into engine state through ``WalApplier.apply`` /
``promote``, and ``open_database`` is the one way onto a log.  One
differential property checks that they agree with each other (and with
``WriteAheadLog.replay``, the reference fold no engine code calls any
more) on histories hypothesis draws; the pinned cases below it are the
bugs the fork used to hide.
"""

import os
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import ManualClock
from repro.core.database import Database
from repro.errors import FaultInjected
from repro.faults import FaultInjector
from repro.replication import open_database
from repro.replication.bootstrap import WalApplier
from repro.storage.table import Table
from repro.storage.wal import (
    LogRecord,
    WriteAheadLog,
    record_line,
    record_to_wire,
    stream_points,
)
from tests.conftest import rebuilt_from

S_DDL = "CREATE STREAM s (v integer, ts timestamp CQTIME USER)"
W_DDL = ("CREATE STREAM w (v integer, ts timestamp CQTIME USER) "
         "WATERMARK '5 seconds'")
#: the archive's column order is drawn: (select list, table columns,
#: where the window close lands) — beside, before and after other
#: timestamps
ARCHIVES = [
    ("count(*) c, cq_close(*)", "c bigint, ts timestamp", 1),
    ("cq_close(*), count(*) c, max(ts) newest",
     "closed timestamp, c bigint, newest timestamp", 0),
    ("min(ts) oldest, cq_close(*) closed, count(*) c, max(ts) newest",
     "oldest timestamp, closed timestamp, c bigint, newest timestamp", 1),
]


def pipeline(select, columns):
    return (f"CREATE STREAM totals AS SELECT {select} FROM s "
            "<VISIBLE '10 seconds' ADVANCE '10 seconds'>",
            f"CREATE TABLE archive ({columns})",
            "CREATE CHANNEL arch FROM totals INTO archive APPEND")


PIPELINE = pipeline(*ARCHIVES[0][:2])

RETENTION = 1e9
X_SCHEMAS = {"int": "CREATE TABLE x (a integer)",
             "text": "CREATE TABLE x (a varchar(8), b integer)"}


def write_log(directory, records):
    """A data dir's WAL holding exactly ``records`` (one segment)."""
    os.makedirs(directory)
    with open(os.path.join(directory, "wal.000001.log"), "w",
              encoding="utf-8") as fh:
        fh.writelines(record_line(record) for record in records)
    return directory


def frames(records):
    return [{"records": [record_to_wire(r) for r in records]}]


def tail(db, name):
    return list(db.get_stream(name).replay_since(float("-inf")))


def tables_of(db):
    return {name: Counter(db.table_rows(name))
            for name in ("t", "x", "archive")
            if db.catalog.has_relation(name)}


def state_of(db):
    """Everything a replayer is answerable for."""
    streams = {}
    for name in ("s", "w"):
        if db.catalog.has_relation(name):
            stream = db.get_stream(name)
            streams[name] = (tail(db, name), stream.watermark,
                             stream.tuples_in)
    dedup = {(stream, sender): db.admission.dedup.watermark(stream, sender)
             for stream in ("s", "w") for sender in ("a", "b")}
    return {"tables": tables_of(db), "streams": streams, "dedup": dedup}


def spelled_out(records):
    """What the log says, folded the slow way: which of ``t`` / ``x`` /
    ``archive`` exist, how many rows ``x`` holds since it was last
    created, each stream's tail, and the rows no marker vouches for (at
    the end of the log, or when their stream was dropped)."""
    exists, tails, held, torn = {}, {}, {}, 0
    committed = {r.txid for r in records if r.kind == "commit"} \
        - {r.txid for r in records if r.kind == "abort"}
    x_rows = 0
    for record in records:
        kind, name = record.kind, record.table
        if kind == "ddl":
            exists[name] = True
        elif kind == "ddl_obj" and record.payload["op"] == "drop":
            exists[name] = False
            x_rows = 0 if name == "x" else x_rows
            tails.pop(name, None)
            for key in [k for k in held if k[0] == name]:
                torn += len(held.pop(key))
        elif kind == "ddl_obj" and record.payload["kind"] == "stream":
            tails.setdefault(name, [])
        elif kind == "insert" and name == "x":
            x_rows += record.txid in committed
        elif kind == "stream_rows" and record.rid is None:
            tails[name] += stream_points(record)
        elif kind == "stream_rows":
            held.setdefault((name, record.rid), []).extend(
                stream_points(record))
        elif kind == "stream_dedup":
            tails[name] += held.pop((name, record.rid), [])
        elif kind == "stream_abort":
            held.pop((name, record.rid), None)
    return ({name for name in ("t", "x", "archive") if exists.get(name)},
            x_rows, tails,
            torn + sum(len(points) for points in held.values()))


def counters_of(applier):
    return (applier.stream_tuples, applier.dedup_markers,
            applier.torn_batch_rows)


# ---------------------------------------------------------------------------
# the history a primary lives through
# ---------------------------------------------------------------------------

_slot = st.integers(0, 2)
_value = st.integers(0, 4)
_stream = st.sampled_from(["s", "w"])
_write = st.one_of(st.tuples(st.just("row"), _value),
                   st.tuples(st.just("del"), _value),
                   st.tuples(st.just("upd"), _value, _value))
_op = st.one_of(
    # a slot's transaction goes on until an op ends it; "leave" leaves it
    # open for a later op on the slot — or in flight at the crash
    st.tuples(st.just("txn"), _slot, st.lists(_write, min_size=1, max_size=4),
              st.sampled_from(["commit", "commit", "leave", "abort",
                               "flush_fails"])),
    st.tuples(st.just("plain"), _stream, st.integers(1, 3)),
    st.tuples(st.just("batch"), _stream, st.sampled_from(["a", "b"]),
              st.integers(1, 3),
              st.sampled_from([None, None, None, "admission.dedup_persist",
                               "admission.dedup_persist",
                               "wal.torn_write"])),
    st.tuples(st.just("advance"), st.integers(1, 12)),
    st.tuples(st.just("ddl"),
              st.sampled_from(["x_int", "x_text", "drop_x", "x_row", "x_row",
                               "index_t", "renew_w"])),
)


class Primary:
    """Runs a drawn history against a durable database."""

    def __init__(self, work, archive=ARCHIVES[0]):
        self.faults = FaultInjector(seed=2009)
        self.db = db = open_database(wal_path=os.path.join(work, "primary"),
                                     stream_retention=RETENTION,
                                     fault_injector=self.faults,
                                     clock=ManualClock())
        db.execute("CREATE TABLE t (a integer)")
        db.execute(S_DDL)
        db.execute(W_DDL)
        for ddl in pipeline(*archive[:2]):
            db.execute(ddl)
        self.setup = db.storage.wal.head_lsn     # no cut falls inside it
        self.now = 0.0
        self.slots = {}
        self.seqs = Counter()
        self.torn = False
        self.x_schema = None
        self.x_dropped = False

    def run(self, ops):
        for op in ops:
            getattr(self, "_" + op[0])(*op[1:])
        self.db.storage.wal.flush()
        return list(self.db.storage.wal.durable_records())

    # -- table transactions, interleaved by slot ---------------------------

    def _txn(self, slot, writes, ending):
        if slot not in self.slots:
            self.slots[slot] = self.db.txn_manager.begin()
        txn = self.slots[slot]
        for kind, value, *new in writes:
            if kind == "row":
                self.db.get_table("t").insert(txn, (value,))
                continue
            table, rid, version = self._find(txn, value)
            if rid is None:
                continue
            if kind == "del":
                table.delete_version(txn, rid, version)
            else:
                table.update_version(txn, rid, version, (new[0],))
        if ending == "leave":
            return
        del self.slots[slot]
        if ending == "abort":
            txn.abort()
            return
        if ending == "flush_fails":
            self.faults.arm("disk.write_page", count=1)
        try:
            txn.commit()
        except FaultInjected:
            assert not txn.is_active()
        finally:
            self.faults.disarm()

    def _find(self, txn, value):
        """A row of ``t`` no other open transaction has its hands on."""
        table, manager = self.db.get_table("t"), self.db.txn_manager
        for rid, version in table.heap.scan(table._pool):
            if version.values == (value,) and version.xmax is None and (
                    version.xmin == txn.txid
                    or manager.status_of(version.xmin) == "committed"):
                return table, rid, version
        return table, None, None

    # -- streams -----------------------------------------------------------

    def _rows(self, count):
        rows = []
        for _ in range(count):
            self.now += 0.5
            rows.append((len(rows), self.now))
        return rows

    def _plain(self, stream, count):
        self.db.insert_stream(stream, self._rows(count))

    def _batch(self, stream, sender, count, fault):
        self.seqs[stream, sender] += 1
        if fault is not None:
            self.faults.arm(fault, probability=1.0, count=1)
        try:
            self.db.ingest_batch(stream, self._rows(count), sender=sender,
                                 seq=self.seqs[stream, sender])
        except FaultInjected:
            pass
        finally:
            self.torn = self.torn or self.db.storage.wal.torn_records > 0
            self.faults.disarm()

    def _advance(self, step):
        self.now += step
        self.db.advance_streams(self.now)

    # -- DDL ---------------------------------------------------------------

    def _ddl(self, what):
        db = self.db
        if what in ("x_int", "x_text"):
            if self.x_schema is None:
                self.x_schema = what[2:]
                db.execute(X_SCHEMAS[self.x_schema])
        elif what == "drop_x":
            if self.x_schema is not None:
                db.execute("DROP TABLE x")
                self.x_schema, self.x_dropped = None, True
        elif what == "x_row":
            if self.x_schema == "int":
                db.execute("INSERT INTO x VALUES (7)")
            elif self.x_schema == "text":
                db.execute("INSERT INTO x VALUES ('seven', 7)")
        elif what == "index_t":
            db.execute("DROP INDEX IF EXISTS t_a")
            db.execute("CREATE INDEX t_a ON t (a)")
        elif what == "renew_w":
            db.execute("DROP STREAM w")
            db.execute(W_DDL)
            for key in [k for k in self.seqs if k[0] == "w"]:
                del self.seqs[key]


class TestReplayersAgree:
    """(a) ``open_database`` on the data dir, (b) a ``WalApplier`` fed
    the same records and promoted, and (c) a standby restarted half way
    then fed the rest and promoted rebuild the same engine from any
    prefix of any history."""

    @given(ops=st.lists(_op, min_size=12, max_size=50), cut=st.integers(0, 40),
           archive=st.sampled_from(ARCHIVES))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_every_entry_point_rebuilds_the_same_engine(self, ops, cut,
                                                        archive):
        import tempfile
        with tempfile.TemporaryDirectory() as work:
            primary = Primary(work, archive)
            records = primary.run(ops)
            keep = max(primary.setup, len(records) - cut)
            records = records[:keep]
            whole = keep == len(primary.db.storage.wal.records)

            # (a) boot
            booted = open_database(
                wal_path=write_log(os.path.join(work, "a"), records),
                stream_retention=RETENTION)
            stats = booted.recovery_stats

            # (b) a follower of the same records
            fed = Database(supervised=True, stream_retention=RETENTION)
            follower = WalApplier(fed)
            assert follower.apply_batches(frames(records)) == len(records)
            assert follower.poisoned == 0, follower.last_error
            fold = WriteAheadLog(path=write_log(os.path.join(work, "f"),
                                                records)).replay()
            for name, rows in tables_of(fed).items():
                if name != "x" or not primary.x_dropped:
                    assert rows == Counter(fold.get(name, [])), name
            if whole and not primary.torn:
                live = tables_of(primary.db)
                live.pop("archive")         # the fed one has no CQ yet
                assert {n: r for n, r in tables_of(fed).items()
                        if n != "archive"} == live
            tables, x_rows, tails, unvouched = spelled_out(records)
            assert set(tables_of(fed)) == tables
            assert sum(tables_of(fed).get("x", {}).values()) == x_rows
            assert {name: tail(fed, name) for name in tails} == tails
            held = list(follower.deferred)
            fed_cqs = follower.promote()
            assert follower.torn_batch_rows == unvouched

            # (c) a standby that was restarted half way
            path = os.path.join(work, "c")
            first = open_database(wal_path=path, standby=True,
                                  stream_retention=RETENTION)
            first.applier.apply_batches(frames(records[:keep // 2]))
            first.close()
            again = open_database(wal_path=path, standby=True,
                                  stream_retention=RETENTION)
            assert again.applier.deferred == held[:len(
                again.applier.deferred)]
            again.applier.apply_batches(frames(records))
            assert again.applier.poisoned == 0
            assert [record_line(r) for r in again.storage.wal.records] \
                == [record_line(r) for r in records]
            again_cqs = again.applier.promote()
            assert not again.storage.wal.muted

            want = state_of(booted)
            for other in (fed, again):
                assert state_of(other) == want
            assert fed_cqs == again_cqs == stats["cqs"]
            torn = stats.get("torn_batch_rows", 0)
            assert counters_of(follower) == counters_of(again.applier) \
                == (stats["stream_tuples"], stats["dedup_markers"], torn)

            # what each makes of a client's retries, and of the next window
            probe = primary.now + 25.0
            for db in (booted, fed, again):
                answers = []
                for (stream, sender), last in sorted(primary.seqs.items()):
                    if db.catalog.has_relation(stream):
                        for seq in range(1, last + 2):
                            answers.append(db.ingest_batch(
                                stream, [(9, probe)], sender=sender,
                                seq=seq)["accepted"])
                db.insert_stream("s", [(0, probe + 10.0)])
                if db is booted:
                    want = (answers, state_of(db))
                    # ... on the grid a never-crashed engine closes on
                    assert all(row[archive[2]] % 10 == 0
                               for row in db.table_rows("archive"))
                else:
                    assert (answers, state_of(db)) == want
            for db in (booted, fed, again, primary.db):
                db.close()


# ---------------------------------------------------------------------------
# pinned regressions
# ---------------------------------------------------------------------------


def reopen(path):
    return open_database(wal_path=path, stream_retention=600.0)


class TestOneWayToOpen:
    """``open_database`` is the only way onto a log.  The constructor
    used to take one too, load it and never apply it: a second life saw
    an empty catalog, re-created the table and reused the first life's
    txid and rids, and the third boot folded its rows onto the first's
    (``[(2,), (30,)]`` for ``[(1,), (2,), (30,)]``)."""

    def test_the_constructor_takes_no_log(self, tmp_path):
        with pytest.raises(TypeError):
            Database(wal_path=str(tmp_path / "wal"))

    def test_three_lives_keep_every_committed_row(self, tmp_path):
        path = str(tmp_path / "wal")
        want = []
        for life, (delete, insert) in enumerate(
                [(None, [1, 2]), (1, [30]), (30, [300, 301])]):
            db = open_database(wal_path=path)       # the last one crashed
            assert db.recovery_stats["rows"] == len(want)
            db.execute("CREATE TABLE IF NOT EXISTS t (a integer)")
            assert sorted(db.table_rows("t")) == want
            if delete is not None:
                db.execute(f"DELETE FROM t WHERE a = {delete}")
                want.remove((delete,))
            db.execute("INSERT INTO t VALUES "
                       + ", ".join(f"({v})" for v in insert))
            want = sorted(want + [(v,) for v in insert])
        last = open_database(wal_path=path)
        assert sorted(last.table_rows("t")) == want == [(2,), (300,), (301,)]
        records = last.storage.wal.records
        commits = [r.txid for r in records if r.kind == "commit"]
        assert len(commits) == len(set(commits))
        rids = [r.rid for r in records if r.kind == "insert"]
        assert len(rids) == len(set(rids))

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
    SECOND = [(i, float(i)) for i in range(6, 14)]

    def tear_second_batch(self, db):
        """Batch 2's rows reach the log, its marker does not."""
        db.ingest_batch("s", self.FIRST, sender="c1", seq=1)
        faults = FaultInjector(seed=7)
        db.set_fault_injector(faults)
        faults.arm("admission.dedup_persist", probability=1.0, count=1)
        with pytest.raises(FaultInjected):
            db.ingest_batch("s", self.SECOND, sender="c1", seq=2)
        faults.disarm()
        db.storage.wal.flush()

    def test_discarded_batch_stays_discarded_at_every_later_restart(
            self, tmp_path):
        """ROADMAP 2(c): the retry's marker used to vouch for the torn
        rows as well, from the second restart on (21 rows, not 13)."""
        path = str(tmp_path / "wal")
        db = open_database(wal_path=path, stream_retention=600.0)
        db.execute(S_DDL)
        self.tear_second_batch(db)
        db.close()

        first = reopen(path)
        assert first.recovery_stats["torn_batch_rows"] == len(self.SECOND)
        assert first.recovery_stats["stream_tuples"] == len(self.FIRST)
        tombstone = first.storage.wal.records[-1]
        assert (tombstone.kind, tombstone.table, tombstone.rid) \
            == ("stream_abort", "s", ("c1", 2))
        retry = first.ingest_batch("s", self.SECOND, sender="c1", seq=2)
        assert (retry["accepted"], retry["duplicate"]) \
            == (len(self.SECOND), 0)
        first.close()

        for _restart in (2, 3):
            again = reopen(path)
            stats = again.recovery_stats
            assert stats["stream_tuples"] == 13
            assert "torn_batch_rows" not in stats
            assert [row for _t, row in tail(again, "s")] \
                == self.FIRST + self.SECOND
            replay = again.ingest_batch("s", self.SECOND, sender="c1",
                                        seq=2)
            assert replay["duplicate"] == len(self.SECOND)
            assert [r.kind for r in again.storage.wal.records].count(
                "stream_abort") == 1
            again.close()

    def test_promoted_standby_discards_what_boot_would(self, tmp_path):
        """A following standby holds marker-less rows pending instead of
        applying them; promotion discards them, so the client's retry is
        accepted once and the window equals a never-crashed run's."""
        reference = Database(stream_retention=600.0)
        primary = Database(stream_retention=600.0)
        primary.enable_replication_logging()
        standby = open_database(wal_path=str(tmp_path / "wal"),
                                standby=True, stream_retention=600.0)
        applier = standby.applier
        for db in (reference, primary):
            db.execute(S_DDL)
            for ddl in PIPELINE:
                db.execute(ddl)
        reference.ingest_batch("s", self.FIRST, sender="c1", seq=1)
        reference.ingest_batch("s", self.SECOND, sender="c1", seq=2)
        self.tear_second_batch(primary)
        applier.apply_batches(frames(primary.storage.wal.records))
        assert len(tail(standby, "s")) == len(self.FIRST)

        applier.promote()
        assert applier.torn_batch_rows == len(self.SECOND)
        assert standby.storage.wal.records[-1].kind == "stream_abort"
        retry = standby.ingest_batch("s", self.SECOND, sender="c1", seq=2)
        assert (retry["accepted"], retry["duplicate"]) \
            == (len(self.SECOND), 0)
        again = standby.ingest_batch("s", self.SECOND, sender="c1", seq=2)
        assert again["accepted"] == 0
        for db in (reference, standby):
            db.advance_streams(20.0)
        assert standby.table_rows("archive") \
            == reference.table_rows("archive") == [(9, 10.0), (4, 20.0)]

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
        again = reopen(path)
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
    def test_dropped_table_stays_dropped_across_restarts(self, tmp_path):
        path = str(tmp_path / "wal")
        db = open_database(wal_path=path)
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("DROP TABLE t")
        db.close()
        first = open_database(wal_path=path)
        assert not first.catalog.has_relation("t")
        # another schema under the old name replays cleanly
        first.execute("CREATE TABLE t (a varchar(5), b integer)")
        first.execute("INSERT INTO t VALUES ('x', 2)")
        first.close()
        second = open_database(wal_path=path)
        assert second.table_rows("t") == [("x", 2)]
        second.execute("DROP TABLE t")
        second.close()
        third = open_database(wal_path=path)
        assert not third.catalog.has_relation("t")
        third.close()

    def test_plain_database_logs_the_drop_too(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("DROP TABLE t")
        recovered = rebuilt_from(db.storage.wal)
        assert not recovered.catalog.has_relation("t")

    def test_drop_reaches_a_following_standby(self):
        primary = Database()
        primary.enable_replication_logging()
        standby = Database(supervised=True)
        applier = WalApplier(standby)
        primary.execute("CREATE TABLE t (a integer)")
        primary.execute("INSERT INTO t VALUES (1)")
        applier.apply_batches(frames(primary.storage.wal.records))
        assert standby.table_rows("t") == [(1,)]
        primary.execute("DROP TABLE t")
        primary.execute("CREATE TABLE t (a varchar(5))")
        primary.execute("INSERT INTO t VALUES ('x')")
        applier.apply_batches(frames(primary.storage.wal.records))
        assert applier.poisoned == 0
        assert standby.table_rows("t") == [("x",)]


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
        assert wal.replay() == {"t": [(1,), (3,)]}
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
    def test_open_window_keeps_its_rows_when_nothing_was_archived(
            self, tmp_path):
        """Two rows acked and flushed, crash, one more row: the first
        window used to count 1."""
        path = str(tmp_path / "wal")
        db = open_database(wal_path=path, stream_retention=600.0)
        db.execute(S_DDL)
        for ddl in PIPELINE:
            db.execute(ddl)
        db.ingest_batch("s", [(1, 1.0), (2, 2.0)], sender="a", seq=1)
        recovered = reopen(path)            # the first one just "crashed"
        assert recovered.recovery_stats["cqs"] \
            == [("derived:totals", "empty-archive")]
        recovered.insert_stream("s", [(3, 3.0)])
        recovered.advance_streams(10.0)
        assert recovered.table_rows("archive") == [(3, 10.0)]
        recovered.close()


class TestLogWrittenAcrossRestarts:
    def test_rids_and_txids_mean_the_same_after_a_restart(self, tmp_path):
        """A rebuilt heap used to hand out rids — and a rebooted engine
        txids — the log had already used, so what the second life logged
        was folded onto the first life's rows at the third boot."""
        path = str(tmp_path / "wal")
        db = open_database(wal_path=path)
        db.execute("CREATE TABLE t (a integer)")
        for value in range(5):
            db.execute(f"INSERT INTO t VALUES ({value})")
        db.execute("DELETE FROM t WHERE a = 1")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (100)")
        db.execute("ROLLBACK")
        db.close()
        second = open_database(wal_path=path)
        second.execute("DELETE FROM t WHERE a = 4")
        for value in range(10, 16):
            second.execute(f"INSERT INTO t VALUES ({value})")
        want = sorted(second.table_rows("t"))
        assert want == [(0,), (2,), (3,)] + [(v,) for v in range(10, 16)]
        second.close()
        third = open_database(wal_path=path)
        assert sorted(third.table_rows("t")) == want
        assert third.storage.wal.replay()["t"] == third.table_rows("t")
        third.close()


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
