"""Tests for WAL shipping and the warm standby.

Layered like the subsystem itself: record wire round-trips and the
standby applier are exercised against plain :class:`Database` objects;
the shipping loop, the ``repro_replication_status`` view and promotion
run against real primary/standby server pairs over loopback TCP.
"""

import time

import pytest

import repro.client as client
from repro.core.database import Database
from repro.errors import RemoteError
from repro.faults import FaultInjector
from repro.server import ServerThread
from repro.storage.wal import (
    LogRecord,
    record_from_wire,
    record_line,
    record_to_wire,
)
from repro.replication.standby import WalApplier, WalGap

STREAM_DDL = "CREATE STREAM s (v integer, ts timestamp CQTIME USER)"
PIPELINE_DDL = """
CREATE STREAM totals AS SELECT count(*) c, cq_close(*)
    FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'>;
CREATE TABLE archive (c bigint, ts timestamp);
CREATE CHANNEL arch FROM totals INTO archive APPEND;
"""


def make_primary_db():
    db = Database(stream_retention=600.0)
    db.enable_replication_logging()
    return db


def wal_records(db):
    return list(db.storage.wal.records)


# ---------------------------------------------------------------------------
# record wire format
# ---------------------------------------------------------------------------


class TestWireFormat:
    def test_roundtrip_preserves_checksum(self):
        record = LogRecord(7, 3, "insert", "t", rid=(0, 1),
                           after=(1, "x", 2.5))
        record.crc = record.content_crc()
        back = record_from_wire(record_to_wire(record))
        assert back.lsn == 7 and back.txid == 3
        assert back.after == (1, "x", 2.5)
        assert back.is_valid()

    def test_tampered_record_fails_validation(self):
        record = LogRecord(1, 1, "insert", "t", rid=(0, 0), after=(1,))
        record.crc = record.content_crc()
        wire = record_to_wire(record)
        wire["after"] = [999]
        assert not record_from_wire(wire).is_valid()


# ---------------------------------------------------------------------------
# the standby applier (no sockets: records handed over directly)
# ---------------------------------------------------------------------------


def ship(primary, standby_applier, from_lsn=1):
    """Hand the primary's WAL tail to the applier as one wire batch."""
    records = [record_to_wire(r)
               for r in primary.storage.wal.records_from(from_lsn)]
    if records:
        standby_applier.apply_batches([{"records": records}])


class TestWalApplier:
    def pair(self):
        primary = make_primary_db()
        standby = Database(supervised=True)
        return primary, standby, WalApplier(standby)

    def test_ddl_and_rows_apply(self):
        primary, standby, applier = self.pair()
        primary.execute("CREATE TABLE t (a integer, b varchar(10))")
        primary.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        ship(primary, applier)
        assert sorted(standby.query("SELECT a, b FROM t").rows) \
            == [(1, "x"), (2, "y")]

    def test_delete_applies_by_before_image(self):
        primary, standby, applier = self.pair()
        primary.execute("CREATE TABLE t (a integer)")
        primary.execute("INSERT INTO t VALUES (1), (2), (3)")
        primary.execute("DELETE FROM t WHERE a = 2")
        ship(primary, applier)
        assert sorted(standby.query("SELECT a FROM t").rows) == [(1,), (3,)]

    def test_standby_wal_is_byte_prefix_of_primary(self):
        primary, standby, applier = self.pair()
        primary.execute("CREATE TABLE t (a integer)")
        primary.execute("INSERT INTO t VALUES (1)")
        ship(primary, applier)
        ours = wal_records(standby)
        theirs = wal_records(primary)
        assert [record_to_wire(r) for r in ours] \
            == [record_to_wire(r) for r in theirs[:len(ours)]]
        assert standby.storage.wal.head_lsn == primary.storage.wal.head_lsn

    def test_duplicate_batches_are_skipped(self):
        primary, standby, applier = self.pair()
        primary.execute("CREATE TABLE t (a integer)")
        primary.execute("INSERT INTO t VALUES (1)")
        ship(primary, applier)
        ship(primary, applier)  # same records again
        assert standby.query("SELECT count(*) FROM t").scalar() == 1
        assert standby.storage.wal.head_lsn == primary.storage.wal.head_lsn

    def test_lsn_gap_raises_walgap(self):
        primary, standby, applier = self.pair()
        primary.execute("CREATE TABLE t (a integer)")
        primary.execute("INSERT INTO t VALUES (1), (2)")
        records = [record_to_wire(r) for r in wal_records(primary)]
        assert len(records) == 4          # ddl, insert, insert, commit
        applier.apply_batches([{"records": records[:2]}])
        with pytest.raises(WalGap) as info:
            applier.apply_batches([{"records": records[3:]}])
        assert info.value.resume_lsn == 3

    def test_corrupt_record_is_quarantined_not_fatal(self):
        primary, standby, applier = self.pair()
        primary.execute("CREATE TABLE t (a integer)")
        primary.execute("INSERT INTO t VALUES (1)")
        primary.execute("INSERT INTO t VALUES (2)")
        records = [record_to_wire(r) for r in wal_records(primary)]
        # corrupt the body of one insert (checksum no longer matches)
        victim = next(r for r in records
                      if r["kind"] == "insert" and r["after"] == [2])
        victim["after"] = [666]
        applier.apply_batches([{"records": records}])
        # the poisoned insert's effect is skipped, everything else lands
        assert standby.query("SELECT a FROM t").rows == [(1,)]
        # the log stays contiguous: the record was adopted (re-stamped)
        assert standby.storage.wal.head_lsn == primary.storage.wal.head_lsn
        assert applier.poisoned == 1
        letters = standby.query(
            "SELECT source, kind FROM repro_dead_letters").rows
        assert ("replication:t", "replication_apply") in letters

    def test_apply_crashpoint_quarantines_record(self):
        primary = make_primary_db()
        faults = FaultInjector(7)
        standby = Database(supervised=True,
                           fault_injector=faults)
        applier = WalApplier(standby, faults=faults)
        primary.execute("CREATE TABLE t (a integer)")
        primary.execute("INSERT INTO t VALUES (1)")
        # after=1: spare the DDL record, strike the insert
        faults.arm("replication.apply", probability=1.0, count=1, after=1)
        ship(primary, applier)
        assert applier.poisoned == 1
        # the struck insert's effect is skipped; the commit is a no-op
        assert standby.query("SELECT count(*) FROM t").scalar() == 0
        # log stays contiguous despite the struck record
        assert standby.storage.wal.head_lsn == primary.storage.wal.head_lsn

    def test_stream_tuples_and_windows_apply(self):
        primary, standby, applier = self.pair()
        primary.execute(STREAM_DDL)
        primary.execute_script(PIPELINE_DDL)
        ship(primary, applier)
        primary.insert_stream("s", [(i, float(i)) for i in range(1, 10)])
        primary.insert_stream("s", [(0, 11.0)])   # closes (0,10]
        ship(primary, applier, from_lsn=standby.storage.wal.head_lsn + 1)
        assert standby.query("SELECT c, ts FROM archive").rows \
            == primary.query("SELECT c, ts FROM archive").rows \
            == [(9, 10.0)]


# ---------------------------------------------------------------------------
# end-to-end over loopback TCP
# ---------------------------------------------------------------------------


def wait_until(probe, timeout=10.0, interval=0.05):
    """Poll until ``probe`` is truthy.  A probe that raises RemoteError
    is treated as not-yet (e.g. DDL not applied on the standby yet)."""
    deadline = time.monotonic() + timeout
    error = None
    while time.monotonic() < deadline:
        try:
            value = probe()
        except RemoteError as exc:
            error = exc
            value = None
        if value:
            return value
        time.sleep(interval)
    raise TimeoutError(f"condition not reached (last error: {error})")


@pytest.fixture
def primary(tmp_path):
    with ServerThread(data_dir=str(tmp_path / "prim"),
                      stream_retention=600.0) as st:
        yield st


@pytest.fixture
def standby_of(tmp_path):
    started = []

    def boot(primary, **kwargs):
        kwargs.setdefault("heartbeat_interval", 0.15)
        kwargs.setdefault("auto_promote", False)
        st = ServerThread(data_dir=str(tmp_path / "stby"),
                          standby_of=f"{primary.host}:{primary.port}",
                          stream_retention=600.0, **kwargs)
        st.start()
        started.append(st)
        return st

    yield boot
    for st in started:
        st.stop()


class TestShipping:
    def test_standby_mirrors_pipeline_and_reports_lag(
            self, primary, standby_of):
        pconn = client.connect(primary.host, primary.port)
        pconn.execute(STREAM_DDL)
        pconn.execute("CREATE STREAM totals AS SELECT count(*) c, "
                      "cq_close(*) FROM s "
                      "<VISIBLE '10 seconds' ADVANCE '10 seconds'>")
        pconn.execute("CREATE TABLE archive (c bigint, ts timestamp)")
        pconn.execute("CREATE CHANNEL arch FROM totals INTO archive APPEND")
        stby = standby_of(primary)
        pconn.ingest("s", [(i, float(i)) for i in range(1, 10)])
        pconn.ingest("s", [(0, 11.0)])
        expected = wait_until(
            lambda: pconn.query("SELECT c, ts FROM archive").rows)

        sconn = client.connect(stby.host, stby.port)
        wait_until(lambda: sconn.query(
            "SELECT c, ts FROM archive").rows == expected)
        status = wait_until(lambda: [
            row for row in sconn.query(
                "SELECT role, state, lag FROM repro_replication_status").rows
            if row == ("standby", "streaming", 0)])
        assert status

        primary_status = pconn.query(
            "SELECT role, state, lag FROM repro_replication_status").rows
        assert ("primary", "streaming", 0) in primary_status
        sconn.close()
        pconn.close()

    def test_standby_rejects_writes_until_promoted(
            self, primary, standby_of):
        pconn = client.connect(primary.host, primary.port)
        pconn.execute("CREATE TABLE t (a integer)")
        stby = standby_of(primary)
        sconn = client.connect(stby.host, stby.port)
        wait_until(lambda: sconn.query(
            "SELECT count(*) FROM repro_tables").scalar() >= 1)
        assert sconn.role == "standby"
        with pytest.raises(RemoteError) as info:
            sconn.execute("INSERT INTO t VALUES (1)")
        assert "standby" in str(info.value)
        with pytest.raises(RemoteError):
            sconn.ingest("t", [(1,)])
        # reads are fine
        assert sconn.query("SELECT count(*) FROM t").scalar() == 0
        sconn.close()
        pconn.close()

    def test_explicit_promotion_rebuilds_cqs_and_accepts_writes(
            self, primary, standby_of):
        pconn = client.connect(primary.host, primary.port)
        pconn.execute(STREAM_DDL)
        pconn.execute("CREATE STREAM totals AS SELECT count(*) c, "
                      "cq_close(*) FROM s "
                      "<VISIBLE '10 seconds' ADVANCE '10 seconds'>")
        pconn.execute("CREATE TABLE archive (c bigint, ts timestamp)")
        pconn.execute("CREATE CHANNEL arch FROM totals INTO archive APPEND")
        stby = standby_of(primary)
        pconn.ingest("s", [(i, float(i)) for i in range(1, 10)])
        pconn.ingest("s", [(5, 11.0)])
        wait_until(lambda: pconn.query("SELECT count(*) FROM archive")
                   .scalar() == 1)

        sconn = client.connect(stby.host, stby.port)
        wait_until(lambda: sconn.query(
            "SELECT count(*) FROM archive").scalar() == 1)
        stats = sconn.promote("test promotion")
        assert stats["reason"] == "test promotion"
        assert ["derived:totals", "active-table"] in stats["cqs"] \
            or ("derived:totals", "active-table") in [
                tuple(c) for c in stats["cqs"]]

        fresh = client.connect(stby.host, stby.port)
        assert fresh.role == "primary"
        # continue the stream on the promoted node: next window closes
        # on the same grid the primary was using
        fresh.ingest("s", [(7, 12.0), (8, 13.0)])
        fresh.ingest("s", [(0, 21.0)])
        wait_until(lambda: fresh.query(
            "SELECT count(*) FROM archive").scalar() == 2)
        rows = fresh.query("SELECT c, ts FROM archive ORDER BY ts").rows
        assert rows[0] == (9, 10.0)
        assert rows[1][1] == 20.0     # grid preserved across promotion
        fresh.close()
        sconn.close()
        pconn.close()

    def test_batch_records_mirror_stream_before_and_after_promotion(
            self, primary, standby_of):
        """One push frame per ingest batch: the standby's stream ends
        with the primary's tuple count, watermark and retained tail,
        and keeps them through promotion."""
        def stream_state(server_thread):
            def read():
                stream = server_thread.server.db.get_stream("s")
                return (stream.tuples_in, stream.watermark,
                        list(stream.replay_since(float("-inf"))))
            return server_thread.server.executor.submit(read).result(10.0)

        pconn = client.connect(primary.host, primary.port)
        pconn.execute(STREAM_DDL)
        stby = standby_of(primary)
        batches = [[(i, float(b * 100 + i)) for i in range(40)]
                   for b in range(5)]
        for seq, batch in enumerate(batches):
            # plain and idempotent batches alike ship as batch records
            pconn.ingest("s", batch, sender="c1" if seq % 2 else None,
                         seq=seq if seq % 2 else None)
        kinds = [r.kind for r in primary.server.db.storage.wal.records]
        assert kinds.count("stream_rows") == len(batches)
        want = stream_state(primary)
        assert want[0] == 200 and want[1] == 439.0
        head = primary.server.db.storage.wal.head_lsn
        sconn = client.connect(stby.host, stby.port)
        wait_until(lambda: sconn.query(
            "SELECT applied_lsn FROM repro_replication_status")
            .scalar() == head)
        assert stream_state(stby) == want

        sconn.promote("batch records")
        assert stream_state(stby) == want
        fresh = client.connect(stby.host, stby.port)
        # the promoted node still refuses a replayed idempotent batch...
        replay = fresh.ingest("s", batches[1], sender="c1", seq=1)
        assert replay.duplicate == len(batches[1])
        # ...and logs its own ingest the same way: one batch record on
        # top of the log the primary shipped
        fresh.ingest("s", [(0, 500.0), (1, 501.0)])
        tuples, watermark, tail = stream_state(stby)
        assert (tuples, watermark) == (202, 501.0)
        assert tail == want[2] + [(500.0, (0, 500.0)), (501.0, (1, 501.0))]
        wal = stby.server.db.storage.wal
        assert wal.head_lsn == head + 1
        assert wal.records[-1].kind == "stream_rows"
        fresh.close()
        sconn.close()
        pconn.close()

    def test_promoted_standby_authors_its_own_durable_log(
            self, tmp_path, primary, standby_of):
        """Promotion = unmute: what the promoted node accepts is logged
        record for record and survives a kill -9 of the new primary."""
        pconn = client.connect(primary.host, primary.port)
        pconn.execute(STREAM_DDL)
        pconn.ingest("s", [(1, 1.0), (2, 2.0)])
        pconn.ingest("s", [(3, 3.0)], sender="c1", seq=1)
        stby = standby_of(primary)
        head = primary.server.db.storage.wal.head_lsn
        sconn = client.connect(stby.host, stby.port)
        wait_until(lambda: sconn.query(
            "SELECT applied_lsn FROM repro_replication_status")
            .scalar() == head)
        sconn.promote("durable failover")
        wal = stby.server.db.storage.wal
        assert wal.head_lsn == head      # promotion itself authors nothing

        fresh = client.connect(stby.host, stby.port)
        fresh.ingest("s", [(4, 4.0)], watermark=50.0)
        fresh.ingest("s", [(5, 51.0), (6, 52.0)], sender="c1", seq=2)
        fresh.execute("CREATE STREAM s2 (v integer, ts timestamp "
                      "CQTIME USER)")
        authored = [r.kind for r in wal.records_from(head + 1)]
        assert authored == ["stream_rows", "stream_advance",
                            "stream_rows", "stream_dedup", "ddl_obj"]
        assert wal.head_lsn == head + len(authored)
        fresh.close()
        sconn.close()
        pconn.close()
        stby.kill()

        from repro.replication import open_database
        back = open_database(data_dir=str(tmp_path / "stby"),
                             stream_retention=600.0)
        try:
            assert back.get_stream("s2") is not None
            stream = back.get_stream("s")
            assert stream.watermark == 52.0
            assert [row for _t, row in stream.replay_since(3.5)] \
                == [(4, 4.0), (5, 51.0), (6, 52.0)]
            assert back.storage.wal.head_lsn == head + len(authored)
            replay = back.ingest_batch("s", [(5, 51.0), (6, 52.0)],
                                       sender="c1", seq=2)
            assert replay["duplicate"] == 2 and replay["accepted"] == 0
        finally:
            back.close()

    def test_restarted_standby_log_stays_a_prefix(
            self, tmp_path, primary, standby_of):
        """A follower authors nothing, across a restart included: boot
        replay of its own log (pipeline DDL held back) leaves it the
        primary's log, line for line."""
        def lines(server_thread):
            return [record_line(r)
                    for r in server_thread.server.db.storage.wal.records]

        pconn = client.connect(primary.host, primary.port)
        pconn.execute(STREAM_DDL)
        for statement in PIPELINE_DDL.split(";")[:-1]:
            pconn.execute(statement)
        stby = standby_of(primary)
        pconn.ingest("s", [(i, float(i)) for i in range(1, 10)])
        pconn.ingest("s", [(0, 11.0)])           # closes (0,10]
        wait_until(lambda: stby.server.db.storage.wal.head_lsn
                   == primary.server.db.storage.wal.head_lsn)
        stby.stop()

        pconn.ingest("s", [(1, 12.0), (0, 21.0)])    # while it is down
        again = standby_of(primary)
        assert lines(again) == lines(primary)[:len(lines(again))]
        wait_until(lambda: again.server.db.storage.wal.head_lsn
                   == primary.server.db.storage.wal.head_lsn)
        assert lines(again) == lines(primary)
        sconn = client.connect(again.host, again.port)
        assert sconn.query("SELECT c, ts FROM archive ORDER BY ts").rows \
            == [(9, 10.0), (2, 20.0)]
        sconn.close()
        pconn.close()

    def test_ship_crashpoint_standby_recovers_via_resume(
            self, tmp_path, standby_of):
        faults = FaultInjector(11)
        with ServerThread(data_dir=str(tmp_path / "prim"),
                          stream_retention=600.0,
                          fault_injector=faults) as primary:
            pconn = client.connect(primary.host, primary.port)
            pconn.execute("CREATE TABLE t (a integer)")
            stby = standby_of(primary, heartbeat_interval=0.1)
            sconn = client.connect(stby.host, stby.port)
            wait_until(lambda: sconn.query(
                "SELECT count(*) FROM repro_tables").scalar() >= 1)
            # drop the next few shipping batches on the floor
            faults.arm("replication.ship", probability=1.0, count=3)
            pconn.execute("INSERT INTO t VALUES (1)")
            pconn.execute("INSERT INTO t VALUES (2)")
            # the standby notices the gap and re-requests; it must
            # converge once the armed fires are exhausted
            wait_until(lambda: sorted(sconn.query(
                "SELECT a FROM t").rows) == [(1,), (2,)], timeout=15.0)
            plan = faults.plan("replication.ship")
            assert plan.fires >= 1
            sconn.close()
            pconn.close()


class TestReplicationStatusView:
    def test_standalone_row(self):
        db = Database()
        rows = db.query("SELECT role, state FROM repro_replication_status")
        assert rows.rows == [("standalone", "standalone")]

    def test_primary_with_no_standby(self, primary):
        with client.connect(primary.host, primary.port) as c:
            # the manager is created lazily on first replicate op, so a
            # fresh primary reports the standalone shape
            role = c.query(
                "SELECT role FROM repro_replication_status").scalar()
            assert role in ("standalone", "primary")
