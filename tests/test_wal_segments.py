"""Tests for the WAL lifecycle: segmented log, checkpoint-anchored
compaction, archive-backed standby catch-up, online backup + PITR, and
integrity scrubbing.

Layered like the subsystem: :class:`SegmentedLog`/`WriteAheadLog`
mechanics run against bare objects; compaction/backup/scrub run against
embedded databases opened on a data dir; archive catch-up runs against a
real primary/standby server pair over loopback TCP.
"""

import json
import os
import time

import pytest

import repro.client as client
from repro.core.database import Database
from repro.errors import FaultInjected, ReplicationGapError, WALError
from repro.faults import FaultInjector
from repro.replication.bootstrap import open_database
from repro.server import ServerThread
from repro.storage.lifecycle import restore_backup
from repro.storage.segments import (
    DEFAULT_SEGMENT_BYTES,
    MANIFEST_NAME,
    segment_name,
)
from repro.storage.wal import (
    MAX_ROWS_PER_RECORD,
    WriteAheadLog,
    record_from_wire,
    record_line,
    record_to_wire,
    stream_points,
)


def make_wal(tmp_path, segment_bytes=256, faults=None):
    return WriteAheadLog(
        faults=faults, path=str(tmp_path / "wal"),
        segment_bytes=segment_bytes,
        archive_dir=str(tmp_path / "wal_archive"))


def fill(wal, n, start_tx=1, flush=True):
    """Append n committed single-row transactions (2 records each),
    flushing per commit as real transactions do (rolls happen at flush
    boundaries)."""
    for i in range(n):
        txid = start_tx + i
        wal.append(txid, "insert", "t", rid=(0, txid),
                   after=(txid, "payload-" * 4))
        wal.append(txid, "commit")
        if flush:
            wal.flush()


def boot(tmp_path, name="node", segment_bytes=512, **options):
    return open_database(data_dir=str(tmp_path / name),
                         wal_segment_bytes=segment_bytes, **options)


def insert_rows(db, lo, hi):
    values = ", ".join(f"({i}, 'row-{i:04d}-padding')"
                       for i in range(lo, hi))
    db.execute(f"INSERT INTO t VALUES {values}")


def wait_until(check, timeout=10.0, interval=0.03):
    deadline = time.monotonic() + timeout
    error = None
    while time.monotonic() < deadline:
        try:
            value = check()
        except Exception as exc:       # retried until the deadline
            error = exc
            value = None
        if value:
            return value
        time.sleep(interval)
    raise TimeoutError(f"condition not reached (last error: {error})")


# ---------------------------------------------------------------------------
# segment rolling + reload
# ---------------------------------------------------------------------------


class TestSegmentRolling:
    def test_records_roll_into_multiple_segments(self, tmp_path):
        wal = make_wal(tmp_path)
        fill(wal, 20)
        names = sorted(os.listdir(tmp_path / "wal"))
        segments = [n for n in names if n.endswith(".log")]
        assert len(segments) >= 3
        assert segments[0] == segment_name(1)
        assert MANIFEST_NAME in names
        assert wal.segments.rolls >= 2
        wal.close()

    def test_reload_preserves_all_records(self, tmp_path):
        wal = make_wal(tmp_path)
        fill(wal, 20)
        head = wal.head_lsn
        replayed = wal.replay()
        wal.close()

        back = make_wal(tmp_path)
        assert back.head_lsn == head
        assert [r.lsn for r in back.records] == list(range(1, head + 1))
        assert back.replay() == replayed
        back.close()

    def test_torn_tail_in_active_segment_truncates(self, tmp_path):
        faults = FaultInjector(5)
        wal = make_wal(tmp_path, faults=faults)
        fill(wal, 8)
        head = wal.head_lsn
        wal.append(99, "insert", "t", rid=(0, 99), after=(99, "x"))
        faults.arm("wal.torn_write", probability=1.0, count=1)
        wal.flush()
        wal.close()

        back = make_wal(tmp_path)
        assert back.head_lsn == head     # torn record dropped
        # and physically dropped: the rewritten active file has no tail
        assert back.first_corrupt_lsn() is None
        back.close()

    def test_line_on_disk_is_the_checksummed_encoding(self, tmp_path):
        """A record is encoded once: the line `flush` wrote parses to
        the wire dict, carries the checksum `content_crc` recomputes,
        and is what the rewrite paths (`record_line`) produce."""
        wal = make_wal(tmp_path, segment_bytes=1 << 20)
        payloads = [None, 1.5, {"b": [1, {"z": None, "a": "é"}], "a": 2},
                    [[0.5, 1.0], [[1, "x"], [2, None]]]]
        for i, payload in enumerate(payloads):
            wal.append(i, "insert", "t" if i % 2 else "weird name",
                       rid=(0, i), before=None, after=(i, "v\"\n", 2.5),
                       payload=payload)
        wal.flush()
        with open(tmp_path / "wal" / segment_name(1), encoding="utf-8") as fh:
            lines = fh.readlines()
        assert lines == [record_line(r) for r in wal.records]
        for line, record in zip(lines, wal.records):
            assert record.crc == record.content_crc()
            back = record_from_wire(json.loads(line))
            assert back.is_valid() and back == record_from_wire(
                json.loads(json.dumps(record_to_wire(record))))
        wal.close()

    def test_large_batch_splits_into_bounded_records(self, tmp_path):
        db = boot(tmp_path, segment_bytes=DEFAULT_SEGMENT_BYTES,
                  stream_retention=1e9)
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        n = 2 * MAX_ROWS_PER_RECORD + 5
        rows = [(i, float(i)) for i in range(n)]
        db.ingest_batch("s", rows, sender="c1", seq=1)
        sizes = [len(stream_points(r)) for r in db.storage.wal.records
                 if r.kind == "stream_rows"]
        assert sizes == [MAX_ROWS_PER_RECORD, MAX_ROWS_PER_RECORD, 5]
        db.close()
        back = boot(tmp_path, segment_bytes=DEFAULT_SEGMENT_BYTES,
                    stream_retention=1e9)
        assert back.recovery_stats["stream_tuples"] == n
        assert [row for _t, row in back.get_stream("s").replay_since(
            float("-inf"))] == rows
        back.close()

    def test_corrupt_sealed_segment_refuses_to_load(self, tmp_path):
        wal = make_wal(tmp_path)
        fill(wal, 20)
        wal.close()
        # corrupt the first (sealed) segment mid-file
        path = tmp_path / "wal" / segment_name(1)
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) > 1
        lines[0] = "{not json\n"
        path.write_text("".join(lines))
        with pytest.raises(WALError) as info:
            make_wal(tmp_path)
        assert "sealed" in str(info.value)

    def test_path_without_segment_bytes_is_a_segment_directory(self,
                                                               tmp_path):
        """One on-disk layout: a bare ``path`` (whatever its name) is a
        directory of default-sized segments."""
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path=path)
        fill(wal, 4)
        wal.close()
        assert os.path.isfile(os.path.join(path, segment_name(1)))
        back = WriteAheadLog(path=path)
        assert back.head_lsn == 8
        assert back.segments.segment_bytes == DEFAULT_SEGMENT_BYTES
        back.close()


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------


class TestCompaction:
    def test_compaction_bounds_live_wal_bytes(self, tmp_path):
        """The acceptance property: under steady ingest + periodic
        compaction, live WAL bytes stay bounded while the total logged
        history (live + archive) keeps growing."""
        db = boot(tmp_path, segment_bytes=2048)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        max_live = 0
        for round_no in range(30):
            insert_rows(db, round_no * 10, round_no * 10 + 10)
            db.compact_wal()
            max_live = max(max_live,
                           db.storage.wal.segments.live_bytes())
        segs = db.storage.wal.segments
        assert len(segs.archived_segments()) >= 5
        # bounded: active segment + at most a couple sealed-not-yet-
        # compacted ones, never the whole history
        assert max_live <= 4 * 2048
        assert segs.archive_bytes() > max_live
        # memory mirrors the live directory after trimming
        wal = db.storage.wal
        assert wal.compacted_below > 1
        if wal.records:
            assert wal.records[0].lsn == wal.compacted_below
        else:                 # everything archived: memory fully drained
            assert wal.compacted_below == wal.head_lsn + 1
        db.close()

    def test_boot_replays_archive_plus_live(self, tmp_path):
        db = boot(tmp_path, segment_bytes=512)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 40)
        db.compact_wal()
        assert db.storage.wal.compacted_below > 1
        rows = sorted(db.table_rows("t"))
        db.close()

        back = boot(tmp_path, segment_bytes=512)
        assert sorted(back.table_rows("t")) == rows
        # after recovery, archived records were released from memory
        assert back.storage.wal.compacted_below > 1
        back.close()

    def test_records_from_below_compaction_raises_typed_gap(
            self, tmp_path):
        db = boot(tmp_path, segment_bytes=512)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 40)
        db.compact_wal()
        wal = db.storage.wal
        with pytest.raises(ReplicationGapError) as info:
            wal.records_from(1)
        gap = info.value
        assert gap.missing_from == 1
        assert gap.missing_to == wal.compacted_below - 1
        # the archive answers exactly the missing range...
        archived = wal.archived_wire_records(gap.missing_from,
                                             gap.missing_to)
        assert [w["lsn"] for w in archived] \
            == list(range(1, wal.compacted_below))
        # ...and memory continues contiguously from there
        insert_rows(db, 40, 45)
        tail = wal.records_from(gap.missing_to + 1)
        assert tail[0].lsn == wal.compacted_below
        db.close()

    def test_gap_beyond_archive_is_unrecoverable(self, tmp_path):
        wal = make_wal(tmp_path)
        fill(wal, 4)
        with pytest.raises(ReplicationGapError):
            wal.archived_wire_records(1, 2)   # archive is empty
        wal.close()

    def test_checkpoint_anchor_pins_compaction(self, tmp_path):
        db = boot(tmp_path, segment_bytes=512)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 5)
        wal = db.storage.wal
        wal.append(0, "cq_checkpoint", "derived:reporting",
                   payload={"state": 1})
        wal.flush()
        ckpt_lsn = wal._checkpoint_lsns["derived:reporting"]
        insert_rows(db, 5, 40)
        db.compact_wal()
        # nothing at or above the anchor was archived
        assert wal.compacted_below <= ckpt_lsn
        assert wal.latest_checkpoint("derived:reporting") == {"state": 1}
        db.close()

    def test_logged_drop_releases_checkpoint_anchor(self, tmp_path):
        db = boot(tmp_path, segment_bytes=512)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        wal = db.storage.wal
        wal.append(0, "cq_checkpoint", "derived:reporting",
                   payload={"state": 1})
        wal.append(0, "ddl_obj",
                   payload={"op": "drop", "name": "reporting"})
        wal.flush()
        insert_rows(db, 0, 40)
        db.compact_wal()
        # the dropped CQ no longer pins retention
        assert "derived:reporting" not in wal._checkpoint_lsns
        assert wal.compacted_below > 2
        db.close()


class TestCheckpointSegmentBoundaries:
    """latest_checkpoint at segment boundaries: the checkpoint as the
    last record of a sealed segment and as the first record of a new
    one, both in memory and after its segment was archived."""

    def checkpointed_wal(self, tmp_path, boundary):
        wal = make_wal(tmp_path, segment_bytes=10_000)
        fill(wal, 4)
        if boundary == "last-of-sealed":
            wal.append(0, "cq_checkpoint", "cq1", payload={"n": 1})
            wal.flush()
            wal.roll_segment(force=True)       # checkpoint seals its segment
        else:
            wal.roll_segment(force=True)
            wal.append(0, "cq_checkpoint", "cq1", payload={"n": 1})
            wal.flush()                        # checkpoint opens the next
        fill(wal, 4, start_tx=100)
        return wal

    @pytest.mark.parametrize("boundary",
                             ["last-of-sealed", "first-of-new"])
    def test_found_in_memory(self, tmp_path, boundary):
        wal = self.checkpointed_wal(tmp_path, boundary)
        assert wal.latest_checkpoint("cq1") == {"n": 1}
        wal.close()

    @pytest.mark.parametrize("boundary",
                             ["last-of-sealed", "first-of-new"])
    def test_survives_reload(self, tmp_path, boundary):
        wal = self.checkpointed_wal(tmp_path, boundary)
        wal.close()
        back = make_wal(tmp_path, segment_bytes=10_000)
        assert back.latest_checkpoint("cq1") == {"n": 1}
        back.close()

    def test_found_in_archive_after_its_segment_compacts(self, tmp_path):
        """A standby compacts without live CQs; at promotion the
        checkpoint may only exist in the archive — the tracked anchor
        LSN reads exactly that record back."""
        wal = self.checkpointed_wal(tmp_path, "last-of-sealed")
        ckpt_lsn = wal._checkpoint_lsns["cq1"]
        for seg in list(wal.segments.sealed_live_segments()):
            wal.segments.archive_segment(seg)
        wal.release_archived()
        assert wal.compacted_below > ckpt_lsn
        assert wal.latest_checkpoint("cq1") == {"n": 1}
        wal.close()


# ---------------------------------------------------------------------------
# archive-backed standby catch-up
# ---------------------------------------------------------------------------


class TestArchiveCatchup:
    def test_standby_attach_below_retention_served_from_archive(
            self, tmp_path):
        with ServerThread(data_dir=str(tmp_path / "prim"),
                          wal_segment_bytes=512,
                          stream_retention=600.0) as primary:
            pconn = client.connect(primary.host, primary.port)
            pconn.execute("CREATE TABLE t (a integer, b varchar(40))")
            for lo in range(0, 60, 10):
                pconn.execute(", ".join(
                    [f"INSERT INTO t VALUES ({lo}, 'seed-{lo}')"]
                    + [f"({i}, 'row-{i:04d}')"
                       for i in range(lo + 1, lo + 10)]))
            server = primary.server
            server.executor.submit(
                server.db.wal_lifecycle.compact).result(30.0)
            assert server.db.storage.wal.compacted_below > 1
            expected = sorted(pconn.query("SELECT a, b FROM t").rows)

            stby = ServerThread(
                data_dir=str(tmp_path / "stby"),
                standby_of=f"{primary.host}:{primary.port}",
                stream_retention=600.0, auto_promote=False,
                heartbeat_interval=0.15)
            stby.start()
            try:
                sconn = client.connect(stby.host, stby.port)
                wait_until(lambda: sorted(sconn.query(
                    "SELECT a, b FROM t").rows) == expected)
                # no duplicate apply across the archive/memory seam
                assert sconn.query(
                    "SELECT count(*) FROM t").scalar() == len(expected)
                assert server._replication.archive_serves >= 1
                sconn.close()
            finally:
                stby.stop()
            pconn.close()

    def test_standby_attach_behind_heavy_batch_backlog(
            self, tmp_path, monkeypatch):
        """A backlog of full-size batch records outweighs the frame cap
        long before it reaches ``BACKLOG_CHUNK`` records: attach cuts
        frames by encoded bytes, and the standby catches up."""
        from repro.replication import primary as shipping
        from repro.server import protocol
        sent = []
        encode = protocol.encode_frame

        def measuring(payload):
            data = encode(payload)
            if payload.get("push") == "wal":
                sent.append((len(payload["records"]), len(data)))
            return data
        monkeypatch.setattr(protocol, "encode_frame", measuring)
        pad = "x" * 2000
        batches = 20
        with ServerThread(data_dir=str(tmp_path / "prim"),
                          stream_retention=1e9) as primary:
            pconn = client.connect(primary.host, primary.port)
            pconn.execute("CREATE STREAM s (v integer, pad varchar(2100), "
                          "ts timestamp CQTIME USER)")
            for b in range(batches):
                base = b * MAX_ROWS_PER_RECORD
                pconn.ingest("s", [(base + i, pad, float(base + i))
                                   for i in range(MAX_ROWS_PER_RECORD)])
            wal = primary.server.db.storage.wal
            weights = [len(record_line(r)) for r in wal.records]
            assert wal.head_lsn < shipping.BACKLOG_CHUNK
            assert sum(weights) > protocol.MAX_FRAME_BYTES
            assert max(weights) < shipping.BACKLOG_FRAME_BYTES

            stby = ServerThread(
                data_dir=str(tmp_path / "stby"),
                standby_of=f"{primary.host}:{primary.port}",
                stream_retention=1e9, auto_promote=False,
                heartbeat_interval=0.15)
            stby.start()
            try:
                sconn = client.connect(stby.host, stby.port)
                wait_until(lambda: sconn.query(
                    "SELECT tuples FROM repro_streams WHERE name = 's'")
                    .scalar() == batches * MAX_ROWS_PER_RECORD,
                    timeout=60.0)
                assert sconn.query(
                    "SELECT applied_lsn FROM repro_replication_status"
                ).scalar() == wal.head_lsn
                sconn.close()
            finally:
                stby.stop()
            pconn.close()
        assert len(sent) > 1
        assert all(size <= shipping.BACKLOG_FRAME_BYTES * 1.01
                   for _count, size in sent)

    def test_gap_error_carries_range_over_the_wire(self, tmp_path):
        """When even the archive cannot help, the standby gets a typed
        ReplicationGapError naming the missing range."""
        with ServerThread(data_dir=str(tmp_path / "prim"),
                          wal_segment_bytes=512,
                          stream_retention=600.0) as primary:
            pconn = client.connect(primary.host, primary.port)
            pconn.execute("CREATE TABLE t (a integer, b varchar(40))")
            for lo in range(0, 40, 10):
                values = ", ".join(f"({i}, 'row-{i:04d}')"
                                   for i in range(lo, lo + 10))
                pconn.execute(f"INSERT INTO t VALUES {values}")
            server = primary.server
            server.executor.submit(
                server.db.wal_lifecycle.compact).result(30.0)
            wal = server.db.storage.wal
            assert wal.compacted_below > 1
            # destroy the archive out from under the primary
            server.executor.submit(
                lambda: [wal.segments.quarantine_segment(seg)
                         for seg in list(
                             wal.segments.archived_segments())]).result(30.0)
            with pytest.raises(ReplicationGapError) as info:
                pconn._request("replicate", from_lsn=1)
            assert info.value.missing_from == 1
            assert info.value.missing_to >= 1
            pconn.close()


# ---------------------------------------------------------------------------
# online backup + point-in-time restore
# ---------------------------------------------------------------------------


class TestBackupRestore:
    def test_backup_into_fresh_dir_restores_backup_state(self, tmp_path):
        db = boot(tmp_path, segment_bytes=512)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 20)
        info = db.backup(str(tmp_path / "bkp"))
        assert info["head_lsn"] == db.storage.wal.durable_lsn
        assert info["segments"] >= 1
        insert_rows(db, 20, 30)          # after the backup: not in it
        db.close()

        stats = restore_backup(str(tmp_path / "bkp"),
                               str(tmp_path / "node2"))
        assert stats["head_lsn"] == info["head_lsn"]
        back = boot(tmp_path, name="node2", segment_bytes=512)
        assert sorted(r[0] for r in back.table_rows("t")) \
            == list(range(20))
        back.close()

    def test_restore_in_place_merges_post_backup_tail(self, tmp_path):
        db = boot(tmp_path, segment_bytes=512)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 20)
        db.backup(str(tmp_path / "bkp"))
        insert_rows(db, 20, 30)
        db.storage.wal.flush()
        head = db.storage.wal.durable_lsn
        db.close()

        stats = restore_backup(str(tmp_path / "bkp"),
                               str(tmp_path / "node"))
        assert stats["head_lsn"] == head   # surviving tail was merged
        back = boot(tmp_path, segment_bytes=512)
        assert sorted(r[0] for r in back.table_rows("t")) \
            == list(range(30))
        back.close()

    def test_point_in_time_restore_discards_past_until_lsn(
            self, tmp_path):
        db = boot(tmp_path, segment_bytes=512)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 10)
        db.backup(str(tmp_path / "bkp"))
        insert_rows(db, 10, 20)
        db.storage.wal.flush()
        mark = db.storage.wal.durable_lsn  # commit boundary
        insert_rows(db, 20, 30)            # to be discarded by PITR
        db.close()

        stats = restore_backup(str(tmp_path / "bkp"),
                               str(tmp_path / "node"), until_lsn=mark)
        assert stats["head_lsn"] == mark
        back = boot(tmp_path, segment_bytes=512)
        assert sorted(r[0] for r in back.table_rows("t")) \
            == list(range(20))
        assert back.storage.wal.head_lsn == mark
        back.close()

    def test_restore_refuses_incomplete_backup(self, tmp_path):
        incomplete = tmp_path / "halfbkp" / "wal"
        incomplete.mkdir(parents=True)
        (incomplete / segment_name(1)).write_text("")
        with pytest.raises(WALError) as info:
            restore_backup(str(tmp_path / "halfbkp"),
                           str(tmp_path / "node"))
        assert "not a complete backup" in str(info.value)

    def test_backup_requires_segmented_wal(self):
        db = Database()
        with pytest.raises(WALError) as info:
            db.backup("/tmp/nowhere")
        assert "segmented" in str(info.value)

    def test_restore_refuses_unbridgeable_gap(self, tmp_path):
        db = boot(tmp_path, segment_bytes=256)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        for lo in range(0, 30, 5):       # several flushes → several rolls
            insert_rows(db, lo, lo + 5)
        db.backup(str(tmp_path / "bkp"))
        db.close()
        # punch a hole: delete a middle segment from the backup
        wal_dir = tmp_path / "bkp" / "wal"
        segments = sorted(os.listdir(wal_dir))
        assert len(segments) >= 3
        os.remove(wal_dir / segments[1])
        with pytest.raises(WALError) as info:
            restore_backup(str(tmp_path / "bkp"),
                           str(tmp_path / "node2"))
        assert "missing lsns" in str(info.value)


# ---------------------------------------------------------------------------
# scrubbing
# ---------------------------------------------------------------------------


def corrupt_segment_file(path):
    """Flip a record's content without touching its stored CRC."""
    lines = path.read_text().splitlines()
    fields = json.loads(lines[0])
    fields["after"] = ["tampered", 666]
    lines[0] = json.dumps(fields)
    path.write_text("\n".join(lines) + "\n")


class TestScrub:
    def test_clean_scrub_counts_everything(self, tmp_path):
        db = boot(tmp_path, segment_bytes=512)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 20)
        db.compact_wal()
        stats = db.scrub_wal()
        assert stats["segments_corrupt"] == 0
        assert stats["segments_ok"] >= 1
        assert stats["records"] > 0
        assert stats["heap_rows"] == 20
        assert stats["heap_errors"] == 0
        row = db.query("SELECT mode, scrubs, scrub_errors, quarantined "
                       "FROM repro_storage").rows[0]
        assert row == ("segmented", 1, 0, 0)
        db.close()

    def test_corrupt_archived_segment_quarantined(self, tmp_path):
        db = boot(tmp_path, segment_bytes=512, supervised=True)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 40)
        db.compact_wal()
        archive_dir = tmp_path / "node" / "wal_archive"
        victim = sorted(p for p in os.listdir(archive_dir)
                        if p.endswith(".log"))[0]
        corrupt_segment_file(archive_dir / victim)

        stats = db.scrub_wal()
        assert stats["quarantined"] == 1
        assert not os.path.exists(archive_dir / victim)
        assert os.path.exists(archive_dir / "quarantine" / victim)
        # loudly reported: a dead letter names the segment
        letters = db.supervisor.dead_letter_rows()
        assert any(kind == "scrub" and victim in reason
                   for _seq, _src, kind, reason, *_rest in letters)
        # the quarantined range is now a typed gap, not silent data
        with pytest.raises(ReplicationGapError):
            db.storage.wal.archived_wire_records(1)
        db.close()

    def test_corrupt_sealed_live_segment_reported_not_quarantined(
            self, tmp_path):
        db = boot(tmp_path, segment_bytes=512)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 40)          # several sealed live segments
        wal_dir = tmp_path / "node" / "wal"
        sealed = sorted(p for p in os.listdir(wal_dir)
                        if p.endswith(".log"))[0]
        corrupt_segment_file(wal_dir / sealed)

        stats = db.scrub_wal()
        assert stats["segments_corrupt"] == 1
        assert stats["quarantined"] == 0
        # the replay prefix is never silently dropped
        assert os.path.exists(wal_dir / sealed)
        assert db.wal_lifecycle.scrub_errors == 1
        assert "restore from backup" in db.wal_lifecycle.last_error
        db.close()


# ---------------------------------------------------------------------------
# crashpoints: compaction / backup / roll / scrub die at the worst moment
# ---------------------------------------------------------------------------


class TestLifecycleCrashpoints:
    def test_crash_during_segment_roll_loses_nothing(self, tmp_path):
        faults = FaultInjector(3)
        wal = make_wal(tmp_path, segment_bytes=128, faults=faults)
        fill(wal, 4)
        head = wal.head_lsn
        faults.arm("wal.segment_roll", probability=1.0, count=1)
        wal.append(50, "insert", "t", rid=(0, 50), after=(50, "x" * 80))
        wal.append(50, "commit")
        with pytest.raises(FaultInjected):
            wal.flush()                  # records durable, roll dies
        head = wal.head_lsn

        back = make_wal(tmp_path, segment_bytes=128)
        assert back.head_lsn == head     # nothing lost
        assert [r.lsn for r in back.records] == list(range(1, head + 1))
        fill(back, 2, start_tx=60)       # the next flush re-rolls
        assert back.segments.rolls >= 1
        back.close()

    def test_crash_mid_compaction_preserves_every_record(self, tmp_path):
        faults = FaultInjector(3)
        db = boot(tmp_path, segment_bytes=256, fault_injector=faults)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 30)
        rows = sorted(db.table_rows("t"))
        head = db.storage.wal.durable_lsn
        faults.arm("wal.compact", probability=1.0, count=1)
        with pytest.raises(FaultInjected):
            db.compact_wal()
        # the victim segment now exists in BOTH directories
        live = set(os.listdir(tmp_path / "node" / "wal"))
        archived = set(os.listdir(tmp_path / "node" / "wal_archive"))
        dup = live & archived
        assert dup

        # crash: reopen without a clean close — load() reconciles
        back = boot(tmp_path, segment_bytes=256)
        assert sorted(back.table_rows("t")) == rows
        wal = back.storage.wal
        assert wal.head_lsn == head
        # the duplicate was resolved to the archive copy, exactly once
        live = set(os.listdir(tmp_path / "node" / "wal"))
        archived = set(os.listdir(tmp_path / "node" / "wal_archive"))
        assert not (live & archived)
        assert dup <= archived
        back.close()

    def test_crashed_compaction_resumes_and_standby_converges(
            self, tmp_path):
        """kill mid-compaction on a serving primary: the next pass
        resumes, and a standby attaching afterwards gets every record
        exactly once through the archive + memory seam."""
        faults = FaultInjector(9)
        with ServerThread(data_dir=str(tmp_path / "prim"),
                          wal_segment_bytes=512, stream_retention=600.0,
                          fault_injector=faults) as primary:
            pconn = client.connect(primary.host, primary.port)
            pconn.execute("CREATE TABLE t (a integer, b varchar(40))")
            for lo in range(0, 40, 10):
                values = ", ".join(f"({i}, 'row-{i:04d}')"
                                   for i in range(lo, lo + 10))
                pconn.execute(f"INSERT INTO t VALUES {values}")
            server = primary.server
            faults.arm("wal.compact", probability=1.0, count=1)
            with pytest.raises(FaultInjected):
                server.executor.submit(
                    server.db.wal_lifecycle.compact).result(30.0)
            # retry (armed count exhausted): compaction resumes
            result = server.executor.submit(
                server.db.wal_lifecycle.compact).result(30.0)
            assert result["archived"] >= 1
            expected = sorted(pconn.query("SELECT a, b FROM t").rows)

            stby = ServerThread(
                data_dir=str(tmp_path / "stby"),
                standby_of=f"{primary.host}:{primary.port}",
                stream_retention=600.0, auto_promote=False,
                heartbeat_interval=0.15)
            stby.start()
            try:
                sconn = client.connect(stby.host, stby.port)
                wait_until(lambda: sorted(sconn.query(
                    "SELECT a, b FROM t").rows) == expected)
                assert sconn.query("SELECT count(*) FROM t").scalar() \
                    == len(expected)     # no duplicate apply
                sconn.close()
            finally:
                stby.stop()
            pconn.close()

    def test_crash_mid_backup_yields_refusable_backup(self, tmp_path):
        faults = FaultInjector(3)
        db = boot(tmp_path, segment_bytes=256, fault_injector=faults)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 20)
        rows = sorted(db.table_rows("t"))
        faults.arm("backup.snapshot", probability=1.0, count=1)
        with pytest.raises(FaultInjected):
            db.backup(str(tmp_path / "bkp"))
        # no BACKUP.json: the half-written directory is not a backup
        assert not os.path.exists(tmp_path / "bkp" / "BACKUP.json")
        with pytest.raises(WALError):
            restore_backup(str(tmp_path / "bkp"),
                           str(tmp_path / "node2"))
        # the primary is unharmed and the retry succeeds
        insert_rows(db, 20, 25)
        info = db.backup(str(tmp_path / "bkp"))
        db.close()
        restore_backup(str(tmp_path / "bkp"), str(tmp_path / "node2"))
        back = boot(tmp_path, name="node2", segment_bytes=256)
        assert len(back.table_rows("t")) == 25
        assert sorted(back.table_rows("t"))[:20] == rows
        assert back.storage.wal.head_lsn == info["head_lsn"]
        back.close()

    def test_crash_mid_scrub_changes_nothing(self, tmp_path):
        faults = FaultInjector(3)
        db = boot(tmp_path, segment_bytes=512, fault_injector=faults)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 30)
        db.compact_wal()
        archived_before = sorted(
            os.listdir(tmp_path / "node" / "wal_archive"))
        faults.arm("scrub.verify", probability=1.0, count=1)
        with pytest.raises(FaultInjected):
            db.scrub_wal()
        assert db.wal_lifecycle.segments_quarantined == 0
        assert sorted(os.listdir(tmp_path / "node" / "wal_archive")) \
            == archived_before
        stats = db.scrub_wal()           # retry is clean
        assert stats["segments_corrupt"] == 0
        db.close()


# ---------------------------------------------------------------------------
# the repro_storage view + CLI + legacy migration
# ---------------------------------------------------------------------------


class TestStorageSurfaces:
    def test_memory_mode_row(self):
        db = Database()
        row = db.query("SELECT mode, live_segments, head_lsn "
                       "FROM repro_storage").rows[0]
        assert row == ("memory", None, 0)

    def test_segmented_row_tracks_lifecycle(self, tmp_path):
        db = boot(tmp_path, segment_bytes=512)
        db.execute("CREATE TABLE t (a integer, b varchar(40))")
        insert_rows(db, 0, 40)
        db.compact_wal()
        db.backup(str(tmp_path / "bkp"))
        db.scrub_wal()
        row = db.query(
            "SELECT mode, archive_segments, archived_total, backups, "
            "scrubs, head_lsn, low_water_lsn FROM repro_storage").rows[0]
        mode, archive_segments, archived_total, backups, scrubs, \
            head, low = row
        assert mode == "segmented"
        assert archive_segments >= 1 and archived_total >= 1
        assert backups == 1 and scrubs == 1
        assert 1 <= low <= head + 1
        db.close()

    def test_cli_storage_command(self):
        import io
        from repro.cli import Shell
        out = io.StringIO()
        shell = Shell(out=out)
        shell.handle_line("\\storage")
        assert "memory" in out.getvalue()

    def test_single_file_wal_is_refused(self, tmp_path):
        """A pre-segmentation data dir (``wal.jsonl``, no ``wal/``) is
        refused by name — never booted past as an empty database — and
        so is a ``wal_path`` that points at a file."""
        data_dir = tmp_path / "node"
        data_dir.mkdir()
        legacy = data_dir / "wal.jsonl"
        legacy.write_text('{"lsn": 1}\n')
        with pytest.raises(WALError) as info:
            open_database(data_dir=str(data_dir))
        assert "wal.jsonl" in str(info.value)
        assert legacy.exists() and not (data_dir / "wal").exists()
        with pytest.raises(WALError) as info:
            WriteAheadLog(path=str(legacy))
        assert "wal.jsonl" in str(info.value)
