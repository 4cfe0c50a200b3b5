"""Tests for the fault-injection subsystem: the crashpoint registry, the
seeded injector, and the storage-layer instrumentation (disk, buffer
pool, WAL record checksums and torn-write truncation)."""

import pytest

from repro import Database
from repro.errors import FaultInjected
from repro.faults import (
    CRASHPOINTS,
    FaultInjector,
    crashpoint_names,
    register_crashpoint,
)
from tests.conftest import rebuilt_from


class TestRegistry:
    def test_builtin_crashpoints_registered(self):
        for name in ("disk.read_page", "disk.write_page", "wal.torn_write",
                     "buffer.evict", "stream.deliver",
                     "stream.slow_consumer", "cq.window", "channel.write"):
            assert name in CRASHPOINTS

    def test_register_is_idempotent(self):
        before = CRASHPOINTS["cq.window"]
        register_crashpoint("cq.window", "something else")
        assert CRASHPOINTS["cq.window"] == before

    def test_arming_unknown_crashpoint_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().arm("no.such.site")


class TestInjector:
    def test_armed_crashpoint_fires(self):
        injector = FaultInjector()
        injector.arm("cq.window")
        with pytest.raises(FaultInjected) as info:
            injector.check("cq.window", "cq_1")
        assert info.value.crashpoint == "cq.window"
        assert "cq_1" in str(info.value)

    def test_disarmed_crashpoint_is_silent(self):
        injector = FaultInjector()
        injector.check("cq.window")
        assert injector.poll("disk.read_page") is None

    def test_count_limits_fires(self):
        injector = FaultInjector()
        injector.arm("cq.window", count=2)
        fired = sum(1 for _ in range(10) if injector.should("cq.window"))
        assert fired == 2

    def test_after_skips_first_evaluations(self):
        injector = FaultInjector()
        injector.arm("cq.window", after=3)
        results = [injector.should("cq.window") for _ in range(5)]
        assert results == [False, False, False, True, True]

    def test_fixed_seed_is_deterministic(self):
        def schedule(seed):
            injector = FaultInjector(seed=seed)
            injector.arm("stream.deliver", probability=0.3)
            return [injector.should("stream.deliver") for _ in range(200)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_reset_replays_identical_schedule(self):
        injector = FaultInjector(seed=42)
        injector.arm("stream.deliver", probability=0.5)
        first = [injector.should("stream.deliver") for _ in range(100)]
        injector.reset()
        injector.arm("stream.deliver", probability=0.5)
        assert [injector.should("stream.deliver")
                for _ in range(100)] == first

    def test_custom_exception_factory(self):
        injector = FaultInjector()
        injector.arm("disk.read_page", exc_factory=lambda d: OSError(d))
        with pytest.raises(OSError):
            injector.check("disk.read_page", "file 3 page 9")

    def test_stats_rows_cover_all_crashpoints(self):
        injector = FaultInjector()
        injector.arm("cq.window", count=1)
        injector.should("cq.window")
        rows = injector.stats_rows()
        assert [r[0] for r in rows] == crashpoint_names()
        by_name = {r[0]: r for r in rows}
        # exhausted plans report armed=False but keep their counters
        assert by_name["cq.window"][1] is False
        assert by_name["cq.window"][4] == 1
        assert by_name["disk.read_page"][1] is False


class TestStorageInstrumentation:
    def test_disk_read_fault_surfaces_in_query(self):
        injector = FaultInjector()
        db = Database(buffer_pages=4, fault_injector=injector)
        db.execute("CREATE TABLE t (a integer)")
        db.insert_table("t", [(i,) for i in range(500)])
        db.drop_caches()
        injector.arm("disk.read_page", count=1)
        with pytest.raises(FaultInjected):
            db.query("SELECT count(*) FROM t")
        injector.disarm()
        assert db.query("SELECT count(*) FROM t").scalar() == 500

    def test_buffer_eviction_failure_does_not_lose_the_page(self):
        injector = FaultInjector()
        db = Database(buffer_pages=4, fault_injector=injector)
        db.execute("CREATE TABLE t (a integer)")
        db.insert_table("t", [(i,) for i in range(2000)])
        injector.arm("buffer.evict", count=1)
        # enough churn to force dirty-page evictions through the pool
        db.execute("CREATE TABLE u (a integer)")
        try:
            db.insert_table("u", [(i,) for i in range(2000)])
        except FaultInjected:
            pass
        injector.disarm()
        assert db.storage.pool.eviction_failures == 1
        # after the failed eviction both tables remain fully readable
        assert db.query("SELECT count(*) FROM t").scalar() == 2000

    def test_crashpoints_system_view(self):
        injector = FaultInjector()
        db = Database(fault_injector=injector)
        injector.arm("wal.torn_write", probability=0.5)
        rows = db.query("SELECT crashpoint, armed FROM repro_crashpoints "
                        "WHERE armed").rows
        assert rows == [("wal.torn_write", True)]

    def test_crashpoints_view_without_injector(self):
        db = Database()
        rows = db.query("SELECT count(*) FROM repro_crashpoints").scalar()
        assert rows == len(CRASHPOINTS)


class TestWalChecksums:
    def test_every_record_carries_matching_crc(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        for record in db.storage.wal.records:
            assert record.crc == record.content_crc()
            assert record.is_valid()

    def test_bit_flip_detected(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        record = db.storage.wal.records[-2]
        record.after = (999,)  # corrupt the payload, keep the stored crc
        assert not record.is_valid()

    def test_torn_write_truncates_replay_at_first_bad_record(self):
        injector = FaultInjector()
        db = Database(fault_injector=injector)
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        injector.arm("wal.torn_write", count=1)
        db.execute("INSERT INTO t VALUES (2)")  # commit record tears
        injector.disarm()
        db.execute("INSERT INTO t VALUES (3)")  # after the torn record
        wal = db.storage.wal
        assert wal.torn_records == 1
        assert wal.first_corrupt_lsn() is not None
        recovered = rebuilt_from(wal)
        # the first insert is durable; the torn commit and everything
        # after it is discarded — a strict prefix, never a gap
        assert recovered.table_rows("t") == [(1,)]

    def test_clean_log_has_no_corrupt_lsn(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.storage.wal.first_corrupt_lsn() is None

    def test_commit_whose_flush_failed_is_not_replayed(self):
        injector = FaultInjector()
        db = Database(fault_injector=injector)
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        injector.arm("disk.write_page", count=1)
        with pytest.raises(FaultInjected):
            db.execute("INSERT INTO t VALUES (2)")
        injector.disarm()
        recovered = rebuilt_from(db.storage.wal)
        assert recovered.table_rows("t") == [(1,)]
