"""Tests for the write-ahead log and MVCC visibility."""

import pytest

from repro.catalog.schema import Column, Schema
from repro.errors import TransactionError
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.manager import StorageManager
from repro.storage.page import RowVersion
from repro.storage.wal import WriteAheadLog
from repro.txn.mvcc import TransactionManager
from repro.txn.window_consistency import WindowConsistentView
from repro.types.datatypes import IntegerType, VarcharType


class TestWAL:
    def test_append_assigns_lsns(self):
        wal = WriteAheadLog()
        r1 = wal.append(1, "insert", "t", (0, 0), after=(1,))
        r2 = wal.append(1, "commit")
        assert r2.lsn == r1.lsn + 1

    def test_flush_charges_disk(self):
        disk = SimulatedDisk()
        wal = WriteAheadLog(disk)
        wal.append(1, "insert", "t", (0, 0), after=(1, "abc"))
        wal.flush()
        assert disk.stats.pages_written >= 1

    def test_flush_idempotent(self):
        disk = SimulatedDisk()
        wal = WriteAheadLog(disk)
        wal.append(1, "commit")
        wal.flush()
        written = disk.stats.pages_written
        wal.flush()
        assert disk.stats.pages_written == written

    def test_replay_only_committed(self):
        wal = WriteAheadLog()
        wal.append(1, "insert", "t", (0, 0), after=(1,))
        wal.append(1, "commit")
        wal.append(2, "insert", "t", (0, 1), after=(2,))  # never commits
        wal.flush()
        assert wal.replay() == {"t": [(1,)]}

    def test_replay_respects_deletes(self):
        wal = WriteAheadLog()
        wal.append(1, "insert", "t", (0, 0), after=(1,))
        wal.append(1, "delete", "t", (0, 0), before=(1,))
        wal.append(1, "commit")
        wal.flush()
        assert wal.replay() == {}

    def test_unflushed_records_not_replayed(self):
        wal = WriteAheadLog()
        wal.append(1, "insert", "t", (0, 0), after=(1,))
        wal.append(1, "commit")
        # crash before flush: nothing durable
        assert wal.replay() == {}

    def test_latest_checkpoint(self):
        wal = WriteAheadLog()
        wal.append(0, "cq_checkpoint", "cq1", payload={"v": 1})
        wal.append(0, "cq_checkpoint", "cq1", payload={"v": 2})
        wal.append(0, "cq_checkpoint", "other", payload={"v": 9})
        wal.flush()
        assert wal.latest_checkpoint("cq1") == {"v": 2}
        assert wal.latest_checkpoint("nope") is None

    def test_latest_checkpoint_validates_one_record_not_the_log(
            self, monkeypatch):
        from repro.storage.wal import LogRecord
        wal = WriteAheadLog()
        wal.append(0, "cq_checkpoint", "cq1", payload={"v": 1})
        for i in range(200):
            wal.append(1, "insert", "t", (0, i), after=(i,))
        wal.flush()
        checked = []
        valid = LogRecord.is_valid
        monkeypatch.setattr(
            LogRecord, "is_valid",
            lambda record: checked.append(record.lsn) or valid(record))
        assert wal.latest_checkpoint("cq1") == {"v": 1}
        assert checked == [1]

    def test_latest_checkpoint_is_a_durable_one(self):
        from repro.faults import FaultInjector
        faults = FaultInjector(7)
        wal = WriteAheadLog(faults=faults)
        wal.append(0, "cq_checkpoint", "cq1", payload={"v": 1}, flush=True)
        wal.append(0, "cq_checkpoint", "cq1", payload={"v": 2})
        assert wal.latest_checkpoint("cq1") == {"v": 1}      # unflushed
        faults.arm("wal.torn_write", probability=1.0, count=1)
        wal.flush()
        assert wal.latest_checkpoint("cq1") == {"v": 1}      # torn
        # the stream's logged drop takes its CQ's checkpoints with it
        wal.append(0, "ddl_obj", payload={"op": "drop", "name": "cq1"},
                   flush=True)
        assert wal.latest_checkpoint("cq1") is None


@pytest.fixture
def manager():
    return TransactionManager()


class TestMVCCVisibility:
    def test_own_writes_visible(self, manager):
        txn = manager.begin()
        version = RowVersion(txn.txid, (1,))
        assert manager.visible(version, txn.snapshot, txn.txid)

    def test_uncommitted_writes_invisible_to_others(self, manager):
        writer = manager.begin()
        version = RowVersion(writer.txid, (1,))
        reader = manager.begin()
        assert not manager.visible(version, reader.snapshot, reader.txid)

    def test_committed_before_snapshot_visible(self, manager):
        writer = manager.begin()
        version = RowVersion(writer.txid, (1,))
        writer.commit()
        reader = manager.begin()
        assert manager.visible(version, reader.snapshot, reader.txid)

    def test_committed_after_snapshot_invisible(self, manager):
        reader = manager.begin()
        writer = manager.begin()
        version = RowVersion(writer.txid, (1,))
        writer.commit()
        assert not manager.visible(version, reader.snapshot, reader.txid)

    def test_concurrent_commit_invisible(self, manager):
        writer = manager.begin()
        reader = manager.begin()   # writer in progress at snapshot
        version = RowVersion(writer.txid, (1,))
        writer.commit()
        assert not manager.visible(version, reader.snapshot, reader.txid)

    def test_aborted_invisible(self, manager):
        writer = manager.begin()
        version = RowVersion(writer.txid, (1,))
        writer.abort()
        reader = manager.begin()
        assert not manager.visible(version, reader.snapshot, reader.txid)

    def test_delete_by_self_hides_version(self, manager):
        txn = manager.begin()
        version = RowVersion(txn.txid, (1,))
        version.xmax = txn.txid
        assert not manager.visible(version, txn.snapshot, txn.txid)

    def test_committed_delete_hides(self, manager):
        writer = manager.begin()
        version = RowVersion(writer.txid, (1,))
        writer.commit()
        deleter = manager.begin()
        version.xmax = deleter.txid
        deleter.commit()
        reader = manager.begin()
        assert not manager.visible(version, reader.snapshot, reader.txid)

    def test_uncommitted_delete_still_visible(self, manager):
        writer = manager.begin()
        version = RowVersion(writer.txid, (1,))
        writer.commit()
        deleter = manager.begin()
        version.xmax = deleter.txid
        reader = manager.begin()
        assert manager.visible(version, reader.snapshot, reader.txid)

    def test_frozen_txid_always_visible(self, manager):
        version = RowVersion(TransactionManager.FROZEN_TXID, (1,))
        reader = manager.begin()
        assert manager.visible(version, reader.snapshot, reader.txid)

    def test_double_commit_rejected(self, manager):
        txn = manager.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_commit_after_abort_rejected(self, manager):
        txn = manager.begin()
        txn.abort()
        with pytest.raises(TransactionError):
            txn.commit()


def make_table(manager=None):
    storage = StorageManager()
    txn_manager = manager if manager is not None \
        else TransactionManager(storage.wal)
    schema = Schema([
        Column("id", IntegerType(), not_null=True),
        Column("name", VarcharType(50)),
    ])
    return storage.create_table("t", schema), txn_manager, storage


class TestTable:
    def test_insert_scan(self):
        table, manager, _storage = make_table()
        txn = manager.begin()
        table.insert(txn, (1, "a"))
        table.insert(txn, (2, "b"))
        txn.commit()
        reader = manager.begin()
        rows = [v for _r, v in table.scan(reader.snapshot, manager)]
        assert rows == [(1, "a"), (2, "b")]

    def test_coercion_on_insert(self):
        table, manager, _storage = make_table()
        txn = manager.begin()
        table.insert(txn, ("7", 123))
        txn.commit()
        rows = [v for _r, v in table.scan(
            manager.take_snapshot(), manager)]
        assert rows == [(7, "123")]

    def test_not_null_enforced(self):
        from repro.errors import ConstraintError
        table, manager, _storage = make_table()
        txn = manager.begin()
        with pytest.raises(ConstraintError):
            table.insert(txn, (None, "a"))

    def test_update_creates_new_version(self):
        table, manager, _storage = make_table()
        txn = manager.begin()
        rid = table.insert(txn, (1, "a"))
        txn.commit()
        updater = manager.begin()
        version = table.visible_version(rid, updater.snapshot, manager)
        table.update_version(updater, rid, version, (1, "z"))
        updater.commit()
        rows = [v for _r, v in table.scan(manager.take_snapshot(), manager)]
        assert rows == [(1, "z")]

    def test_abort_undoes_insert(self):
        table, manager, _storage = make_table()
        txn = manager.begin()
        table.insert(txn, (1, "a"))
        txn.abort()
        assert list(table.scan(manager.take_snapshot(), manager)) == []
        assert table.heap.row_count == 0  # physically removed

    def test_abort_undoes_delete(self):
        table, manager, _storage = make_table()
        txn = manager.begin()
        rid = table.insert(txn, (1, "a"))
        txn.commit()
        deleter = manager.begin()
        version = table.visible_version(rid, deleter.snapshot, manager)
        table.delete_version(deleter, rid, version)
        deleter.abort()
        rows = [v for _r, v in table.scan(manager.take_snapshot(), manager)]
        assert rows == [(1, "a")]

    def test_snapshot_isolation_for_readers(self):
        table, manager, _storage = make_table()
        setup = manager.begin()
        table.insert(setup, (1, "a"))
        setup.commit()
        reader = manager.begin()
        writer = manager.begin()
        table.insert(writer, (2, "b"))
        writer.commit()
        rows = [v for _r, v in table.scan(reader.snapshot, manager,
                                          reader.txid)]
        assert rows == [(1, "a")]  # reader's snapshot predates writer

    def test_truncate_deletes_visible_rows(self):
        table, manager, _storage = make_table()
        setup = manager.begin()
        table.insert(setup, (1, "a"))
        setup.commit()
        truncator = manager.begin()
        table.truncate(truncator)
        truncator.commit()
        assert table.row_count(manager.take_snapshot(), manager) == 0

    def test_index_maintained_on_insert_and_abort(self):
        table, manager, storage = make_table()
        index = storage.create_index("idx", table, ["id"])
        txn = manager.begin()
        table.insert(txn, (5, "x"))
        txn.commit()
        assert len(index.search((5,))) == 1
        bad = manager.begin()
        table.insert(bad, (6, "y"))
        bad.abort()
        assert index.search((6,)) == []

    def test_index_backfill(self):
        table, manager, storage = make_table()
        txn = manager.begin()
        table.insert(txn, (1, "a"))
        table.insert(txn, (2, "b"))
        txn.commit()
        index = storage.create_index("idx", table, ["id"])
        assert len(index.search((2,))) == 1


class TestWindowConsistentView:
    def test_snapshot_fixed_until_refresh(self):
        table, manager, _storage = make_table()
        view = WindowConsistentView(manager)
        txn = manager.begin()
        table.insert(txn, (1, "a"))
        txn.commit()
        # committed mid-window: invisible through the view
        rows = [v for _r, v in table.scan(view.snapshot, manager)]
        assert rows == []
        view.refresh()
        rows = [v for _r, v in table.scan(view.snapshot, manager)]
        assert rows == [(1, "a")]

    def test_refresh_count(self):
        _table, manager, _storage = make_table()
        view = WindowConsistentView(manager)
        view.refresh()
        view.refresh()
        assert view.refresh_count == 2
