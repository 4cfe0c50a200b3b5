"""StorageManager: owns the disk, buffer pool, WAL and file-id space."""

from __future__ import annotations

from repro.catalog.schema import Schema
from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.table import Table
from repro.storage.wal import WriteAheadLog


class StorageManager:
    """One per database: the physical layer behind every table and index."""

    def __init__(self, buffer_pages: int = 256, disk: SimulatedDisk = None,
                 faults=None):
        self.disk = disk if disk is not None else SimulatedDisk()
        if faults is not None and self.disk.faults is None:
            self.disk.faults = faults
        self.pool = BufferPool(self.disk, buffer_pages, faults=faults)
        # in memory until `open_database` puts it on a directory
        self.wal = WriteAheadLog(self.disk, self.disk.page_size,
                                 faults=faults)
        self._next_file_id = 1  # 0 is the WAL

    def allocate_file(self) -> HeapFile:
        heap = HeapFile(self._next_file_id)
        self._next_file_id += 1
        return heap

    def create_table(self, name: str, schema: Schema) -> Table:
        return Table(name, schema, self.allocate_file(), self.pool, self.wal)

    def create_index(self, name: str, table: Table, column_names,
                     unique: bool = False, charge_io: bool = True) -> BPlusTree:
        """Build a B+tree over ``table`` and keep it maintained.

        ``charge_io=False`` builds a purely in-memory index (used by the
        A2 ablation to separate index benefit from index I/O cost).
        """
        pool = self.pool if charge_io else None
        file_id = self._next_file_id
        self._next_file_id += 1
        index = BPlusTree(name, table.name, column_names, pool, file_id, unique)
        table.attach_index(index)
        return index

    def drop_table_storage(self, table: Table) -> None:
        self.pool.drop_file(table.heap.file_id)
