"""MVCC-aware tables: schema + heap file + index maintenance + WAL.

This is the "persistent structure" side of the paper's core principle
(Section 2.3): stored data is streaming data that has been entered into
tables and indexes.  Channels write here; snapshot queries read here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.catalog.schema import Schema
from repro.storage.heap import HeapFile
from repro.storage.page import RowVersion
from repro.txn.mvcc import Snapshot, Transaction


@dataclass
class TableStats:
    """Planner statistics collected by ANALYZE."""

    row_count: int = 0
    page_count: int = 0
    #: column name -> (n_distinct, null_fraction)
    columns: Dict[str, tuple] = field(default_factory=dict)


class Table:
    """A named, durable, multi-versioned relation."""

    def __init__(self, name: str, schema: Schema, heap: HeapFile,
                 pool, wal=None):
        self.name = name
        self.schema = schema
        self.heap = heap
        self._pool = pool
        self._wal = wal
        self._indexes = []  # BPlusTree objects maintained on write
        self.stats: Optional[TableStats] = None  # set by ANALYZE

    # -- index maintenance ----------------------------------------------------

    def attach_index(self, index) -> None:
        """Register an index and backfill it from current contents."""
        self._indexes.append(index)
        positions = [self.schema.index_of(c) for c in index.column_names]
        for rid, version in self.heap.scan(self._pool):
            if version.xmax is None:
                index.insert(tuple(version.values[i] for i in positions), rid)

    def detach_index(self, index) -> None:
        self._indexes.remove(index)

    def indexes(self):
        return list(self._indexes)

    def _index_insert(self, values: tuple, rid) -> None:
        for index in self._indexes:
            positions = [self.schema.index_of(c) for c in index.column_names]
            index.insert(tuple(values[i] for i in positions), rid)

    def _index_delete(self, values: tuple, rid) -> None:
        for index in self._indexes:
            positions = [self.schema.index_of(c) for c in index.column_names]
            index.delete(tuple(values[i] for i in positions), rid)

    # -- write path -------------------------------------------------------------

    def insert(self, txn: Transaction, values, rid=None) -> tuple:
        """Insert one row inside ``txn``; returns its rid.  WAL replay
        passes the logged ``rid``; a row already there is replaced (the
        later record wins, as in :meth:`WriteAheadLog.replay`)."""
        row = self.schema.coerce_row(values)
        version = RowVersion(txn.txid, row)
        if rid is not None:
            old = self.heap.read(self._pool, rid)
            if old is not None:
                self.on_abort_remove(rid, old.values)
        rid = self.heap.insert(self._pool, version, rid)
        if self._wal is not None:
            self._wal.append(txn.txid, "insert", self.name, rid, after=row)
        self._index_insert(row, rid)
        txn.inserted.append((self, rid, row))
        return rid

    def delete_version(self, txn: Transaction, rid, version: RowVersion) -> None:
        """Mark ``version`` deleted by ``txn`` (MVCC: set xmax)."""
        version.xmax = txn.txid
        self.heap.mark_updated(self._pool, rid)
        if self._wal is not None:
            self._wal.append(txn.txid, "delete", self.name, rid,
                             before=version.values)
        txn.deleted.append((self, rid, version))

    def update_version(self, txn: Transaction, rid, version: RowVersion,
                       new_values) -> tuple:
        """MVCC update: delete old version, insert the replacement."""
        self.delete_version(txn, rid, version)
        return self.insert(txn, new_values)

    def truncate(self, txn: Transaction) -> int:
        """Delete every version visible to ``txn`` (REPLACE channels,
        TRUNCATE); returns how many rows were deleted."""
        deleted = 0
        for rid, version in list(self.heap.scan(self._pool)):
            if version.xmax is None:
                self.delete_version(txn, rid, version)
                deleted += 1
        return deleted

    # -- abort undo hooks (called by the transaction manager) -------------------

    def on_abort_remove(self, rid, values: tuple) -> None:
        self._index_delete(values, rid)
        self.heap.remove(self._pool, rid)

    def on_abort_undelete(self, rid) -> None:
        self.heap.mark_updated(self._pool, rid)

    # -- read path ---------------------------------------------------------------

    def scan(self, snapshot: Snapshot, manager,
             own_txid: Optional[int] = None) -> Iterator[Tuple[tuple, tuple]]:
        """Yield (rid, values) for rows visible under ``snapshot``."""
        for rid, version in self.heap.scan(self._pool):
            if manager.visible(version, snapshot, own_txid):
                yield rid, version.values

    def fetch(self, rid, snapshot: Snapshot, manager,
              own_txid: Optional[int] = None) -> Optional[tuple]:
        """Fetch one row by rid if visible, else None (for index scans)."""
        version = self.heap.read(self._pool, rid)
        if version is None:
            return None
        if manager.visible(version, snapshot, own_txid):
            return version.values
        return None

    def visible_version(self, rid, snapshot, manager, own_txid=None):
        """Like :meth:`fetch` but returns the RowVersion (for DML)."""
        version = self.heap.read(self._pool, rid)
        if version is None:
            return None
        if manager.visible(version, snapshot, own_txid):
            return version
        return None

    def row_count(self, snapshot: Snapshot, manager) -> int:
        """Number of visible rows (scans the heap)."""
        return sum(1 for _ in self.scan(snapshot, manager))

    # -- maintenance ------------------------------------------------------------

    def analyze(self, snapshot: Snapshot, manager) -> TableStats:
        """Collect planner statistics over the visible rows."""
        distinct = [set() for _ in self.schema]
        nulls = [0] * len(self.schema)
        rows = 0
        for _rid, values in self.scan(snapshot, manager):
            rows += 1
            for i, value in enumerate(values):
                if value is None:
                    nulls[i] += 1
                else:
                    distinct[i].add(value)
        columns = {}
        for i, column in enumerate(self.schema):
            null_frac = nulls[i] / rows if rows else 0.0
            columns[column.name] = (len(distinct[i]), null_frac)
        self.stats = TableStats(rows, self.heap.page_count, columns)
        return self.stats

    def estimated_rows(self) -> int:
        """Planner row estimate: ANALYZE stats or the live slot count."""
        if self.stats is not None:
            return self.stats.row_count
        return self.heap.row_count

    def vacuum(self, manager) -> int:
        """Physically remove dead versions (committed deletes no live
        snapshot can see, plus aborted leftovers); returns how many."""
        removed = 0
        for rid, version in list(self.heap.scan(self._pool)):
            if manager.is_dead(version):
                self._index_delete(version.values, rid)
                self.heap.remove(self._pool, rid)
                removed += 1
        return removed

    def __repr__(self):
        return f"Table({self.name}, {self.heap.page_count} pages)"
