"""Heap files: unordered row storage addressed by (page_no, slot) rids."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.storage.buffer import BufferPool
from repro.storage.page import Page, RowVersion, row_bytes

Rid = Tuple[int, int]


class HeapFile:
    """An append-friendly file of slotted pages.

    All access goes through a :class:`BufferPool` so the simulated disk
    sees every page touch.  The file keeps the authoritative page list
    (the "disk image"); the pool only decides what a touch costs.
    """

    def __init__(self, file_id: int):
        self.file_id = file_id
        self._pages = []
        self.row_count = 0  # live slots, maintained on insert/remove

    # -- low-level access (used by the buffer pool) -------------------------

    def page(self, page_no: int) -> Page:
        return self._pages[page_no]

    @property
    def page_count(self) -> int:
        return len(self._pages)

    # -- public operations ---------------------------------------------------

    def insert(self, pool: BufferPool, version: RowVersion,
               rid: Optional[Rid] = None) -> Rid:
        """Insert a row version, returning its rid — or, for WAL replay,
        at the (empty) ``rid`` the log names: the rebuilt heap is the
        logged one, and a later record's rid finds its row."""
        if rid is not None:
            while len(self._pages) <= rid[0]:
                self._pages.append(Page(len(self._pages)))
                pool.fetch_new(self, self._pages[-1])
            pool.fetch(self, rid[0]).place(rid[1], version)
            pool.mark_dirty(self, rid[0])
            self.row_count += 1
            return tuple(rid)
        nbytes = row_bytes(version.values)
        if self._pages:
            last_no = len(self._pages) - 1
            page = pool.fetch(self, last_no)
            if page.has_room(nbytes):
                slot = page.insert(version)
                pool.mark_dirty(self, last_no)
                self.row_count += 1
                return (last_no, slot)
        page = Page(len(self._pages))
        self._pages.append(page)
        pool.fetch_new(self, page)
        slot = page.insert(version)
        self.row_count += 1
        return (page.page_no, slot)

    def read(self, pool: BufferPool, rid: Rid) -> Optional[RowVersion]:
        """Fetch one row version by rid (None if tombstoned, or if the
        heap never held that rid)."""
        page_no, slot = rid
        if page_no >= len(self._pages):
            return None
        return pool.fetch(self, page_no).get(slot)

    def mark_updated(self, pool: BufferPool, rid: Rid) -> None:
        """Charge the write-back for an in-place header update (xmax)."""
        pool.mark_dirty(self, rid[0])

    def remove(self, pool: BufferPool, rid: Rid) -> None:
        """Physically remove a version (vacuum / rollback cleanup)."""
        page_no, slot = rid
        page = pool.fetch(self, page_no)
        if page.get(slot) is not None:
            page.remove(slot)
            self.row_count -= 1
            pool.mark_dirty(self, page_no)

    def scan(self, pool: BufferPool) -> Iterator[Tuple[Rid, RowVersion]]:
        """Full scan in page order, yielding (rid, version)."""
        for page_no in range(len(self._pages)):
            page = pool.fetch(self, page_no)
            for slot, version in page.live_versions():
                yield (page_no, slot), version

    def scan_newest_first(self, pool: BufferPool
                          ) -> Iterator[Tuple[Rid, RowVersion]]:
        """The scan backwards — last page first, last slot first — for
        a reader that stops once it has found recently inserted rows."""
        for page_no in reversed(range(len(self._pages))):
            page = pool.fetch(self, page_no)
            for slot, version in reversed(list(page.live_versions())):
                yield (page_no, slot), version

    def truncate(self, pool: BufferPool) -> None:
        """Drop all pages (REPLACE-mode channels, DROP TABLE)."""
        pool.drop_file(self.file_id)
        self._pages = []
        self.row_count = 0
