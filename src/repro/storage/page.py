"""Slotted pages and row versions.

A :class:`Page` holds :class:`RowVersion` objects in slots.  Sizes are
*estimated* (we do not actually serialise values) so the page count — and
therefore the simulated I/O cost — tracks what a C engine would incur.
"""

from __future__ import annotations

from typing import Optional

PAGE_SIZE = 8192
_PAGE_HEADER = 24
_SLOT_OVERHEAD = 4
_ROW_HEADER = 24  # xmin, xmax, flags — a PostgreSQL-like tuple header


def value_bytes(value) -> int:
    """Estimated on-disk size of one SQL value."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return 4 + len(value)
    return 8


def row_bytes(values) -> int:
    """Estimated on-disk size of one row (header + values)."""
    return _ROW_HEADER + sum(value_bytes(v) for v in values)


class RowVersion:
    """One MVCC version of a row.

    ``xmin`` is the creating transaction, ``xmax`` the deleting one (or
    None while the version is live).  ``values`` is the row tuple.
    """

    __slots__ = ("xmin", "xmax", "values")

    def __init__(self, xmin: int, values: tuple, xmax: Optional[int] = None):
        self.xmin = xmin
        self.xmax = xmax
        self.values = values

    def __repr__(self):
        return f"RowVersion(xmin={self.xmin}, xmax={self.xmax}, {self.values!r})"


class Page:
    """A slotted page of row versions.

    Deleted slots keep a ``None`` tombstone so row ids (page, slot) stay
    stable; vacuum compaction is out of scope.
    """

    __slots__ = ("page_no", "slots", "bytes_used")

    def __init__(self, page_no: int):
        self.page_no = page_no
        self.slots = []
        self.bytes_used = _PAGE_HEADER

    def has_room(self, nbytes: int) -> bool:
        return self.bytes_used + nbytes + _SLOT_OVERHEAD <= PAGE_SIZE

    def insert(self, version: RowVersion) -> int:
        """Append a version; returns its slot number."""
        self.slots.append(version)
        self.bytes_used += row_bytes(version.values) + _SLOT_OVERHEAD
        return len(self.slots) - 1

    def place(self, slot: int, version: RowVersion) -> None:
        """Put a version in a named slot (WAL replay); slots below it
        that were never filled stay tombstones."""
        self.slots.extend([None] * (slot + 1 - len(self.slots)))
        self.slots[slot] = version
        self.bytes_used += row_bytes(version.values) + _SLOT_OVERHEAD

    def get(self, slot: int) -> Optional[RowVersion]:
        return self.slots[slot] if slot < len(self.slots) else None

    def remove(self, slot: int) -> None:
        """Physically drop a slot's payload (leaves a tombstone)."""
        version = self.slots[slot]
        if version is not None:
            self.bytes_used -= row_bytes(version.values)
            self.slots[slot] = None

    def live_versions(self):
        """Yield (slot, version) for non-tombstoned slots."""
        for slot, version in enumerate(self.slots):
            if version is not None:
                yield slot, version
