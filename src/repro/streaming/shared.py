"""The slice store: "processing multiple continuous queries in a shared
manner" (Section 2.2; paper refs [4] Arasu/Widom and [12]
Krishnamurthy/Wu/Franklin "On-the-fly sharing for streamed aggregation").

Many aggregate CQs over one stream differ only in their window extents.
A sliced window (a :class:`~repro.streaming.windows.TimeWindowOperator`
constructed with a reducer — arrival time or event time alike)
cuts its timeline into slices and reduces each sealed slice to a
mergeable aggregate partial; the partials live here, in a store owned by
the source stream and keyed by what the partial depends on (the
sub-aggregate plan and the bound ``?`` values — see
``ContinuousQuery._maybe_slice_window``) plus the slice grid.  Every
sliced CQ is a *reader* of a store: K readers with the same key reduce
each slice once and each merges only the slices its own window sees, so
per-tuple aggregation work is independent of K — the shape experiment E4
measures.  Sharing is therefore not a kind of CQ but what happens when
two readers have the same key.

A partial is filed under (slice index, row count): a reader is only ever
served a partial reduced from as many rows as it buffered for that slice
itself, so a reader that attached mid-slice reduces its own shorter
slice instead of borrowing a neighbour's.  The pair names a slice's
*contents* only while slices are append-only and sealed once, which is
arrival time; an event-time slice is sealed again whenever a late row
grows it, so event-time readers keep a private store (see
``ContinuousQuery.attach``).  Within one reader a slice only grows, so
a seal at a higher count retires the lower ones: no slot outlives the
count it was reduced at.
"""

from __future__ import annotations

import math
from typing import Callable, Optional


def _as_multiple(value: float, unit: float) -> Optional[int]:
    """``value / unit`` when it is (nearly) a positive integer, else None."""
    ratio = value / unit
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) < 1e-6:
        return nearest
    return None


def time_gcd(a: float, b: float) -> float:
    """gcd of two durations, computed on microsecond integers."""
    return math.gcd(round(a * 1e6), round(b * 1e6)) / 1e6


class SliceStore:
    """Sealed slice partials on one slice grid, shared by its readers.

    A partial served here is shared — by every reader, and by every
    window of one reader that covers its slice — and is never changed
    after it is sealed: a merge builds new dicts and state tuples.  A
    CQ's two stacks (``SlidingMerge``) rely on that: they hold the
    partials they merged and know one again by identity."""

    def __init__(self, key, width: float):
        self.key = key
        self.width = float(width)
        #: the window operators reading this store
        self.readers = []
        self._partials = {}     # slice index -> {row count: partial}
        #: rows reduced to partials — the E4 work counter: with K
        #: same-key readers it still equals the events ingested
        self.rows_reduced = 0

    @classmethod
    def for_window(cls, key, window) -> "SliceStore":
        """A store on ``window``'s own grid: gcd(VISIBLE, ADVANCE), so
        every close boundary and window open falls on a slice edge."""
        return cls(key, time_gcd(window.visible, window.advance))

    def fits(self, visible: float, advance: float) -> bool:
        """True when a window's opens and closes all fall on this grid."""
        return (_as_multiple(visible, self.width) is not None
                and _as_multiple(advance, self.width) is not None)

    def seal(self, index: int, rows: list, reduce: Callable):
        """The partial of slice ``index`` holding exactly ``rows``; the
        first reader to seal a slice at that count pays for the
        reduction, and partials of fewer rows are dropped — a re-seal
        (a late row, ``EMIT ON CHANGE``) replaces the previous partial.
        A neighbour that attached mid-slice and still holds fewer rows
        reduces its own count again: sealing is idempotent."""
        counts = self._partials.setdefault(index, {})
        count = len(rows)
        if count not in counts:
            for stale in [c for c in counts if c < count]:
                del counts[stale]
            counts[count] = reduce(rows)
            self.rows_reduced += count
        return counts[count]

    def evict(self) -> None:
        """Drop every slice all readers' horizons have passed.  A reader
        with no horizon yet holds everything: the stream delivers a
        batch to one consumer at a time, so a reader that joined
        between batches is about to seal the very slices an earlier
        reader just closed over."""
        floors = [reader.horizon_index for reader in self.readers]
        if not floors or None in floors:
            return
        floor = min(floors)
        for index in [k for k in self._partials if k < floor]:
            del self._partials[index]

    def __len__(self):
        return sum(len(counts) for counts in self._partials.values())


def join_store(stream, key, reader) -> None:
    """Make ``reader`` a reader of ``stream``'s store for ``key``: the
    first store whose grid the reader's window fits, else a new one on
    the reader's own grid (the first reader fixes the width)."""
    for store in stream.slice_stores:
        if store.key == key and store.fits(reader.visible, reader.advance):
            break
    else:
        store = SliceStore.for_window(key, reader)
        stream.slice_stores.append(store)
    reader.join(store)


def leave_store(stream, reader) -> None:
    """Drop ``reader`` from its store, and the store with its last reader."""
    store = reader.store
    reader.leave()
    if not store.readers and store in stream.slice_stores:
        stream.slice_stores.remove(store)
