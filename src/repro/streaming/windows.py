"""Window operators: they turn a stream into a sequence of relations.

This is the paper's Figure 1 made executable.  A window clause
``<VISIBLE '5 minutes' ADVANCE '1 minute'>`` yields, every minute, the
relation of tuples from the trailing five minutes; the CQ runtime then
applies an ordinary relational plan to each relation (RSTREAM semantics,
Section 3.1).

Boundary convention: windows close at event times that are multiples of
ADVANCE (aligned to the epoch); the window closing at ``T`` covers
``[T - VISIBLE, T)``.  A tuple with event time exactly ``T`` proves the
window closed and belongs to the next one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Callable, Optional

from repro.errors import WindowError
from repro.sql import ast
from repro.streaming.shared import SliceStore
from repro.streaming.streams import StreamConsumer

Sink = Callable[[list, float, float], None]  # (rows, open_time, close_time)


class WindowSpec:
    """Normalised window parameters, built from a parsed window clause."""

    def __init__(self, kind: str, visible=None, advance=None, count=None):
        self.kind = kind            # 'time' | 'rows' | 'windows'
        self.visible = visible      # seconds or row count
        self.advance = advance
        self.count = count          # for '<slices k windows>'

    @classmethod
    def from_clause(cls, clause: ast.WindowClause) -> "WindowSpec":
        if clause.is_window_count():
            return cls("windows", count=clause.slices_windows)
        if clause.is_row_based():
            return cls("rows", visible=clause.visible_rows,
                       advance=clause.advance_rows)
        if clause.visible <= 0 or clause.advance <= 0:
            raise WindowError("window extents must be positive")
        if math.isinf(clause.advance):
            raise WindowError("ADVANCE must be finite")
        return cls("time", visible=float(clause.visible),
                   advance=float(clause.advance))

    def make_operator(self, sink: Sink, emit_empty: bool = True):
        if self.kind == "time":
            return TimeWindowOperator(self.visible, self.advance, sink,
                                      emit_empty)
        if self.kind == "rows":
            return RowWindowOperator(self.visible, self.advance, sink)
        return WindowCountOperator(self.count, sink)

    def __repr__(self):
        if self.kind == "windows":
            return f"WindowSpec(slices {self.count} windows)"
        return f"WindowSpec({self.kind}, visible={self.visible}, advance={self.advance})"


class TimeWindowOperator(StreamConsumer):
    """Sliding/tumbling time window with eviction.

    State is a buffer of (event_time, row) plus the next close boundary;
    after a close at ``T``, rows older than ``T + advance - visible`` can
    never be visible again and are evicted.
    """

    def __init__(self, visible: float, advance: float, sink: Sink,
                 emit_empty: bool = True):
        if visible <= 0 or advance <= 0:
            raise WindowError("window extents must be positive")
        self.visible = float(visible)
        self.advance = float(advance)
        self.sink = sink
        self.emit_empty = emit_empty
        self._buffer = deque()            # (event_time, row)
        self._base: Optional[float] = None
        self._boundary_index = 0          # next close = base + index*advance
        self.tuples_in = 0
        self.windows_closed = 0
        self.rows_emitted = 0
        self._flushed = False

    # -- boundary arithmetic ----------------------------------------------------

    def _next_boundary(self) -> Optional[float]:
        if self._base is None:
            return None
        return self._base + self._boundary_index * self.advance

    def _start_at(self, event_time: float) -> None:
        # first close boundary: the next multiple of ``advance`` strictly
        # after the first event
        self._base = math.floor(event_time / self.advance) * self.advance
        self._boundary_index = 1

    @property
    def horizon(self) -> Optional[float]:
        """Rows before this event time can never be visible again
        (None until the first tuple starts the boundary grid)."""
        boundary = self._next_boundary()
        return None if boundary is None else boundary - self.visible

    # -- consumer protocol --------------------------------------------------------

    def on_tuple(self, row: tuple, event_time: float) -> None:
        if self._base is None:
            self._start_at(event_time)
        self._close_through(event_time)
        self._buffer.append((event_time, row))
        self.tuples_in += 1

    def on_heartbeat(self, event_time: float) -> None:
        if self._base is None:
            return
        self._close_through(event_time)

    def on_flush(self) -> None:
        if self._flushed:
            return
        self._flushed = True
        if math.isinf(self.visible):
            # cumulative window: one final emission covers everything
            if self._buffer:
                self._close(self._next_boundary())
                self._buffer.clear()
            return
        # emit every remaining window that still sees a buffered row
        while self._buffer:
            self._close(self._next_boundary())

    def _close_through(self, event_time: float) -> None:
        # a tuple at exactly the boundary proves the window complete
        while True:
            boundary = self._next_boundary()
            if boundary is None or boundary > event_time:
                return
            self._close(boundary)

    def _close(self, boundary: float) -> None:
        open_time = boundary - self.visible
        visible_rows = [
            row for when, row in self._buffer
            if open_time <= when < boundary
        ]
        self._boundary_index += 1
        # evict rows no future window can see
        horizon = self.horizon
        while self._buffer and self._buffer[0][0] < horizon:
            self._buffer.popleft()
        self.windows_closed += 1
        self.rows_emitted += len(visible_rows)
        if visible_rows or self.emit_empty:
            self.sink(visible_rows, open_time, boundary)

    @property
    def buffered(self) -> int:
        return len(self._buffer)


class SlicedTimeWindowOperator(TimeWindowOperator):
    """Time window with incremental per-slice aggregation.

    The window's timeline is cut into slices (the gcd of VISIBLE and
    ADVANCE, or a divisor of it fixed by the store's first reader, so
    every close boundary and every window open falls on a slice edge).
    When a slice fills, ``slice_fn`` reduces its rows to a mergeable
    aggregate *partial*, filed in a
    :class:`~repro.streaming.shared.SliceStore`; a window close hands
    the covered partials to the sink, which merges and finalizes them
    instead of re-aggregating the whole buffer.  An overlapping window
    therefore pays for each row once, not once per window it is visible
    in — and, when the store has other readers with the same key, once
    for all of them.  ``slice_fn`` must not raise: evaluation errors are
    wrapped into the partial and surface at window close, inside the
    (supervisable) sink call — exactly where the plain operator's plan
    execution would have raised them.

    The operator is a *reader* of its store: the boundary grid, the row
    buffer and the per-slice row counts (which slices it saw, and how
    much of each) stay its own, so eviction, the ``buffered`` gauge and
    checkpoint/recovery (which re-derives the slice state via
    :meth:`rebuild_slices`) all work as in the parent.  It starts on a
    private store and joins the stream's when its CQ attaches.
    """

    def __init__(self, visible: float, advance: float, sink: Sink,
                 emit_empty: bool, slice_fn):
        super().__init__(visible, advance, sink, emit_empty)
        self._slice_fn = slice_fn        # rows -> partial (never raises)
        self._sealed = {}                # slice index -> rows it held
        self._cur_index: Optional[int] = None
        self._cur_rows: list = []
        #: rows visible in the most recently closed window
        self.last_window_input = 0
        self.join(SliceStore.for_window(None, self))

    def join(self, store: SliceStore) -> None:
        """Become a reader of ``store``.  Whatever is already buffered
        (a recovered CQ replays before it attaches) is re-sliced on the
        store's grid."""
        self.store = store
        self.slice_width = store.width
        store.readers.append(self)
        self.rebuild_slices()

    def leave(self) -> None:
        """Stop reading the shared store (the CQ stopped).  The stream
        may still be mid-delivery to this reader, and nothing holds the
        store's slices for it any more: it finishes on a private one."""
        self.store.readers.remove(self)
        self.join(SliceStore.for_window(None, self))

    @property
    def horizon_index(self) -> Optional[int]:
        """The first slice a future window can still see (None before
        the first tuple fixes the boundary grid)."""
        boundary = self._next_boundary()
        if boundary is None:
            return None
        return self._slice_index(boundary - self.visible)

    def _slice_index(self, event_time: float) -> int:
        # the epsilon keeps an event exactly on a slice edge (up to float
        # representation) in the slice it opens
        return int(math.floor(event_time / self.slice_width + 1e-9))

    def on_tuple(self, row: tuple, event_time: float) -> None:
        if self._base is None:
            self._start_at(event_time)
        self._close_through(event_time)
        idx = self._slice_index(event_time)
        if idx != self._cur_index:
            if self._cur_index is not None:
                self._seal_current()
            self._cur_index = idx
        self._cur_rows.append(row)
        self._buffer.append((event_time, row))
        self.tuples_in += 1

    def on_tuples(self, rows: list, times: list) -> None:
        """Bulk arrival (sorted): chunk rows by slice so each chunk is
        appended with two list extends instead of per-row calls."""
        n = len(rows)
        i = 0
        while i < n:
            when = times[i]
            if self._base is None:
                self._start_at(when)
            self._close_through(when)
            idx = self._slice_index(when)
            if idx != self._cur_index:
                if self._cur_index is not None:
                    self._seal_current()
                self._cur_index = idx
            # the chunk may not cross the next close boundary (windows
            # must fire in order) nor the end of the current slice (the
            # slice edge shares _slice_index's epsilon)
            limit = min(self._next_boundary(),
                        (idx + 1 - 1e-9) * self.slice_width)
            j = bisect_left(times, limit, i)
            chunk = rows[i:j]
            self._cur_rows.extend(chunk)
            self._buffer.extend(zip(times[i:j], chunk))
            self.tuples_in += j - i
            i = j

    def _seal_current(self) -> None:
        rows = self._cur_rows
        if rows:
            self.store.seal(self._cur_index, rows, self._slice_fn)
            self._sealed[self._cur_index] = len(rows)
        self._cur_rows = []
        self._cur_index = None

    def _close(self, boundary: float) -> None:
        # every buffered row is below the boundary and boundaries are
        # multiples of the slice width, so the open slice is complete
        if self._cur_index is not None:
            self._seal_current()
        open_time = boundary - self.visible
        width = self.slice_width
        first = int(round(open_time / width))
        last = int(round(boundary / width))
        total = 0
        parts = []
        sealed = self._sealed
        store = self.store
        for idx in range(first, last):
            count = sealed.get(idx)
            if count is not None:
                total += count
                parts.append(store.partial(idx, count))
        self._boundary_index += 1
        horizon = self.horizon
        buffer = self._buffer
        while buffer and buffer[0][0] < horizon:
            buffer.popleft()
        # a slice no future window can see goes with its rows — here,
        # and from the store once every other reader is past it too
        horizon_index = self._slice_index(horizon)
        for idx in [k for k in sealed if k < horizon_index]:
            del sealed[idx]
        store.evict()
        self.windows_closed += 1
        self.rows_emitted += total
        self.last_window_input = total
        if total or self.emit_empty:
            # the sink merges + finalizes the partials; a deferred slice
            # error re-raises there, under the supervisor's window guard
            self.sink(parts, open_time, boundary)

    def rebuild_slices(self) -> None:
        """Recompute the slice state from the (restored) row buffer;
        called by checkpoint recovery after it refills ``_buffer``."""
        self._sealed = {}
        self._cur_index = None
        self._cur_rows = []
        for event_time, row in self._buffer:
            idx = self._slice_index(event_time)
            if idx != self._cur_index:
                if self._cur_index is not None:
                    self._seal_current()
                self._cur_index = idx
            self._cur_rows.append(row)


class RowWindowOperator(StreamConsumer):
    """Row-count window: every ``advance`` arrivals, the last ``visible``
    rows form the window.  Close time is the latest row's event time."""

    def __init__(self, visible_rows: int, advance_rows: int, sink: Sink):
        if visible_rows <= 0 or advance_rows <= 0:
            raise WindowError("row window extents must be positive")
        self.visible_rows = int(visible_rows)
        self.advance_rows = int(advance_rows)
        self.sink = sink
        self._buffer = deque(maxlen=self.visible_rows)
        self._since_emit = 0
        self._last_time = None
        self._first_time = None
        self.tuples_in = 0
        self.windows_closed = 0
        self._flushed = False

    def on_tuple(self, row: tuple, event_time: float) -> None:
        self._buffer.append((event_time, row))
        self.tuples_in += 1
        self._since_emit += 1
        self._last_time = event_time
        if self._first_time is None:
            self._first_time = event_time
        if self._since_emit >= self.advance_rows:
            self._emit()

    def on_flush(self) -> None:
        if self._flushed:
            return
        self._flushed = True
        if self._since_emit > 0 and self._buffer:
            self._emit()

    def _emit(self) -> None:
        rows = [row for _when, row in self._buffer]
        open_time = self._buffer[0][0]
        self.windows_closed += 1
        self._since_emit = 0
        self.sink(rows, open_time, self._last_time)


class WindowCountOperator(StreamConsumer):
    """``<slices k windows>`` over a *derived* stream (paper, Example 5):
    each upstream window-result is one slice; every new slice emits the
    concatenation of the last ``k`` of them."""

    def __init__(self, count: int, sink: Sink):
        if count <= 0:
            raise WindowError("slices count must be positive")
        self.count = int(count)
        self.sink = sink
        self._batches = deque(maxlen=self.count)
        self.windows_closed = 0

    def on_batch(self, rows, open_time: float, close_time: float) -> None:
        self._batches.append((list(rows), open_time, close_time))
        combined = []
        for batch_rows, _open, _close in self._batches:
            combined.extend(batch_rows)
        window_open = self._batches[0][1]
        self.windows_closed += 1
        self.sink(combined, window_open, close_time)

    def on_tuple(self, row: tuple, event_time: float) -> None:
        # a raw stream feeding a window-count operator: treat each tuple
        # as a single-row batch
        self.on_batch([row], event_time, event_time)
