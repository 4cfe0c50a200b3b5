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

One buffer for every time window: the timeline is cut into *slices* of
gcd(VISIBLE, ADVANCE) — every window open and close is a slice edge —
and :class:`TimeWindowOperator` holds ``{slice index: (times, rows)}``.
A window is the run of held slices between its open and its close; one
``_close`` gathers it, drops every slice no future window can see and
calls the sink.  *What* a close hands the sink is decided by the
reducer the operator is constructed with, not by *when* it closes: none
→ the window's rows (``vectorize=False``, or a plan that does not
slice), a reducer → the mergeable aggregate partials of the slices it
covers, whichever gear reduces them.  The event-time operator overrides
only when a boundary has passed (the watermark, not arrival); the
sliced operator only adds the bulk ``on_tuples`` (the batch gear's).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Callable, Optional

from repro.errors import WindowError
from repro.sql import ast
from repro.streaming.shared import SliceStore, time_gcd
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

    def make_operator(self, sink: Sink, slice_fn=None, bulk: bool = False):
        """The window operator for this spec; a time window reduces its
        slices with ``slice_fn`` when given one, and takes sorted
        batches whole (``on_tuples``) when ``bulk``."""
        if self.kind == "time":
            cls = SlicedTimeWindowOperator if bulk else TimeWindowOperator
            return cls(self.visible, self.advance, sink, slice_fn)
        if self.kind == "rows":
            return RowWindowOperator(self.visible, self.advance, sink)
        return WindowCountOperator(self.count, sink)

    def __repr__(self):
        if self.kind == "windows":
            return f"WindowSpec(slices {self.count} windows)"
        return f"WindowSpec({self.kind}, visible={self.visible}, advance={self.advance})"


class Partials(list):
    """A window handed over as mergeable partials — one per covered
    slice, or per shard — that still knows its relation: :attr:`rows`
    (slice-major, arrival order within a slice) is what a dead letter
    of the window holds, in every gear."""

    __slots__ = ("_slices",)

    def __init__(self, partials, slices):
        super().__init__(partials)
        self._slices = slices       # the window's row lists, in order

    @property
    def rows(self) -> list:
        return [row for rows in self._slices for row in rows]

    def sizes(self) -> Optional[list]:
        """The rows behind each partial, or None when the partials are
        not one per slice (a boundary's shard partials)."""
        if len(self._slices) != len(self):
            return None
        return [len(rows) for rows in self._slices]


class TimeWindowOperator(StreamConsumer):
    """Sliding/tumbling time window over the slice grid.

    State is the held slices plus the next close boundary; after a close
    at ``T``, slices below ``T + advance - visible`` can never be visible
    again and are dropped.  Subclasses override *when* a boundary has
    passed — never the buffer, the gather (:meth:`_window`), the close or
    the eviction.

    Constructed with a reducer ``slice_fn``, a window is handed to the
    sink not as the covered slices' rows but as their mergeable
    aggregate *partials*: each covered slice is reduced once per row
    count — at the first gather that covers it, again only if it has
    grown since (an event-time late row) — into a
    :class:`~repro.streaming.shared.SliceStore`, and the sink merges and
    finalizes the partials instead of re-aggregating the whole window.
    An overlapping window therefore pays for each row once, not once
    per window it is visible in — and, when the store has other readers
    with the same key, once for all of them.  ``slice_fn`` must not
    raise: evaluation errors are wrapped into the partial and surface
    inside the (supervisable) sink call — exactly where the rows path's
    plan execution would have raised them.

    The operator is a *reader* of its store: the boundary grid and the
    held slices (which it saw, and how much of each) stay its own.  It
    starts on a private store and joins the stream's when its CQ attaches.
    """

    #: how long a closed window stays correctable (event time, retract)
    retention = 0.0

    def __init__(self, visible: float, advance: float, sink: Sink,
                 slice_fn=None):
        if visible <= 0 or advance <= 0:
            raise WindowError("window extents must be positive")
        self.visible = float(visible)
        self.advance = float(advance)
        self.sink = sink
        self._slice_fn = slice_fn        # rows -> partial (never raises)
        # the slice grid: every window open and close is a slice edge
        self.slice_width = (self.advance if math.isinf(self.visible)
                            else time_gcd(self.visible, self.advance))
        if self.slice_width <= 0:
            raise WindowError("window extents must be at least 1 microsecond")
        self._gap = self._gap_slices()
        self._slices = {}                 # slice index -> (times, rows)
        self._base: Optional[float] = None
        self._boundary_index = 0          # next close = base + index*advance
        self.tuples_in = 0
        self.windows_closed = 0
        self.rows_emitted = 0
        #: rows visible in the most recently gathered window
        self.last_window_input = 0
        self._flushed = False
        self.join(SliceStore(None, self.slice_width))

    # -- the slice store ----------------------------------------------------------

    def join(self, store: SliceStore) -> None:
        """Become a reader of ``store``.  Whatever is already held (a
        recovered CQ replays before it attaches) is re-slotted when the
        store's grid is finer than the window's own."""
        self.store = store
        store.readers.append(self)
        if store.width != self.slice_width:
            points = self.points()
            self.slice_width = store.width
            self._gap = self._gap_slices()
            self.load(points)

    def leave(self) -> None:
        """Stop reading the shared store (the CQ stopped).  The stream
        may still be mid-delivery to this reader, and nothing holds the
        store's slices for it any more: it finishes on a private one."""
        self.store.readers.remove(self)
        self.join(SliceStore(None, self.slice_width))

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

    @property
    def horizon_index(self) -> Optional[int]:
        """The first slice a future window can still see (None while
        that is every slice: no grid yet, or VISIBLE is unbounded)."""
        horizon = self.horizon
        if horizon is None or math.isinf(horizon):
            return None
        return self._slice_index(horizon)

    def _gap_slices(self) -> Optional[tuple]:
        """``(slices per ADVANCE, how many open each ADVANCE)`` when
        ADVANCE is wider than VISIBLE, else None: the first slices of
        each ADVANCE lie in no window, and a row filed into one is
        dropped (the check runs when a slice is first held, so a window
        without a gap pays nothing per row)."""
        if math.isinf(self.visible) or self.advance <= self.visible:
            return None
        per_advance = round(self.advance / self.slice_width)
        return per_advance, per_advance - round(self.visible / self.slice_width)

    def _in_gap(self, index: int) -> bool:
        gap = self._gap
        return gap is not None and index % gap[0] < gap[1]

    def _slice_index(self, event_time: float) -> int:
        # the epsilon keeps an event exactly on a slice edge (up to float
        # representation) in the slice it opens
        return int(math.floor(event_time / self.slice_width + 1e-9))

    # -- the buffer ---------------------------------------------------------------

    def _file(self, row: tuple, event_time: float) -> None:
        index = self._slice_index(event_time)
        held = self._slices.get(index)
        if held is None:
            if not self._in_gap(index):
                self._slices[index] = ([event_time], [row])
        else:
            held[0].append(event_time)
            held[1].append(row)

    def _file_sorted(self, rows: list, times: list, closing: bool) -> None:
        """File a time-sorted batch by slice, two list extends a chunk.
        ``closing`` (arrival time): a chunk's first time closes what it
        passed and no chunk crosses the next boundary, so windows fire
        in order; event time leaves closing to the heartbeat."""
        slices = self._slices
        n = len(rows)
        i = 0
        while i < n:
            when = times[i]
            idx = self._slice_index(when)
            # the slice edge shares _slice_index's epsilon
            limit = (idx + 1 - 1e-9) * self.slice_width
            if closing:
                self._close_through(when)
                limit = min(self._next_boundary(), limit)
            j = bisect_left(times, limit, i)
            held = slices.get(idx)
            if held is None:
                if not self._in_gap(idx):
                    slices[idx] = (times[i:j], rows[i:j])
            else:
                held[0].extend(times[i:j])
                held[1].extend(rows[i:j])
            self.tuples_in += j - i
            i = j

    def newest_shown(self, times: list) -> int:
        """Index of the newest row of a time-sorted batch that a window
        shows (-1: none): the last — unless it lies in a gap, then the
        newest before that gap.  A flush closes through it."""
        last = len(times) - 1
        gap = self._gap
        while gap is not None and last >= 0:
            index = self._slice_index(times[last])
            if index % gap[0] >= gap[1]:
                break
            opens = index - index % gap[0]      # the gap's first slice
            last = bisect_left(times, (opens - 1e-9) * self.slice_width,
                               0, last) - 1
        return last

    def _covered(self, open_time: float, boundary: float) -> list:
        """The held slices of the window ``[open_time, boundary)`` as
        ``[(index, rows)]``, in slice order.  Walks the held keys, not
        the index range: a window holds few slices however fine its grid."""
        slices, width = self._slices, self.slice_width
        # window edges sit on the grid; an unbounded window opens at -inf
        first = open_time if math.isinf(open_time) \
            else round(open_time / width)
        last = round(boundary / width)
        return [(k, slices[k][1])
                for k in sorted(k for k in slices if first <= k < last)]

    def _window(self, open_time: float, boundary: float) -> list:
        """What the window ``[open_time, boundary)`` hands the sink: its
        rows, slice-major (arrival order within a slice) — or, with a
        reducer, one partial per covered slice.  Sealing is idempotent
        per (slice, row count), across readers too, so every gather —
        the close, an event-time re-open, an early emit — reduces only
        the slices that grew since the last one."""
        covered = self._covered(open_time, boundary)
        self.last_window_input = sum(len(rows) for _index, rows in covered)
        reduce = self._slice_fn
        if reduce is None:
            return [row for _index, rows in covered for row in rows]
        # the sink merges + finalizes the partials; a deferred slice
        # error re-raises there, under the supervisor's window guard
        seal = self.store.seal
        return Partials([seal(index, rows, reduce) for index, rows in covered],
                        [rows for _index, rows in covered])

    def _evict(self) -> None:
        """Drop every slice no future window can see — here, and from
        the store once every other reader is past it too."""
        floor = self.horizon_index
        if floor is not None:
            slices = self._slices
            for index in [k for k in slices if k < floor]:
                del slices[index]
        self.store.evict()

    def points(self) -> list:
        """The buffer as ``[(event_time, row)]`` — what :meth:`join`
        re-slots, with :meth:`load`."""
        return [point for _index, (times, rows) in sorted(self._slices.items())
                for point in zip(times, rows)]

    def load(self, points) -> None:
        """Replace the buffer with ``points`` (any order), filed on the
        current slice grid."""
        self._slices = {}
        for event_time, row in points:
            self._file(row, event_time)

    @property
    def buffered(self) -> int:
        return sum(len(rows) for _times, rows in self._slices.values())

    # -- consumer protocol --------------------------------------------------------

    def on_tuple(self, row: tuple, event_time: float) -> None:
        if self._base is None:
            self._start_at(event_time)
        self._close_through(event_time)
        # _file, inline: this is the per-row path
        index = int(math.floor(event_time / self.slice_width + 1e-9))
        held = self._slices.get(index)
        if held is None:
            if not self._in_gap(index):
                self._slices[index] = ([event_time], [row])
        else:
            held[0].append(event_time)
            held[1].append(row)
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
            if self._slices:
                self._close(self._next_boundary())
                self._slices.clear()
            return
        # emit every remaining window that still sees a buffered row
        while self._slices:
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
        window = self._window(open_time, boundary)
        self._boundary_index += 1
        self._evict()
        self.windows_closed += 1
        self.rows_emitted += self.last_window_input
        self.sink(window, open_time, boundary)


class SlicedTimeWindowOperator(TimeWindowOperator):
    """An arrival-time window that takes sorted batches whole: the
    batch gear's bulk ``on_tuples``, nothing else.  A row-gear sliced
    window is a plain :class:`TimeWindowOperator` with a reducer."""

    def on_tuples(self, rows: list, times: list) -> None:
        """Bulk arrival (sorted): each row's time closes the boundaries
        it passed, then the batch is filed by slice."""
        if self._base is None:
            self._start_at(times[0])
        self._file_sorted(rows, times, closing=True)


class RowWindowOperator(StreamConsumer):
    """Row-count window: every ``advance`` arrivals, the last ``visible``
    rows form the window.  Close time is the latest row's event time."""

    def __init__(self, visible_rows: int, advance_rows: int, sink: Sink):
        if visible_rows <= 0 or advance_rows <= 0:
            raise WindowError("row window extents must be positive")
        self.visible_rows = int(visible_rows)
        self.advance_rows = int(advance_rows)
        self.sink = sink
        self._recent = deque(maxlen=self.visible_rows)
        self._since_emit = 0
        self._last_time = None
        self._first_time = None
        self.tuples_in = 0
        self.windows_closed = 0
        self._flushed = False

    def on_tuple(self, row: tuple, event_time: float) -> None:
        self._recent.append((event_time, row))
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
        if self._since_emit > 0 and self._recent:
            self._emit()

    def _emit(self) -> None:
        rows = [row for _when, row in self._recent]
        open_time = self._recent[0][0]
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
