"""Event-time window operator: watermark-driven closes, bounded
lateness, and retraction-correct windows.

Arrival-time windows (:class:`~repro.streaming.windows.TimeWindowOperator`)
close as soon as a tuple's timestamp proves the boundary passed; under
reordered traffic that silently drops or mis-assigns late rows.  This
operator keeps the parent's buffer (the held slices), its gather (rows,
or slice partials when constructed with a reducer), its close, its
eviction and its checkpoint surface, and overrides only *when*:

- **assigns** every tuple to its slice by its *event time* (the
  stream's designated timestamp column), regardless of arrival order —
  so a window's rows come slice-major, arrival order within a slice;
- **closes** windows only when the stream's watermark passes the
  boundary (delivered as heartbeats by the event-time stream), never
  on raw tuple arrival;
- **classifies** tuples below the watermark as late and applies the
  CQ's lateness policy; under ``retract`` an in-bound late tuple
  re-opens each closed window it belonged to and gathers it again
  through the parent's one ``_window`` (only the affected windows, not
  the whole history; with a reducer only the slice the row was filed
  into is reduced again, every other partial is reused), and reports
  it through ``on_correction`` so the CQ can emit a typed
  retract/correct pair;
- implements ``EMIT`` control: ``ON WATERMARK`` (default — final
  results only), ``ON CHANGE`` (speculative early emission of the
  open window on every change), and ``EVERY '<dur>'`` (periodic early
  emission by event time).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.errors import WindowError
from repro.eventtime.lateness import DROP, LATENESS_POLICIES, RETRACT
from repro.streaming.windows import Sink, TimeWindowOperator

EMIT_ON_WATERMARK = "watermark"
EMIT_ON_CHANGE = "change"
EMIT_PERIODIC = "every"

#: on_late callback: (row, event_time, watermark, expired)
LateFn = Callable[[tuple, float, float, bool], None]
#: on_correction / on_early callback: (window, open_time, close_time)
CorrectionFn = Callable[[list, float, float], None]


class EventTimeWindowOperator(TimeWindowOperator):
    """Time window driven by event time and watermarks.

    ``wm_fn`` returns the source stream's current watermark; closes
    happen in :meth:`on_heartbeat` (the event-time stream broadcasts a
    heartbeat whenever its watermark advances), so tuple arrival never
    closes a window by itself.  The final close, a re-open and an early
    emit all hand their callback the same thing — the parent's
    ``_window``: rows, or with ``slice_fn`` the covered slices' partials.
    """

    def __init__(self, visible: float, advance: float, sink: Sink,
                 slice_fn=None, *,
                 wm_fn: Callable[[], float],
                 allowed_lateness: float = 0.0,
                 late_policy: str = DROP,
                 on_late: Optional[LateFn] = None,
                 on_correction: Optional[CorrectionFn] = None,
                 on_early: Optional[CorrectionFn] = None,
                 emit_mode: str = EMIT_ON_WATERMARK,
                 emit_every: Optional[float] = None):
        super().__init__(visible, advance, sink, slice_fn)
        if late_policy not in LATENESS_POLICIES:
            raise WindowError(
                f"unknown lateness policy {late_policy!r}; choose one of "
                f"{', '.join(LATENESS_POLICIES)}")
        if math.isinf(self.visible):
            raise WindowError(
                "event-time windows require a finite VISIBLE extent")
        self.wm_fn = wm_fn
        self.allowed_lateness = float(allowed_lateness)
        self.late_policy = late_policy
        self.on_late = on_late
        self.on_correction = on_correction
        self.on_early = on_early
        self.emit_mode = emit_mode
        self.emit_every = emit_every
        self.late_rows = 0           # tuples below the watermark
        self.expired_rows = 0        # late beyond allowed_lateness
        self.corrections = 0         # closed windows recomputed
        self.early_emits = 0
        self._last_early = float("-inf")
        self._flushing = False
        # under retract, a closed window stays correctable for the
        # lateness bound; one extra ADVANCE covers the boundary that
        # closed just before the watermark the late tuple is judged by.
        # The one rule: the CQ's remembered output and the partitioned
        # coordinator's merged partials read it from here.
        if late_policy == RETRACT:
            self.retention = self.allowed_lateness + self.advance

    # -- consumer protocol ------------------------------------------------------

    def on_tuple(self, row: tuple, event_time: float) -> None:
        if self._base is None:
            self._start_at(event_time)
        elif self._boundary_index == 1 and event_time < self._base:
            # the grid started on a reordered later row; an earlier
            # on-time row pulls the first close back so its windows
            # still emit (nothing has closed yet — an on-time row is
            # never behind a closed boundary)
            self._start_at(event_time)
        watermark = self.wm_fn()
        if event_time < watermark:
            self._on_late_tuple(row, event_time, watermark)
            return
        self._file(row, event_time)
        self.tuples_in += 1
        if self.emit_mode != EMIT_ON_WATERMARK:
            self._maybe_emit_early(event_time)

    def on_heartbeat(self, event_time: float) -> None:
        # the event-time stream broadcasts every watermark advance as a
        # heartbeat — on ordered traffic that is once per tuple, so the
        # no-close case must be a single inline compare
        base = self._base
        if base is None \
                or base + self._boundary_index * self.advance > event_time:
            return
        self._close_through(event_time)

    def on_flush(self) -> None:
        self._flushing = True
        super().on_flush()

    # -- lateness ---------------------------------------------------------------

    def _on_late_tuple(self, row: tuple, event_time: float,
                       watermark: float) -> None:
        self.late_rows += 1
        if self.late_policy == RETRACT:
            if event_time >= watermark - self.allowed_lateness:
                self._file(row, event_time)
                self.tuples_in += 1
                if self.on_late is not None:
                    self.on_late(row, event_time, watermark, False)
                self._recompute_closed(event_time, watermark)
                return
            self.expired_rows += 1
            if self.on_late is not None:
                self.on_late(row, event_time, watermark, True)
            return
        if self.on_late is not None:
            self.on_late(row, event_time, watermark, False)

    def _recompute_closed(self, event_time: float,
                          watermark: float) -> None:
        """Re-open and recompute every window the late tuple belongs to
        that the watermark has already passed: boundaries ``B`` on the
        (epoch-aligned) advance grid with ``event_time < B <=
        event_time + visible`` and ``B <= watermark``.  That covers
        both windows that closed normally and windows the watermark
        overtook before the grid started (the operator booted on a
        reordered later row) — those were never emitted, so the
        correction is their first output.  Boundaries still ahead of
        the watermark are left alone: they close later and the buffered
        row is simply part of them.  Only the affected windows are
        recomputed."""
        if self.on_correction is None:
            return
        boundary = (math.floor(event_time / self.advance) + 1) * self.advance
        while boundary <= watermark \
                and boundary - self.visible <= event_time:
            open_time = boundary - self.visible
            self.corrections += 1
            self.on_correction(self._window(open_time, boundary),
                               open_time, boundary)
            boundary += self.advance

    # -- EMIT control -----------------------------------------------------------

    def _maybe_emit_early(self, event_time: float) -> None:
        if self.on_early is None:
            return
        if self.emit_mode == EMIT_PERIODIC:
            if self.emit_every is None \
                    or event_time < self._last_early + self.emit_every:
                return
            self._last_early = event_time
        boundary = self._next_boundary()
        open_time = boundary - self.visible
        self.early_emits += 1
        self.on_early(self._window(open_time, boundary), open_time, boundary)

    # -- eviction -----------------------------------------------------------------

    @property
    def horizon(self) -> Optional[float]:
        """As the parent's, minus what the retract policy keeps
        correctable (nothing once the stream has flushed)."""
        horizon = super().horizon
        if horizon is None or self._flushing:
            return horizon
        return horizon - self.retention
