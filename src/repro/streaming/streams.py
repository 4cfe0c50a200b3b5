"""Streams: ordered, unbounded relations (the paper's Section 3.1).

A :class:`BaseStream` is a raw ingest point created by ``CREATE STREAM``
(Example 1): rows are coerced against its schema, ordered by the CQTIME
column, and pushed to subscribers (window operators, transforms,
channels).  A :class:`DerivedStream` re-publishes the output of an
always-on continuous query (Example 3) to its own subscribers, window by
window.

Streams optionally retain a replayable tail (``retention`` seconds); the
recovery strategies in :mod:`repro.streaming.recovery` use it the way a
production system would re-read a message broker after a crash.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import isfinite
from typing import Optional

from repro.catalog.schema import Schema
from repro.errors import (
    BackpressureError,
    ConstraintError,
    OutOfOrderError,
    StreamingError,
)
from repro.eventtime.watermark import WatermarkTracker

RAISE = "raise"
DROP = "drop"

# backpressure policies for a full reorder buffer (high-water mark hit)
BP_BLOCK = "block"
BP_SHED_OLDEST = "shed-oldest"
BP_RAISE = "raise"
BACKPRESSURE_POLICIES = (BP_BLOCK, BP_SHED_OLDEST, BP_RAISE)


class StreamConsumer:
    """Subscriber protocol.  Subclasses override what they need."""

    def on_tuple(self, row: tuple, event_time: float) -> None:
        """One stream tuple arrived."""

    def on_heartbeat(self, event_time: float) -> None:
        """Time advanced to ``event_time`` with no tuple (punctuation)."""

    def on_flush(self) -> None:
        """The stream ended; emit any pending windows."""


class BaseStream:
    """A raw stream: schema, CQTIME ordering, subscribers, retention.

    ``slack`` enables bounded out-of-order ingest (the paper assumes
    perfectly ordered streams; real feeds are not): tuples are held in a
    reorder buffer and released in timestamp order once the raw clock has
    advanced ``slack`` seconds past them.  Consumers always see a
    non-decreasing sequence; tuples later than the slack bound fall back
    to the disorder policy (raise or drop).
    """

    def __init__(self, name: str, schema: Schema,
                 disorder_policy: str = RAISE,
                 retention: Optional[float] = None,
                 slack: float = 0.0,
                 backpressure_policy: Optional[str] = None,
                 high_water_mark: Optional[int] = None,
                 watermark_bound: Optional[float] = None,
                 partition_by: Optional[str] = None):
        self.name = name
        self.schema = schema
        cqtime = schema.cqtime_index()
        if cqtime is None:
            raise StreamingError(
                f"stream {name!r} has no CQTIME column"
            )
        if backpressure_policy is not None \
                and backpressure_policy not in BACKPRESSURE_POLICIES:
            raise StreamingError(
                f"unknown backpressure policy {backpressure_policy!r}; "
                f"choose one of {', '.join(BACKPRESSURE_POLICIES)}"
            )
        self.cqtime_index = cqtime
        self.cqtime_mode = schema.columns[cqtime].cqtime or "user"
        if watermark_bound is not None:
            if slack and slack > 0:
                raise StreamingError(
                    f"stream {name!r}: SLACK and WATERMARK are mutually "
                    "exclusive — slack reorders arrivals, a watermark "
                    "accepts them out of order")
            if self.cqtime_mode == "system":
                raise StreamingError(
                    f"stream {name!r}: a SYSTEM-time stream cannot carry "
                    "a watermark (arrival time is never out of order)")
        self.watermark_bound = watermark_bound
        if partition_by is not None and not schema.has_column(partition_by):
            raise StreamingError(
                f"stream {name!r}: PARTITION BY column "
                f"{partition_by!r} is not in the schema")
        #: declared partition key column (None = unpartitioned); the
        #: single-process engine records it but does not act on it
        self.partition_by = partition_by
        #: event-time mode: None for arrival-order streams
        self.tracker = (WatermarkTracker(watermark_bound)
                        if watermark_bound is not None else None)
        self.disorder_policy = disorder_policy
        self.retention = retention
        self.slack = float(slack)
        self.backpressure_policy = backpressure_policy
        self.high_water_mark = high_water_mark
        self.watermark = float("-inf")   # delivered (post-reorder) clock
        self.raw_watermark = float("-inf")  # max event time ever seen
        self.tuples_in = 0
        self.tuples_dropped = 0
        self.tuples_reordered = 0
        self.tuples_shed = 0       # dropped by the shed-oldest policy
        self.forced_releases = 0   # tuples force-delivered by block policy
        self.delivery_errors = 0   # subscriber exceptions seen in fan-out
        self.slow_deliveries = 0   # stream.slow_consumer crashpoint fires
        self._consumers = []
        #: slice stores of the sliced CQs reading this stream, one per
        #: (key, incompatible slice grid) — see repro.streaming.shared
        self.slice_stores = []
        self._pending = []  # reorder buffer: heap of (time, seq, row)
        self._seq = 0
        self._tail = deque()  # (event_time, row) kept for replay
        # supervision hooks (set by CQSupervisor.adopt_stream); when
        # error_handler is set, subscriber exceptions are routed there
        # instead of propagating to the inserter
        self.error_handler = None   # fn(row, event_time, [(consumer, exc)])
        self.shed_handler = None    # fn(row, event_time, reason)
        self.faults = None          # optional FaultInjector
        # replication hook (set by Database.enable_replication_logging),
        # so a WAL-shipping standby can mirror the stream tail:
        # fn(stream_name, "rows", rows, times) once per delivered batch
        # — before any consumer sees it on the fast path and for a single
        # insert, when the batch ends on the per-row path (_unlogged
        # collects what it delivers: a record is a block of columns, and
        # one per row would cost twice the JSON it replaced);
        # fn(stream_name, "advance", None, event_time) for every logged
        # watermark advance
        self.replication_log = None
        self._unlogged = None       # (rows, times) of a per-row batch
        # observability facade (set by Observability.bind_stream);
        # sampled traces of in-flight tuples park here until their
        # window closes.  _trace_countdown is the every-Nth sampling
        # state kept inline so the untraced path costs one int check.
        self.obs = None
        self._trace_countdown = 0
        self._pending_traces = []

    # -- subscription ---------------------------------------------------------

    def subscribe(self, consumer: StreamConsumer) -> None:
        self._consumers.append(consumer)

    def unsubscribe(self, consumer: StreamConsumer) -> None:
        if consumer in self._consumers:
            self._consumers.remove(consumer)

    @property
    def consumers(self):
        return list(self._consumers)

    # -- ingest ---------------------------------------------------------------

    def insert(self, values, at: Optional[float] = None) -> bool:
        """Ingest one row.

        For a USER-time stream the event time is the CQTIME column of the
        row itself; for a SYSTEM-time stream it is ``at`` (the arrival
        clock), stamped into the row.  Returns False when a late tuple is
        dropped under the ``drop`` policy.
        """
        row = list(self.schema.coerce_row(values))
        if self.cqtime_mode == "system":
            arrival = at if at is not None else max(self.watermark, 0.0)
            row[self.cqtime_index] = float(arrival)
        event_time = row[self.cqtime_index]
        if event_time is None:
            raise StreamingError(
                f"stream {self.name!r}: CQTIME value is NULL"
            )
        if not isfinite(event_time):
            # nan and inf are floats JSON and an f8 column both carry, and
            # a window operator closing "through" one never stops closing
            raise ConstraintError(
                f"stream {self.name!r}: event time {event_time!r} is "
                "not finite")
        if self.tracker is not None:
            # event-time mode: out-of-order arrival is legal — windows
            # assign by event time and lateness is the CQ's policy, so
            # every row is delivered immediately; the watermark (not
            # the row) closes windows, broadcast as a heartbeat after
            # delivery so operators judge lateness against the
            # pre-row watermark
            final = tuple(row)
            if event_time < self.watermark:
                self.tuples_reordered += 1
            if event_time > self.raw_watermark:
                self.raw_watermark = event_time
            self.tuples_in += 1
            countdown = self._trace_countdown
            if countdown:
                if countdown == 1:
                    self.obs.start_trace(self, event_time)
                else:
                    self._trace_countdown = countdown - 1
            self._deliver(final, event_time)
            # WatermarkTracker.observe, inlined: on ordered traffic
            # every tuple advances the watermark, so this runs hot
            tracker = self.tracker
            if event_time < tracker.watermark:
                tracker.late_rows += 1
            if event_time > tracker.max_event_time:
                tracker.max_event_time = event_time
                advanced = event_time - tracker.bound
                if advanced > tracker.watermark:
                    tracker.watermark = advanced
                    self.watermark = advanced
                    # derived advances are reconstructed from the insert
                    # records at replay time — no WAL record of their own
                    self._broadcast_heartbeat(advanced, log=False)
            return True
        if event_time < self.watermark:
            if self.disorder_policy == DROP:
                self.tuples_dropped += 1
                return False
            raise OutOfOrderError(
                f"stream {self.name!r}: event time {event_time} is before "
                f"watermark {self.watermark}"
            )
        final = tuple(row)
        if self.slack > 0:
            if event_time < self.raw_watermark:
                self.tuples_reordered += 1
            if self.high_water_mark is not None \
                    and len(self._pending) >= self.high_water_mark:
                if not self._relieve_pressure(final, event_time):
                    return False  # the new tuple itself was shed
            self.raw_watermark = max(self.raw_watermark, event_time)
            heapq.heappush(self._pending, (event_time, self._seq, final))
            self._seq += 1
            self.tuples_in += 1
            countdown = self._trace_countdown
            if countdown:
                if countdown == 1:
                    self.obs.start_trace(self, event_time)
                else:
                    self._trace_countdown = countdown - 1
            self._release(self.raw_watermark - self.slack)
            return True
        self.watermark = max(self.watermark, event_time)
        self.raw_watermark = self.watermark
        self.tuples_in += 1
        countdown = self._trace_countdown
        if countdown:
            if countdown == 1:
                self.obs.start_trace(self, event_time)
            else:
                self._trace_countdown = countdown - 1
        self._deliver(final, event_time)
        return True

    # -- backpressure -----------------------------------------------------------

    def _relieve_pressure(self, row: tuple, event_time: float) -> bool:
        """The reorder buffer is at its high-water mark; apply the
        configured policy.  Returns False when the incoming tuple should
        be discarded instead of buffered (shed-oldest, incoming oldest).
        """
        policy = self.backpressure_policy
        if policy == BP_RAISE or policy is None:
            raise BackpressureError(
                f"stream {self.name!r}: reorder buffer at high-water mark "
                f"({self.high_water_mark} tuples)"
            )
        if policy == BP_SHED_OLDEST:
            # drop the oldest queued tuple — or the incoming one, if it is
            # older than everything queued (it would be popped first anyway)
            if self._pending and self._pending[0][0] <= event_time:
                when, _seq, shed = heapq.heappop(self._pending)
            else:
                when, shed = event_time, row
            self.tuples_shed += 1
            if self.shed_handler is not None:
                self.shed_handler(shed, when, "load-shed")
            return shed is not row
        # BP_BLOCK: the inserter "waits" for the consumers — in this
        # synchronous engine that means force-draining the oldest buffered
        # tuples now, trading slack headroom for bounded memory
        while len(self._pending) >= self.high_water_mark:
            when, _seq, oldest = heapq.heappop(self._pending)
            self.watermark = max(self.watermark, when)
            self.forced_releases += 1
            self._deliver(oldest, when)
        return True

    # -- delivery ---------------------------------------------------------------

    def _deliver(self, row: tuple, event_time: float) -> None:
        self._retain(event_time, row)
        if self.replication_log is not None:
            if self._unlogged is None:
                self.replication_log(self.name, "rows", (row,), (event_time,))
            else:
                self._unlogged[0].append(row)
                self._unlogged[1].append(event_time)
        errors = None
        faults = self.faults
        if faults is not None and faults.armed:
            if faults.should("stream.slow_consumer"):
                self.slow_deliveries += 1
            injected = faults.poll("stream.deliver", self.name)
            if injected is not None:
                errors = [(None, injected)]
        # snapshot: a supervised restart may unsubscribe/resubscribe
        # a consumer from inside its own on_tuple
        for consumer in tuple(self._consumers):
            try:
                consumer.on_tuple(row, event_time)
            except Exception as exc:
                # keep fanning out: one raising subscriber must not starve
                # the others; errors are reported after full delivery
                if errors is None:
                    errors = []
                errors.append((consumer, exc))
        if errors is not None:
            self._report_delivery_errors(row, event_time, errors)

    def _report_delivery_errors(self, row, event_time, errors) -> None:
        self.delivery_errors += len(errors)
        if self.error_handler is not None:
            self.error_handler(row, event_time, errors)
            return
        raise errors[0][1]

    def _release(self, threshold: float) -> None:
        """Deliver buffered tuples with event time <= ``threshold``,
        in timestamp order (the delivered watermark trails by slack)."""
        while self._pending and self._pending[0][0] <= threshold:
            event_time, _seq, row = heapq.heappop(self._pending)
            self.watermark = max(self.watermark, event_time)
            self._deliver(row, event_time)

    def insert_many(self, rows, at: Optional[float] = None) -> int:
        """Ingest a batch; returns how many rows were actually accepted.

        Under the shed-oldest backpressure policy a row can be stored and
        then displaced by a later row of the same batch (or displace an
        older buffered tuple).  The return value is net acceptance: rows
        stored minus tuples the batch forced out of the reorder buffer,
        so a caller can tell shed from stored.
        """
        return self.insert_many_counted(rows, at)["accepted"]

    def insert_many_counted(self, rows, at: Optional[float] = None) -> dict:
        """Ingest a batch and account for every row:
        ``{"accepted", "shed", "dropped"}``.

        ``accepted`` is net acceptance (stored minus buffered tuples
        this batch displaced), ``shed`` counts backpressure sheds —
        incoming rows refused plus buffered tuples displaced — and
        ``dropped`` counts rows discarded as too-late under the ``drop``
        disorder policy.  The ingest wire ack reports these numbers, so
        they must add up: accepted + shed + dropped == len(rows).
        """
        fast = self._insert_fast_batch(rows, at)
        if fast is not None:
            return fast
        stored = 0
        submitted = 0
        shed_before = self.tuples_shed
        dropped_before = self.tuples_dropped
        delivered = self._unlogged = ([], [])
        try:
            for row in rows:
                submitted += 1
                if self.insert(row, at):
                    stored += 1
        except ConstraintError as exc:
            # rows before the refused one stay applied, so say which it was
            raise ConstraintError(f"row {submitted - 1}: {exc}") from None
        finally:
            self._unlogged = None
            if delivered[0] and self.replication_log is not None:
                self.replication_log(self.name, "rows", *delivered)
        rejected = submitted - stored
        dropped_late = self.tuples_dropped - dropped_before
        shed_total = self.tuples_shed - shed_before
        # sheds of incoming rows already show up as insert() == False;
        # only subtract the *buffered* tuples this batch displaced
        shed_incoming = rejected - dropped_late
        shed_buffered = shed_total - shed_incoming
        return {
            "accepted": max(stored - shed_buffered, 0),
            "shed": shed_total,
            "dropped": dropped_late,
        }

    def _insert_fast_batch(self, rows, at: Optional[float]) -> Optional[dict]:
        """Batch ingest without the per-row :meth:`insert` overhead.

        Only the plain configuration qualifies: arrival-ordered traffic
        (no watermark tracker, no slack reorder buffer), unsupervised
        delivery, no armed fault injector.  Any disorder, NULL CQTIME,
        or coercion problem defers to the per-row path, which raises
        (or drops) with exactly the single-insert semantics — and so does
        a non-finite event time, which only that path refuses.  Consumers
        implementing ``on_tuples(rows, times)`` receive the whole sorted
        batch in one call.  Returns None when the batch must take the
        slow path.
        """
        if (self.tracker is not None or self.slack > 0
                or self.error_handler is not None
                or (self.faults is not None and self.faults.armed)):
            return None
        consumers = self._consumers
        batch_capable = all(
            getattr(consumer, "on_tuples", None) is not None
            for consumer in consumers)
        if not batch_capable and len(consumers) > 1:
            # per-row fan-out interleaves consumers row by row; keep
            # those exact semantics (incl. error accumulation) slow
            return None
        cqtime = self.cqtime_index
        try:
            coerced = self.schema.coerce_rows(rows)
        except Exception:
            return None
        n = len(coerced)
        if n == 0:
            return {"accepted": 0, "shed": 0, "dropped": 0}
        if self.cqtime_mode == "system":
            arrival = float(at if at is not None
                            else max(self.watermark, 0.0))
            coerced = [row[:cqtime] + (arrival,) + row[cqtime + 1:]
                       for row in coerced]
            times = [arrival] * n
        else:
            times = [row[cqtime] for row in coerced]
            if any(when is None for when in times):
                return None
            for i in range(1, n):
                if not times[i] >= times[i - 1]:    # disorder, or a nan
                    return None
        if not times[0] >= self.watermark \
                or not (isfinite(times[0]) and isfinite(times[-1])):
            return None
        final_rows = coerced
        self.watermark = max(self.watermark, times[-1])
        self.raw_watermark = self.watermark
        self.tuples_in += n
        # trace sampling: the batch form of insert()'s every-Nth
        # countdown — trace rows countdown-1, then every interval
        countdown = self._trace_countdown
        if countdown:
            i = countdown - 1
            while i < n:
                self.obs.start_trace(self, times[i])
                countdown = self._trace_countdown  # re-armed interval
                if not countdown:
                    break
                i += countdown
            if countdown:
                self._trace_countdown = i - n + 1
        if self.retention is not None:
            for when, row in zip(times, final_rows):
                self._retain(when, row)
        if self.replication_log is not None:
            self.replication_log(self.name, "rows", final_rows, times)
        if batch_capable:
            for consumer in tuple(consumers):
                try:
                    consumer.on_tuples(final_rows, times)
                except Exception as exc:
                    self._report_delivery_errors(
                        None, times[-1], [(consumer, exc)])
        else:
            for consumer in tuple(consumers):
                for when, row in zip(times, final_rows):
                    try:
                        consumer.on_tuple(row, when)
                    except Exception as exc:
                        self._report_delivery_errors(
                            row, when, [(consumer, exc)])
        return {"accepted": n, "shed": 0, "dropped": 0}

    def advance_to(self, event_time: float) -> None:
        """Heartbeat: assert no tuple before ``event_time`` will arrive.

        With slack, the heartbeat first drains the reorder buffer up to
        ``event_time - slack`` and consumers see that (delayed) clock.
        In event-time mode this is *explicit watermark injection*: the
        source asserts completeness through ``event_time`` and the
        tracker publishes it (monotone).  Unlike observation-derived
        advances, injections are WAL-logged — they are not
        reconstructible from the row records.
        """
        if not isfinite(event_time):
            raise StreamingError(
                f"stream {self.name!r}: cannot advance to {event_time!r}, "
                "not a finite time")
        if self.tracker is not None:
            advanced = self.tracker.inject(event_time)
            if advanced is not None:
                self.watermark = advanced
                self._broadcast_heartbeat(advanced)
            return
        if self.slack > 0:
            self.raw_watermark = max(self.raw_watermark, event_time)
            threshold = event_time - self.slack
            self._release(threshold)
            if threshold <= self.watermark:
                return
            self.watermark = threshold
            self._broadcast_heartbeat(threshold)
            return
        if event_time < self.watermark:
            return
        self.watermark = event_time
        self.raw_watermark = max(self.raw_watermark, event_time)
        self._broadcast_heartbeat(event_time)

    def _broadcast_heartbeat(self, event_time: float,
                             log: bool = True) -> None:
        if log and self.replication_log is not None:
            self.replication_log(self.name, "advance", None, event_time)
        errors = None
        for consumer in tuple(self._consumers):
            try:
                consumer.on_heartbeat(event_time)
            except Exception as exc:
                if errors is None:
                    errors = []
                errors.append((consumer, exc))
        if errors is not None:
            self._report_delivery_errors(None, event_time, errors)

    def flush(self) -> None:
        """End-of-stream: force pending windows out (tests, benches)."""
        self._release(float("inf"))
        for consumer in tuple(self._consumers):
            consumer.on_flush()

    # -- replay tail ------------------------------------------------------------

    def _retain(self, event_time: float, row: tuple) -> None:
        if self.retention is None:
            return
        self._tail.append((event_time, row))
        horizon = self.watermark - self.retention
        while self._tail and self._tail[0][0] < horizon:
            self._tail.popleft()

    def replay_since(self, event_time: float):
        """Yield retained (time, row) pairs with time >= ``event_time``."""
        if self.retention is None and not self._tail:
            raise StreamingError(
                f"stream {self.name!r} has no retention configured"
            )
        for when, row in self._tail:
            if when >= event_time:
                yield when, row

    def replay_horizon(self) -> float:
        """Earliest replayable event time (inf when nothing retained)."""
        if self._tail:
            return self._tail[0][0]
        return float("inf")

    def restore_point(self, event_time: float, row: Optional[tuple] = None):
        """Rebuild one point of the replay tail without fan-out.

        Used by crash recovery and the standby applier: the tuple (or
        heartbeat, when ``row`` is None) moves the watermark and extends
        the tail, but consumers are *not* delivered to — the windows
        they would rebuild are recovered separately, from the active
        table.  Every row is kept, whatever ``retention`` says: the log
        held it, and the replayer decides when the open windows have
        been rebuilt from it (:meth:`trim_tail`).
        """
        if row is not None:
            self.tuples_in += 1
            self._tail.append((event_time, tuple(row)))
        if self.tracker is not None:
            # event-time replay: rows re-feed the bounded generator,
            # bare advances re-apply explicit injections — the
            # watermark lands exactly where it was and never regresses
            # across boot, standby apply, or promotion
            if row is not None:
                advanced = self.tracker.observe(event_time)
            else:
                advanced = self.tracker.inject(event_time)
            if advanced is not None:
                self.watermark = advanced
            self.raw_watermark = max(self.raw_watermark, event_time)
            return
        self.watermark = max(self.watermark, event_time)
        self.raw_watermark = max(self.raw_watermark, self.watermark)

    def trim_tail(self) -> None:
        """Cut the tail back to what ``retention`` covers (nothing,
        without one)."""
        if self.retention is None:
            self._tail.clear()
            return
        horizon = self.watermark - self.retention
        while self._tail and self._tail[0][0] < horizon:
            self._tail.popleft()

    def __repr__(self):
        return f"BaseStream({self.name}, watermark={self.watermark})"


class DerivedStream:
    """The output of an always-on CQ, re-published window by window.

    Consumers that implement ``on_batch(rows, open_time, close_time)``
    receive whole window results (what a channel wants); others get the
    rows flattened through ``on_tuple`` with the window-close timestamp
    as event time.
    """

    def __init__(self, name: str, schema: Schema, query_text: str = "",
                 retention: Optional[float] = None):
        self.name = name
        self.schema = schema
        self.query_text = query_text
        self.cq = None  # set by the runtime when the CQ is instantiated
        self.batches_out = 0
        self.tuples_out = 0
        self.retention = retention
        self._window_tail = deque()  # (open_time, close_time, rows)
        self._consumers = []
        self.slice_stores = []  # as on BaseStream

    def subscribe(self, consumer) -> None:
        self._consumers.append(consumer)

    def unsubscribe(self, consumer) -> None:
        if consumer in self._consumers:
            self._consumers.remove(consumer)

    @property
    def consumers(self):
        return list(self._consumers)

    def on_record(self, kind: str, rows, open_time: float,
                  close_time: float) -> None:
        """The owning CQ's sink: a final is published, any other record
        is a correction."""
        if kind == "window":
            self.publish(rows, open_time, close_time)
        else:
            self.publish_correction(kind, rows, open_time, close_time)

    def publish(self, rows, open_time: float, close_time: float) -> None:
        """One window close of the owning CQ."""
        self.batches_out += 1
        self.tuples_out += len(rows)
        if self.retention is not None:
            self._window_tail.append((open_time, close_time, list(rows)))
            horizon = close_time - self.retention
            while self._window_tail and self._window_tail[0][1] <= horizon:
                self._window_tail.popleft()
        for consumer in self._consumers:
            on_batch = getattr(consumer, "on_batch", None)
            if on_batch is not None:
                on_batch(rows, open_time, close_time)
            else:
                for row in rows:
                    consumer.on_tuple(row, close_time)
                # let time-based consumers advance past empty windows
                consumer.on_heartbeat(close_time)

    def publish_correction(self, kind: str, rows, open_time: float,
                           close_time: float) -> None:
        """A typed retraction/correction/early record from the owning
        CQ's lateness machinery.  ``correct`` rewrites the retained
        window in place, so failover replay (``replay_windows``) hands
        a reconnecting subscriber the *corrected* content; consumers
        that understand corrections (``on_correction``) get the typed
        record, others are left alone (they will converge through
        replay or the REPLACE table)."""
        if kind == "correct" and self.retention is not None:
            for i, (w_open, w_close, _rows) in enumerate(self._window_tail):
                if w_close == close_time and w_open == open_time:
                    self._window_tail[i] = (w_open, w_close, list(rows))
                    break
        for consumer in self._consumers:
            on_correction = getattr(consumer, "on_correction", None)
            if on_correction is not None:
                on_correction(kind, rows, open_time, close_time)

    def flush(self) -> None:
        for consumer in self._consumers:
            consumer.on_flush()

    def replay_windows(self, since: float):
        """Retained windows that closed strictly after ``since``.

        The strict bound is what makes failover re-subscription
        duplicate-free: a client that saw a window closing at T asks for
        ``since=T`` and receives only later windows.
        """
        if self.retention is None:
            raise StreamingError(
                f"derived stream {self.name!r} has no retention configured"
            )
        return [(open_time, close_time, list(rows))
                for open_time, close_time, rows in self._window_tail
                if close_time > since]

    def __repr__(self):
        return f"DerivedStream({self.name})"
