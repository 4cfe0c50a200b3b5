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

from collections import deque
from itertools import islice
from math import isfinite
from operator import ge, itemgetter
from typing import Optional

from repro.catalog.schema import Schema
from repro.errors import ConstraintError, OutOfOrderError, StreamingError
from repro.eventtime.watermark import WatermarkTracker

RAISE = "raise"
DROP = "drop"


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

    The paper assumes every stream arrives in CQTIME order.  A stream
    declared with ``watermark_bound`` (``WATERMARK '…'``) accepts rows out
    of order and leaves lateness to its CQs; an arrival-time stream
    applies ``disorder_policy`` (raise or drop) to a row behind its
    watermark.
    """

    def __init__(self, name: str, schema: Schema,
                 disorder_policy: str = RAISE,
                 retention: Optional[float] = None,
                 watermark_bound: Optional[float] = None,
                 partition_by: Optional[str] = None):
        self.name = name
        self.schema = schema
        cqtime = schema.cqtime_index()
        if cqtime is None:
            raise StreamingError(
                f"stream {name!r} has no CQTIME column"
            )
        self.cqtime_index = cqtime
        self.cqtime_mode = schema.columns[cqtime].cqtime or "user"
        if watermark_bound is not None and self.cqtime_mode == "system":
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
        self.watermark = float("-inf")   # delivered clock
        self.raw_watermark = float("-inf")  # max event time ever seen
        self.tuples_in = 0
        self.tuples_dropped = 0
        self.tuples_reordered = 0
        self.delivery_errors = 0   # subscriber exceptions seen in fan-out
        self.slow_deliveries = 0   # stream.slow_consumer crashpoint fires
        self._consumers = []
        #: slice stores of the sliced CQs reading this stream, one per
        #: (key, incompatible slice grid) — see repro.streaming.shared
        self.slice_stores = []
        #: (event_time, row, watermark it was judged by) kept for replay
        self._tail = deque()
        #: newest event time a row left the tail (or was never kept) at:
        #: a replay from at or before it would miss rows
        self.evicted_through = float("-inf")
        # supervision hooks (set by CQSupervisor.adopt_stream); when
        # error_handler is set, subscriber exceptions are routed there
        # instead of propagating to the inserter
        self.error_handler = None   # fn(row, event_time, [(consumer, exc)])
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

    def insert(self, values, at: Optional[float] = None, *,
               coerced: bool = False) -> bool:
        """Ingest one row.

        For a USER-time stream the event time is the CQTIME column of the
        row itself; for a SYSTEM-time stream it is ``at`` (the arrival
        clock), stamped into the row.  Returns False when a late tuple is
        dropped under the ``drop`` policy.  ``coerced``: the row comes
        from a frame already coerced whole (:meth:`insert_many_counted`).
        """
        row = list(values if coerced else self.schema.coerce_row(values))
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
            advanced = self.tracker.observe(event_time)
            if advanced is not None:
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
        # snapshot: a consumer's on_tuple may unsubscribe a consumer
        # (a sink that closes its subscription)
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

    def insert_many(self, rows, at: Optional[float] = None) -> int:
        """Ingest a batch; returns how many rows were accepted (a row
        behind the watermark of a ``drop`` stream is not)."""
        return self.insert_many_counted(rows, at)["accepted"]

    def insert_many_counted(self, rows, at: Optional[float] = None) -> dict:
        """Ingest a batch and account for every row:
        ``{"accepted", "shed", "dropped"}``.

        ``accepted`` counts rows stored and ``dropped`` rows discarded as
        too late under the ``drop`` disorder policy.  A stream never
        sheds, so ``shed`` is 0; the ingest wire ack carries the field
        for the admission controller's shed.  The numbers add up:
        accepted + shed + dropped == len(rows).
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)   # a generator: every pass below reads it
        # coerced once, a column at a time, for either path; a frame
        # that does not coerce whole is coerced row by row below, which
        # names the refused row and applies the rows before it
        try:
            coerced = self.schema.coerce_rows(rows)
        except Exception:
            coerced = None
        else:
            fast = self._insert_fast_batch(coerced, at)
            if fast is not None:
                return fast
        stored = 0
        submitted = 0
        delivered = self._unlogged = ([], [])
        try:
            for row in rows if coerced is None else coerced:
                submitted += 1
                if self.insert(row, at, coerced=coerced is not None):
                    stored += 1
        except ConstraintError as exc:
            # rows before the refused one stay applied, so say which it was
            raise ConstraintError(f"row {submitted - 1}: {exc}") from None
        finally:
            self._unlogged = None
            if delivered[0] and self.replication_log is not None:
                self.replication_log(self.name, "rows", *delivered)
        return {"accepted": stored, "shed": 0,
                "dropped": submitted - stored}

    def _insert_fast_batch(self, coerced, at: Optional[float]
                           ) -> Optional[dict]:
        """Batch ingest of a coerced frame without the per-row
        :meth:`insert` overhead.

        A frame qualifies when it is in CQTIME order from at or after the
        stream's watermark, delivery is unsupervised and no fault
        injector is armed.  It is logged as one record and handed to
        each consumer once: to ``on_tuples(rows, times)``, or row by row
        to a lone arrival-time consumer without it.  On an event-time
        stream every consumer must take it whole: such a frame holds no
        late row, so the watermark advances once, after delivery, with
        one heartbeat.  Disorder, NULL CQTIME and non-finite event times
        defer to the per-row path, which judges each row by its own
        watermark and raises (or drops) with exactly the single-insert
        semantics.  Returns None when the batch must take that path.
        """
        tracker = self.tracker
        if self.error_handler is not None \
                or (self.faults is not None and self.faults.armed):
            return None
        consumers = self._consumers
        batch_capable = all(
            getattr(consumer, "on_tuples", None) is not None
            for consumer in consumers)
        if not batch_capable and (tracker is not None or len(consumers) > 1):
            # per-row fan-out interleaves consumers row by row, and an
            # event-time consumer needs a heartbeat after each row; keep
            # those exact semantics (incl. error accumulation) slow
            return None
        cqtime = self.cqtime_index
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
            times = list(map(itemgetter(cqtime), coerced))
            # a NULL time, disorder, or a nan (every comparison is False)
            if None in times \
                    or not all(map(ge, islice(times, 1, None), times)):
                return None
        watermark = self.watermark
        if not times[0] >= watermark \
                or not (isfinite(times[0]) and isfinite(times[-1])):
            return None
        final_rows = coerced
        if tracker is None:
            self.watermark = max(watermark, times[-1])
            self.raw_watermark = self.watermark
        elif times[-1] > self.raw_watermark:
            self.raw_watermark = times[-1]
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
            # each row with the watermark it is judged by: an event-time
            # row's is the one its predecessor's observation leaves
            marks = [self.watermark] * n
            if tracker is not None:
                marks[1:] = [max(watermark, when - tracker.bound)
                             for when in islice(times, n - 1)]
            self._tail.extend(zip(times, final_rows, marks))
            self._trim(marks[-1] - self.retention)
        elif times[-1] > self.evicted_through:
            self.evicted_through = times[-1]
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
        if tracker is not None:
            # one observation for the frame, after its delivery, as
            # insert() makes one per row
            advanced = tracker.observe(times[-1])
            if advanced is not None:
                self.watermark = advanced
                self._broadcast_heartbeat(advanced, log=False)
        return {"accepted": n, "shed": 0, "dropped": 0}

    def advance_to(self, event_time: float) -> None:
        """Heartbeat: assert no tuple before ``event_time`` will arrive.

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
        for consumer in tuple(self._consumers):
            consumer.on_flush()

    # -- replay tail ------------------------------------------------------------

    def _retain(self, event_time: float, row: tuple) -> None:
        if self.retention is None:
            if event_time > self.evicted_through:
                self.evicted_through = event_time
            return
        # delivery precedes an event-time tracker's observation of the
        # row: ``watermark`` is still the one the row is judged by
        tail = self._tail
        tail.append((event_time, row, self.watermark))
        horizon = self.watermark - self.retention
        if tail[0][0] < horizon:
            self._trim(horizon)

    def _trim(self, horizon: float) -> None:
        tail = self._tail
        while tail and tail[0][0] < horizon:
            when = tail.popleft()[0]
            if when > self.evicted_through:
                self.evicted_through = when

    def replay_since(self, event_time: float):
        """Yield retained (time, row) pairs with time >= ``event_time``."""
        if self.retention is None and not self._tail:
            raise StreamingError(
                f"stream {self.name!r} has no retention configured"
            )
        for when, row, _watermark in self.replay_entries(event_time):
            yield when, row

    def replay_entries(self, event_time: float):
        """Yield retained ``(time, row, watermark)`` triples with time >=
        ``event_time``, in arrival order: each row with the watermark
        it was delivered under."""
        for entry in self._tail:
            if entry[0] >= event_time:
                yield entry

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
            self._tail.append((event_time, tuple(row), self.watermark))
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
        self._trim(float("inf") if self.retention is None
                   else self.watermark - self.retention)

    def __repr__(self):
        return f"BaseStream({self.name}, watermark={self.watermark})"


class DerivedStream:
    """The output of an always-on CQ, re-published window by window.

    Consumers that implement ``on_batch(rows, open_time, close_time)``
    receive whole window results (what a channel wants); others get the
    rows flattened through ``on_tuple`` with the window-close timestamp
    as event time.
    """

    def __init__(self, name: str, schema: Schema,
                 retention: Optional[float] = None):
        self.name = name
        self.schema = schema
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
        for consumer in tuple(self._consumers):
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
        that understand corrections (``on_correction``: a channel) get
        the typed record.  Every other consumer is left alone and does
        not converge: a windowed CQ over this stream keeps what it
        computed from the uncorrected window (ROADMAP item 3)."""
        if kind == "correct" and self.retention is not None:
            for i, (w_open, w_close, _rows) in enumerate(self._window_tail):
                if w_close == close_time and w_open == open_time:
                    self._window_tail[i] = (w_open, w_close, list(rows))
                    break
        for consumer in tuple(self._consumers):
            on_correction = getattr(consumer, "on_correction", None)
            if on_correction is not None:
                on_correction(kind, rows, open_time, close_time)

    def flush(self) -> None:
        for consumer in tuple(self._consumers):
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
