"""Per-connection sessions: options, subscriptions, slow-client policy.

A session owns everything one client connection can see: its session-
scoped ``SET`` options, its live subscriptions, and a bounded outbound
buffer of push frames.  Engine-side window/tuple sinks run on the
single-writer engine thread (:mod:`repro.server.engine`) and append to
that buffer; an asyncio writer task drains it to the socket.  When a
client reads slower than its subscriptions produce, the buffer hits the
session's high-water mark and its slow-client policy applies
(surfaced as protocol frames):

- ``shed-oldest`` — drop the oldest buffered push, tell the client with
  a ``shed`` frame, and (under supervision) quarantine the dropped
  payload as a ``slow-consumer`` dead letter;
- ``block`` — the engine thread waits (bounded by ``block_timeout``)
  for the writer to drain: real backpressure, propagated to every
  producer on the engine thread.  On timeout it degrades to shedding so
  one dead client cannot freeze the server;
- ``raise`` (alias ``error``) — the subscription is cancelled and the
  client told with a ``sub_closed`` frame.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.catalog import catalog as cat
from repro.core.results import ResultSet, Subscription
from repro.errors import (
    ExecutionError,
    StreamingError,
    UnknownObjectError,
)
from repro.server import protocol
from repro.sql import ast, first_word, parse_statement
from repro.streaming.streams import StreamConsumer

#: slow-client policies (``error`` is an alias of ``raise``)
POLICY_BLOCK = "block"
POLICY_SHED = "shed-oldest"
POLICY_RAISE = "raise"
SESSION_POLICIES = (POLICY_BLOCK, POLICY_SHED, POLICY_RAISE)

#: options owned by the session, not the shared engine
SESSION_OPTIONS = ("subscribe_policy", "subscribe_high_water",
                   "block_timeout")


class SubscriptionEntry:
    """One live subscription: its sink, counters, and detach hook."""

    def __init__(self, sub_id: int, name: str, kind: str, columns):
        self.sub_id = sub_id
        self.name = name
        self.kind = kind              # 'stream' | 'derived' | 'cq' | 'query'
        self.columns = list(columns)
        self.detach: Optional[Callable[[], None]] = None
        self.sink: Optional[SessionSink] = None
        self.windows_pushed = 0
        self.tuples_pushed = 0
        self.sheds = 0
        self.broken = False
        self.close_reason: Optional[str] = None
        # per-subscription monotone push sequence: every window-shaped
        # frame (finals *and* retract/correct/early records) carries the
        # next number, so a client can detect shed or re-ordered frames
        self.push_seq = 0

    def next_seq(self) -> int:
        self.push_seq += 1
        return self.push_seq


class SessionSink(StreamConsumer):
    """The engine-side consumer that forwards to one session.

    Never raises out of a callback: a broken or slow client must not
    poison delivery to the engine's other subscribers.
    """

    def __init__(self, session: "Session", entry: SubscriptionEntry):
        self.session = session
        self.entry = entry
        # set for event-time sources: zero-arg callable returning the
        # source stream's watermark, stamped onto every window push
        self.watermark_fn = None

    def _watermark(self):
        fn = self.watermark_fn
        return fn() if fn is not None else None

    # base streams call these -------------------------------------------------

    def on_tuple(self, row, event_time) -> None:
        entry = self.entry
        if entry.broken:
            return
        entry.tuples_pushed += 1
        self.session.enqueue_push(
            entry, protocol.tuple_push(entry.sub_id, row, event_time))

    def on_heartbeat(self, event_time) -> None:  # time flows via windows
        return

    def on_flush(self) -> None:
        return

    # CQs and derived streams call these ------------------------------------

    def on_record(self, kind, rows, open_time, close_time) -> None:
        """One CQ record — a final (``window``) or a typed retract /
        correct / early — pushed as a window frame carrying its
        ``kind``, in sequence, so the client sees retraction pairs in
        the exact order the engine emitted them."""
        entry = self.entry
        if entry.broken:
            return
        entry.windows_pushed += 1
        self.session.enqueue_push(
            entry,
            protocol.window_push(entry.sub_id, rows, open_time, close_time,
                                 kind=kind, seq=entry.next_seq(),
                                 watermark=self._watermark()))

    def on_batch(self, rows, open_time, close_time) -> None:
        self.on_record("window", rows, open_time, close_time)

    on_correction = on_record


class Session:
    """State and op handlers for one client connection.

    The async handler methods run on the event loop; anything touching
    the engine is submitted to the server's single-writer executor.
    """

    def __init__(self, session_id: int, server, peer: str):
        self.session_id = session_id
        self.server = server
        self.peer = peer
        self.state = "active"
        # the server's injectable clock: idle accounting must follow the
        # same time source the reaper reads (ManualClock in tests)
        self.clock = getattr(server, "clock", None)
        if self.clock is None:
            from repro.clock import SYSTEM_CLOCK
            self.clock = SYSTEM_CLOCK
        self.started_monotonic = self.clock.monotonic()
        # updated by the server on every inbound frame; the idle reaper
        # closes sessions whose silence exceeds the server's idle_timeout.
        # Kept on the monotonic clock so wall-clock jumps can neither
        # mass-reap nor immortalise sessions; the wall-clock twin exists
        # only for display in repro_connections.
        self.last_seen = self.started_monotonic
        self.last_seen_wall = time.time()
        # bound at hello (or left on the default tenant)
        self.tenant_name = "default"
        self._tenant_bound = False
        self._h_delivery = None  # per-tenant push-delivery histogram
        # session-scoped options
        self.options = {
            "subscribe_policy": POLICY_BLOCK,
            "subscribe_high_water": 256,
            "block_timeout": 2.0,
        }
        # counters for the repro_connections view
        self.statements = 0
        self.rows_ingested = 0
        self.subs: Dict[int, SubscriptionEntry] = {}
        self._sub_counter = 0
        # outbound push buffer: engine thread appends, writer task drains
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._out = deque()
        self._pending_detach: List[SubscriptionEntry] = []
        self.notify: Callable[[], None] = lambda: None  # set by server

    # ------------------------------------------------------------------
    # outbound buffer (engine thread side)
    # ------------------------------------------------------------------

    def enqueue_push(self, entry: SubscriptionEntry, frame: dict) -> None:
        """Called on the engine thread by sinks; applies the session's
        slow-client policy when the buffer is at its high-water mark."""
        high_water = self.options["subscribe_high_water"]
        policy = self.options["subscribe_policy"]
        # stamp enqueue time so drain_frames can observe how long pushes
        # sat in the outbound buffer (the per-tenant delivery histogram
        # the X5 overload benchmark reads); popped before serialization
        frame["_enq"] = time.perf_counter()
        with self._space:
            if len(self._out) >= high_water and policy == POLICY_BLOCK:
                deadline = time.monotonic() + self.options["block_timeout"]
                while len(self._out) >= high_water:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._space.wait(remaining):
                        break
            if len(self._out) >= high_water:
                if policy == POLICY_RAISE:
                    entry.broken = True
                    entry.close_reason = (
                        f"client too slow: {len(self._out)} frames "
                        f"buffered (subscribe_policy = raise)")
                    self._pending_detach.append(entry)
                    self._wake()
                    return
                # shed-oldest (and block's timeout fallback): drop the
                # oldest buffered push to make room for the new one
                shed = self._out.popleft()
                self._count_shed(shed)
            self._out.append(frame)
        self._wake()

    def _count_shed(self, frame: dict) -> None:
        victim = self.subs.get(frame.get("sub"))
        if victim is not None:
            victim.sheds += 1
        supervisor = self.server.db.supervisor
        if supervisor is not None:
            from repro.streaming.supervisor import SLOW_CONSUMER
            rows = frame.get("rows")
            if rows is None:
                rows = [frame.get("row")] if frame.get("row") else []
            source = (victim.name if victim is not None
                      else f"session:{self.session_id}")
            supervisor.quarantine(
                source, SLOW_CONSUMER,
                f"session {self.session_id} fell behind; frame dropped",
                rows, frame.get("open"), frame.get("close"))

    def _wake(self) -> None:
        try:
            self.notify()
        except RuntimeError:
            pass  # event loop already gone (shutdown race)

    # ------------------------------------------------------------------
    # outbound buffer (event loop side)
    # ------------------------------------------------------------------

    def drain_frames(self) -> List[dict]:
        """Take everything buffered; wakes engine threads blocked on
        the high-water mark.  Appends shed notices and sub_closed
        frames for anything that broke since the last drain."""
        with self._space:
            frames = list(self._out)
            self._out.clear()
            detached = list(self._pending_detach)
            self._pending_detach.clear()
            self._space.notify_all()
        if frames:
            histogram = self._h_delivery
            now = time.perf_counter()
            for frame in frames:
                enqueued = frame.pop("_enq", None)
                if histogram is not None and enqueued is not None:
                    histogram.observe(max(0.0, now - enqueued))
        for entry in self.subs.values():
            if entry.sheds and not getattr(entry, "_sheds_reported", 0) == \
                    entry.sheds:
                unreported = entry.sheds - getattr(entry, "_sheds_reported", 0)
                entry._sheds_reported = entry.sheds
                frames.append(protocol.shed_push(entry.sub_id, unreported))
        for entry in detached:
            frames.append(protocol.sub_closed_push(
                entry.sub_id, entry.close_reason or "cancelled"))
        if detached:
            self.server.schedule_detach(self, detached)
        return frames

    # ------------------------------------------------------------------
    # op handlers (event loop side; engine work goes through the server)
    # ------------------------------------------------------------------

    async def handle_execute(self, frame: dict) -> dict:
        sql = frame.get("sql")
        if not isinstance(sql, str):
            raise ExecutionError("execute needs a 'sql' string")
        params = frame.get("params")
        request_id = frame.get("id")
        self.statements += 1
        local = self._try_session_option(sql)
        if local is not None:
            if local.get("_show_all"):
                result = await self.server.on_engine(
                    self.server.db.query, sql)
                rows = [list(r) for r in result.rows]
                rows.extend(list(r) for r in self.session_option_rows())
                rows.sort()
                return protocol.result_response(
                    request_id, result.columns, rows, len(rows))
            return {**local, "id": request_id}
        sub_id = self._next_sub_id()
        outcome = await self.server.on_engine_fair(
            self, self._execute_on_engine, sql, params, sub_id)
        if outcome[0] == "subscription":
            entry = outcome[1]
            self.subs[entry.sub_id] = entry
            return protocol.subscription_response(
                request_id, entry.sub_id, entry.name, entry.columns,
                entry.kind)
        _tag, columns, rows, rowcount = outcome
        return protocol.result_response(request_id, columns, rows, rowcount)

    def _execute_on_engine(self, sql, params, sub_id):
        """Engine thread: run the statement; adopt a CQ if one results."""
        result = self.server.execute_entry(sql, params)
        if isinstance(result, Subscription):
            entry = SubscriptionEntry(
                sub_id, result.cq.name, "query", result.columns)
            sink = SessionSink(self, entry)
            entry.sink = sink
            _wire_event_time(result.cq, sink)
            result.stream_to(sink.on_record)
            entry.detach = result.close  # session-owned CQ: closing stops it
            return ("subscription", entry)
        if isinstance(result, ResultSet):
            return ("result", result.columns, result.rows, result.rowcount)
        return ("result", [], [], 0)

    def _try_session_option(self, sql: str) -> Optional[dict]:
        """SET/SHOW of a *session* option is handled without touching
        the engine; returns None when the statement is engine business
        (told by its first word: the engine parses what it runs)."""
        if first_word(sql) not in ("SET", "SHOW"):
            return None
        try:
            statement = parse_statement(sql)
        except Exception:
            return None  # let the engine produce the real error
        if isinstance(statement, ast.SetOption) \
                and statement.name in SESSION_OPTIONS:
            self._set_session_option(statement.name, statement.value)
            return protocol.ok_response(None)
        if isinstance(statement, ast.ShowOption):
            if statement.name in SESSION_OPTIONS:
                value = self.options[statement.name]
                return protocol.result_response(
                    None, [statement.name], [[_render_option(value)]], 1)
            if statement.name == "all":
                # engine's SHOW all, with the session's rows merged in
                return {"_show_all": True}
        return None

    def _set_session_option(self, name: str, value) -> None:
        if name == "subscribe_policy":
            if value == "error":
                value = POLICY_RAISE
            if value not in SESSION_POLICIES:
                raise ExecutionError(
                    f"unknown subscribe_policy {value!r}; choose one of "
                    f"{', '.join(SESSION_POLICIES)} (or 'error')")
        elif name == "subscribe_high_water":
            if not isinstance(value, int) or value <= 0:
                raise ExecutionError(
                    "subscribe_high_water must be a positive integer")
        elif name == "block_timeout":
            if not isinstance(value, (int, float)) or value is True \
                    or value < 0:
                raise ExecutionError("block_timeout takes seconds >= 0")
            value = float(value)
        with self._space:
            self.options[name] = value
            self._space.notify_all()

    async def handle_subscribe(self, frame: dict) -> dict:
        name = frame.get("name")
        if not isinstance(name, str):
            raise ExecutionError("subscribe needs a 'name' string")
        since = frame.get("since")
        if since is not None and not isinstance(since, (int, float)):
            raise ExecutionError("'since' must be an event time (seconds)")
        sub_id = self._next_sub_id()
        entry = await self.server.on_engine_fair(
            self, self._subscribe_on_engine, name, since, sub_id)
        self.subs[entry.sub_id] = entry
        return protocol.subscription_response(
            frame.get("id"), entry.sub_id, entry.name, entry.columns,
            entry.kind)

    def _subscribe_on_engine(self, name, since, sub_id) -> SubscriptionEntry:
        """Engine thread: attach a sink to a stream, derived stream or
        named CQ.  Replay (late subscriber) and live attach happen in
        one engine job, so no tuple can slip between them."""
        db = self.server.db
        kind = db.catalog.relation_kind(name)
        if kind == cat.STREAM:
            stream = db.catalog.get_relation(name)
            entry = SubscriptionEntry(
                sub_id, stream.name, "stream",
                [c.name for c in stream.schema])
            sink = SessionSink(self, entry)
            entry.sink = sink
            if since is not None:
                for when, row in stream.replay_since(since):
                    entry.tuples_pushed += 1
                    self.enqueue_push(entry, protocol.tuple_push(
                        entry.sub_id, row, when, replayed=True))
            if stream.tracker is not None:
                sink.watermark_fn = lambda: stream.watermark
            stream.subscribe(sink)
            entry.detach = lambda: stream.unsubscribe(sink)
            return entry
        if kind == cat.DERIVED_STREAM:
            derived = db.catalog.get_relation(name)
            entry = SubscriptionEntry(
                sub_id, derived.name, "derived",
                [c.name for c in derived.schema])
            sink = SessionSink(self, entry)
            entry.sink = sink
            if since is not None:
                # replay windows closed after `since` from the retained
                # window tail or the CQ's active table — a failed-over
                # client resumes with no gap and no duplicate
                from repro.replication.bootstrap import (
                    replay_derived_windows,
                )
                for open_t, close_t, rows in replay_derived_windows(
                        db, derived, float(since)):
                    entry.windows_pushed += 1
                    self.enqueue_push(entry, protocol.window_push(
                        entry.sub_id, rows, open_t, close_t,
                        seq=entry.next_seq()))
            _wire_event_time(derived.cq, sink)
            # corrections reach derived-stream subscribers through
            # DerivedStream.publish_correction (sink.on_correction)
            derived.subscribe(sink)
            entry.detach = lambda: derived.unsubscribe(sink)
            return entry
        cq = db.runtime.cqs().get(name)
        if cq is not None:
            entry = SubscriptionEntry(sub_id, cq.name, "cq", cq.output_names)
            sink = SessionSink(self, entry)
            entry.sink = sink
            _wire_event_time(cq, sink)
            cq.add_sink(sink.on_record)
            entry.detach = lambda: cq.remove_sink(sink.on_record)
            return entry
        raise UnknownObjectError(
            f"nothing named {name!r} to subscribe to (expected a stream, "
            "derived stream, or running CQ)")

    async def handle_unsubscribe(self, frame: dict) -> dict:
        sub_id = frame.get("sub")
        entry = self.subs.pop(sub_id, None)
        if entry is None:
            raise UnknownObjectError(f"no subscription {sub_id!r}")
        entry.broken = True
        await self.server.on_engine_fair(self, entry.detach)
        return protocol.ok_response(frame.get("id"))

    async def handle_ingest(self, frame: dict, nbytes: int) -> dict:
        """``nbytes`` is the frame's body length as read off the socket:
        the unit the tenant byte quota counts."""
        stream_name = frame.get("stream")
        rows = frame.get("rows")
        if not isinstance(stream_name, str) or not isinstance(rows, list):
            raise ExecutionError(
                "ingest needs a 'stream' name and a 'rows' list")
        at = frame.get("at")
        sender = frame.get("sender")
        seq = frame.get("seq")
        if (sender is None) != (seq is None):
            raise ExecutionError(
                "idempotent ingest needs both 'sender' and 'seq'")
        if seq is not None and (not isinstance(seq, int)
                                or isinstance(seq, bool) or seq < 1):
            raise ExecutionError("'seq' must be an integer >= 1")
        watermark = frame.get("watermark")
        if watermark is not None and (isinstance(watermark, bool)
                                      or not isinstance(watermark,
                                                        (int, float))):
            raise ExecutionError("'watermark' must be an event time")
        admission = self.server.db.admission
        if sender is not None:
            # recognise replays before the admission decision: the
            # original batch already paid its quota, and refusing the
            # retry would leave the client unable to learn it landed
            stream = self.server.db.runtime.get_stream(stream_name)
            if admission.dedup.seen(stream.name, str(sender), int(seq)):
                admission.record_result(
                    self.tenant_name, 0, 0, len(rows), 0)
                ack = protocol.ok_response(
                    frame.get("id"), accepted=0, shed=0, dropped=0,
                    duplicate=len(rows))
                if stream.tracker is not None:
                    ack["watermark"] = stream.watermark
                return ack
        # the admission decision runs right here on the event loop —
        # refused work must never cost engine-thread time
        decision = admission.admit(self.tenant_name, len(rows), nbytes)
        if decision == "shed":
            self.server.quarantine_shed_batch(self, stream_name, rows)
            return protocol.ok_response(
                frame.get("id"), accepted=0, shed=len(rows), dropped=0,
                duplicate=0)
        counts = await self.server.on_engine_fair(
            self, self.server.ingest_entry, stream_name, rows, at=at,
            sender=sender, seq=seq, watermark=watermark)
        self.rows_ingested += counts["accepted"]
        # a batch the engine recognised as a replay applied nothing, so
        # it must not count against the tenant's byte quota either
        admission.record_result(
            self.tenant_name, counts["accepted"], counts.get("shed", 0),
            counts.get("duplicate", 0),
            0 if counts.get("duplicate") else nbytes)
        ack = protocol.ok_response(
            frame.get("id"), accepted=counts["accepted"],
            shed=counts.get("shed", 0), dropped=counts.get("dropped", 0),
            duplicate=counts.get("duplicate", 0))
        if "watermark" in counts:
            ack["watermark"] = counts["watermark"]
        return ack

    async def handle_advance(self, frame: dict) -> dict:
        event_time = frame.get("time")
        if not isinstance(event_time, (int, float)):
            raise StreamingError("advance needs a numeric 'time'")
        await self.server.on_engine_fair(
            self, self.server.advance_entry, float(event_time))
        return protocol.ok_response(frame.get("id"))

    async def handle_flush(self, frame: dict) -> dict:
        await self.server.on_engine_fair(self, self.server.flush_entry)
        return protocol.ok_response(frame.get("id"))

    # ------------------------------------------------------------------
    # replication ops (a standby on the other end of this session)
    # ------------------------------------------------------------------

    async def handle_replicate(self, frame: dict) -> dict:
        from_lsn = frame.get("from_lsn", 1)
        if not isinstance(from_lsn, int) or isinstance(from_lsn, bool) \
                or from_lsn < 1:
            raise ExecutionError("replicate needs an integer "
                                 "'from_lsn' >= 1")
        if self.server.role != "primary":
            raise ExecutionError(
                "this server is a standby; attach to the primary")
        sub_id = self._next_sub_id()
        entry = SubscriptionEntry(sub_id, "wal", "wal", ["lsn"])

        def attach_on_engine():
            manager = self.server.replication_manager()
            manager.attach(self, entry, from_lsn)
            entry.detach = lambda: manager.detach(sub_id)
            return self.server.db.storage.wal.head_lsn

        head = await self.server.on_engine(attach_on_engine)
        self.subs[sub_id] = entry
        return protocol.ok_response(frame.get("id"), sub=sub_id, head=head)

    async def handle_replicate_ack(self, frame: dict) -> dict:
        sub_id = frame.get("sub")
        lsn = frame.get("lsn")
        if not isinstance(sub_id, int) or not isinstance(lsn, int):
            raise ExecutionError(
                "replicate_ack needs integer 'sub' and 'lsn'")
        manager = self.server._replication
        if manager is not None:
            await self.server.on_engine(manager.ack, sub_id, lsn)
        return protocol.ok_response(frame.get("id"))

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def detach_all_on_engine(self) -> None:
        """Engine thread: drop every subscription this session holds."""
        for entry in self.subs.values():
            entry.broken = True
            if entry.detach is not None:
                try:
                    entry.detach()
                except Exception:
                    pass  # already-dropped source etc.; must not block exit
        self.subs.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def _next_sub_id(self) -> int:
        self._sub_counter += 1
        return self._sub_counter

    def connection_row(self) -> tuple:
        windows = sum(e.windows_pushed for e in self.subs.values())
        tuples_out = sum(e.tuples_pushed for e in self.subs.values())
        sheds = sum(e.sheds for e in self.subs.values())
        now = self.clock.monotonic()
        return (
            self.session_id, self.peer, self.tenant_name, self.state,
            self.statements,
            self.rows_ingested, len(self.subs), windows, tuples_out,
            sheds, round(now - self.started_monotonic, 3),
            round(now - self.last_seen, 3),
            self.last_seen_wall,
        )

    def session_option_rows(self) -> List[tuple]:
        """Rows merged into a remote ``SHOW all``."""
        return [(name, _render_option(self.options[name]))
                for name in SESSION_OPTIONS]


def _wire_event_time(cq, sink: SessionSink) -> None:
    """If ``cq`` runs event-time semantics, point the sink at its
    stream's watermark (stamped onto every push)."""
    if cq.is_event_time():
        stream = cq.stream
        sink.watermark_fn = lambda: stream.watermark


def _render_option(value) -> str:
    if value is True:
        return "on"
    if value is False or value is None:
        return "off"
    return str(value)
