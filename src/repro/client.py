"""A synchronous TruSQL client with automatic failover.

The blocking counterpart of :mod:`repro.server`: one TCP connection,
the length-prefixed frame protocol, and an API that mirrors the
embedded :class:`~repro.core.database.Database` so code moves between
embedded and client/server mode with minimal edits::

    import repro.client

    with repro.client.connect("127.0.0.1", 5433) as conn:
        conn.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        sub = conn.subscribe("totals")
        conn.ingest("s", [(7, 5.0)])
        conn.advance(60.0)
        for window in sub.poll(timeout=2.0):
            print(window.close_time, window.rows)

Window/tuple pushes arrive whenever the socket is read; the connection
routes them to their :class:`RemoteSubscription` while it waits for
request responses, so a second subscription never blocks the first.

**Failover.** Give the connection ``failover_targets`` (or ``SET
failover_targets = 'host:port,...'``) and a dropped socket triggers
reconnection — to the original server first, then each target in turn,
with exponential backoff capped at ``reconnect_max_backoff`` — until a
server answering ``role: primary`` is found (a standby mid-promotion is
retried, not accepted).  Named subscriptions made with
:meth:`Connection.subscribe` are *resumable*: each tracks the last
window close (or tuple time) it delivered, and re-subscribes with
``since=`` so the promoted primary replays exactly the missed windows —
no gap, and a close-time guard drops any overlap, so no duplicate.
Ad-hoc CQ subscriptions (from ``execute``) cannot be resumed and are
closed with reason ``failover``.
"""

from __future__ import annotations

import random
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import rowblock
from repro.clock import SYSTEM_CLOCK
from repro.core.results import ResultSet, WindowResult
from repro.errors import (
    AdmissionError,
    ConnectionTimeoutError,
    ProtocolError,
    RemoteError,
    ReplicationGapError,
    RowBlockError,
)
from repro.server.protocol import FrameDecoder, encode_frame

#: SET/SHOW options the client handles locally, never sent to a server
CLIENT_OPTIONS = ("failover_targets", "reconnect_max_backoff")


def connect(host: str = "127.0.0.1", port: int = 5433,
            timeout: float = 10.0,
            connect_timeout: Optional[float] = None,
            failover_targets=None,
            reconnect_max_backoff: float = 5.0,
            tenant: Optional[str] = None,
            clock=None) -> "Connection":
    """Open a client connection and perform the hello handshake.

    ``tenant`` binds the session to a named admission-control tenant
    (quotas, rate limits and fair scheduling are per tenant); ``clock``
    injects a :class:`~repro.clock.Clock` so tests drive retry backoff
    and failover waits with a ManualClock instead of sleeping.
    """
    return Connection(host, port, timeout,
                      connect_timeout=connect_timeout,
                      failover_targets=failover_targets,
                      reconnect_max_backoff=reconnect_max_backoff,
                      tenant=tenant, clock=clock)


class IngestAck(int):
    """The counted ingest acknowledgement.

    Compares and arithmetics as ``accepted`` (so existing callers doing
    ``conn.ingest(...) == n`` keep working) while carrying the full
    accounting: ``accepted + shed + dropped + duplicate`` covers every
    row of the batch.
    """

    def __new__(cls, accepted: int, shed: int = 0, dropped: int = 0,
                duplicate: int = 0, watermark: Optional[float] = None):
        self = super().__new__(cls, accepted)
        self.accepted = int(accepted)
        self.shed = int(shed)
        self.dropped = int(dropped)
        self.duplicate = int(duplicate)
        #: event-time streams ack their watermark after the batch;
        #: None for arrival-time streams
        self.watermark = watermark
        return self

    def __repr__(self):
        wm = (f", watermark={self.watermark}"
              if self.watermark is not None else "")
        return (f"IngestAck(accepted={self.accepted}, shed={self.shed}, "
                f"dropped={self.dropped}, duplicate={self.duplicate}{wm})")


def _parse_targets(value) -> List[Tuple[str, int]]:
    """Accept ``[(host, port), ...]``, ``["host:port", ...]``, or a
    comma-separated string."""
    if value is None:
        return []
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    out = []
    for item in value:
        if isinstance(item, (tuple, list)) and len(item) == 2:
            out.append((str(item[0]), int(item[1])))
            continue
        host, _, port = str(item).rpartition(":")
        if not host or not port.isdigit():
            raise ProtocolError(
                f"failover target must be HOST:PORT, got {item!r}")
        out.append((host, int(port)))
    return out


@dataclass
class ReplayedTuple:
    """One tuple pushed for a base-stream subscription."""

    time: float
    row: tuple
    replayed: bool = False


class RemoteSubscription:
    """A handle on a server-side subscription.

    Mirrors :class:`~repro.core.results.Subscription`: window results
    accumulate as the server pushes them; :meth:`poll` drains.  Base-
    stream subscriptions receive per-tuple pushes instead — drain those
    with :meth:`tuples`.
    """

    def __init__(self, connection: "Connection", sub_id: int, name: str,
                 columns, kind: str, since: Optional[float] = None):
        self._connection = connection
        self.sub = sub_id
        self.name = name
        self.columns = list(columns)
        self.kind = kind              # 'stream' | 'derived' | 'cq' | 'query'
        self.closed = False
        self.close_reason: Optional[str] = None
        self.sheds = 0
        #: the user's original ``since=`` (inclusive) — resume fallback
        #: when nothing has been delivered yet.
        self._since = since
        #: resume cursor: last delivered window close / tuple time.
        #: Survives failover — the re-subscribe sends it as ``since=``
        #: and anything at or before it is dropped as a duplicate.
        self.last_close: Optional[float] = None
        self.last_time: Optional[float] = None
        #: last push sequence number seen (per-subscription, assigned by
        #: the server); a replayed or re-ordered frame arrives with a
        #: smaller-or-equal seq and is dropped.  Reset on failover — the
        #: new primary numbers from 1 again.
        self.last_seq: Optional[int] = None
        #: (open, close) of a retraction awaiting its paired correction.
        #: Event-time retract/correct records must arrive adjacently and
        #: in order; anything else after a failover replay would apply
        #: corrections against the wrong state.
        self._pending_retract: Optional[tuple] = None
        self._windows = deque()
        self._tuples = deque()

    @property
    def resumable(self) -> bool:
        """Named subscriptions resume across failover; ad-hoc CQs from
        ``execute`` don't (their CQ died with the old server)."""
        return self.kind in ("stream", "derived", "cq")

    # -- push routing (called by the connection) ---------------------------

    def _on_push(self, frame: dict) -> None:
        kind = frame.get("push")
        if kind == "window":
            seq = frame.get("seq")
            if seq is not None and self.last_seq is not None:
                if seq <= self.last_seq:
                    return  # re-delivered frame (resume overlap)
                if seq > self.last_seq + 1:
                    # frames were shed between these two: any half-open
                    # retraction pair can no longer be trusted
                    self._pending_retract = None
            if seq is not None:
                self.last_seq = seq
            close = frame["close"]
            record_kind = frame.get("kind", "window")
            if record_kind == "window":
                if self.last_close is not None \
                        and close <= self.last_close + 1e-9:
                    return  # duplicate from a resume overlap
                if self._pending_retract is not None:
                    raise ProtocolError(
                        f"subscription {self.name!r}: retraction of "
                        f"window {self._pending_retract} was not followed "
                        "by its correction (out-of-order delivery)")
                self.last_close = close
            elif record_kind == "retract":
                if self._pending_retract is not None:
                    raise ProtocolError(
                        f"subscription {self.name!r}: retraction of "
                        f"window {self._pending_retract} was not followed "
                        "by its correction (out-of-order delivery)")
                self._pending_retract = (frame["open"], close)
            elif record_kind == "correct":
                pending = self._pending_retract
                if pending is not None \
                        and pending != (frame["open"], close):
                    raise ProtocolError(
                        f"subscription {self.name!r}: correction for "
                        f"window ({frame['open']}, {close}) arrived while "
                        f"retraction of {pending} was pending")
                self._pending_retract = None
            # corrections and early output never advance last_close:
            # the resume cursor tracks *final* windows only, so a
            # failover replay re-derives state from finals
            self._windows.append(WindowResult(
                [tuple(row) for row in frame["rows"]],
                frame["open"], close, kind=record_kind,
                watermark=frame.get("watermark")))
        elif kind == "tuple":
            when = frame["time"]
            if frame.get("replayed") and self.last_time is not None \
                    and when <= self.last_time:
                return  # already delivered before the failover
            if self.last_time is None or when > self.last_time:
                self.last_time = when
            self._tuples.append(ReplayedTuple(
                when, tuple(frame["row"]), bool(frame.get("replayed"))))
        elif kind == "shed":
            self.sheds += frame.get("count", 0)
        elif kind == "sub_closed":
            self.closed = True
            self.close_reason = frame.get("reason")

    # -- draining ----------------------------------------------------------

    def poll(self, timeout: float = 0.0) -> List[WindowResult]:
        """Drain windows pushed since the last poll, reading the socket
        for up to ``timeout`` seconds while none are pending."""
        self._connection._pump_until(
            lambda: self._windows or self.closed, timeout)
        drained = list(self._windows)
        self._windows.clear()
        return drained

    def tuples(self, timeout: float = 0.0) -> List[ReplayedTuple]:
        """Drain tuple pushes (base-stream subscriptions)."""
        self._connection._pump_until(
            lambda: self._tuples or self.closed, timeout)
        drained = list(self._tuples)
        self._tuples.clear()
        return drained

    def wait_windows(self, count: int = 1,
                     timeout: float = 5.0) -> List[WindowResult]:
        """Block until ``count`` windows arrived (or raise on timeout)."""
        self._connection._pump_until(
            lambda: len(self._windows) >= count or self.closed, timeout)
        if len(self._windows) < count and not self.closed:
            raise TimeoutError(
                f"subscription {self.name!r}: {len(self._windows)} of "
                f"{count} windows after {timeout}s")
        drained = list(self._windows)
        self._windows.clear()
        return drained

    def unsubscribe(self) -> None:
        if not self.closed:
            self._connection._request("unsubscribe", sub=self.sub)
            self.closed = True
            self.close_reason = "unsubscribed"

    def __repr__(self):
        state = "closed" if self.closed else "open"
        return (f"RemoteSubscription({self.name}, {state}, "
                f"{len(self._windows)} windows pending)")


class Connection:
    """One synchronous client connection to a TruSQL server."""

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 connect_timeout: Optional[float] = None,
                 failover_targets=None,
                 reconnect_max_backoff: float = 5.0,
                 tenant: Optional[str] = None,
                 clock=None):
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.failover_targets = _parse_targets(failover_targets)
        self.reconnect_max_backoff = float(reconnect_max_backoff)
        self.tenant = tenant
        self._clock = clock if clock is not None else SYSTEM_CLOCK
        self.failovers = 0
        self.role: Optional[str] = None
        self._address = (host, port)
        self._rng = random.Random()
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        self._request_counter = 0
        self._responses = {}
        self._subs = {}
        self._orphans = {}   # pushes for a sub id not registered yet
        self.closed = True
        self.server_goodbye: Optional[str] = None
        self._connect_to(host, port)

    # ------------------------------------------------------------------
    # connection establishment / failover
    # ------------------------------------------------------------------

    def _connect_to(self, host: str, port: int) -> None:
        """Dial and handshake; on *any* failure the socket is closed
        before the error propagates (no descriptor leak)."""
        deadline = (self.connect_timeout if self.connect_timeout is not None
                    else self.timeout)
        try:
            sock = socket.create_connection((host, port), timeout=deadline)
        except socket.timeout:
            raise ConnectionTimeoutError(
                f"connect to {host}:{port} timed out after {deadline}s",
                host=host, port=port) from None
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._decoder = FrameDecoder()
            self._responses = {}
            self.server_goodbye = None
            self.closed = False
            self._address = (host, port)
            hello_fields = {"client": "repro.client"}
            if self.tenant is not None:
                hello_fields["tenant"] = self.tenant
            hello = self._request("hello", **hello_fields)
        except BaseException:
            self.closed = True
            self._sock = None
            try:
                sock.close()
            except OSError:
                pass
            raise
        self.session_id = hello.get("session")
        self.protocol_version = hello.get("protocol")
        self.role = hello.get("role", "primary")
        self.tenant = hello.get("tenant", self.tenant)

    def _failover(self) -> None:
        """Reconnect to the first target answering as a *primary*, then
        resume every named subscription from its cursor."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self.closed = True
        candidates = [self._address] + [
            t for t in self.failover_targets if t != self._address]
        overall = self._clock.monotonic() + max(self.timeout, 10.0)
        backoff = 0.1
        last_error: Optional[Exception] = None
        while self._clock.monotonic() < overall:
            for host, port in candidates:
                try:
                    self._connect_to(host, port)
                except (ConnectionError, ConnectionTimeoutError,
                        ProtocolError, OSError) as exc:
                    last_error = exc
                    continue
                if self.role != "primary":
                    # a standby mid-promotion: close, give it time
                    last_error = ProtocolError(
                        f"{host}:{port} is a {self.role}, not a primary")
                    self.close()
                    self.closed = True
                    continue
                self.failovers += 1
                self._resume_subscriptions()
                return
            self._clock.sleep(backoff * (1.0 + self._rng.random() * 0.25))
            backoff = min(backoff * 2, self.reconnect_max_backoff)
        raise ConnectionError(
            f"failover exhausted: no primary among "
            f"{['%s:%s' % c for c in candidates]} ({last_error})")

    def _resume_subscriptions(self) -> None:
        """Re-attach surviving subscriptions on the new primary."""
        old_subs = list(self._subs.values())
        self._subs = {}
        self._orphans = {}
        for sub in old_subs:
            if sub.closed:
                continue
            if not sub.resumable:
                sub.closed = True
                sub.close_reason = "failover"
                continue
            cursor = (sub.last_time if sub.kind == "stream"
                      else sub.last_close)
            since = cursor if cursor is not None else sub._since
            fields = {"name": sub.name}
            if since is not None:
                fields["since"] = since
            response = self._request("subscribe", **fields)
            sub.sub = response["subscription"]["sub"]
            # new server, new per-subscription sequence space; any
            # half-open retraction pair died with the old primary
            sub.last_seq = None
            sub._pending_retract = None
            self._subs[sub.sub] = sub
            for frame in self._orphans.pop(sub.sub, []):
                sub._on_push(frame)

    # ------------------------------------------------------------------
    # Database-shaped API
    # ------------------------------------------------------------------

    def execute(self, sql: str, params=None):
        """Run one TruSQL statement remotely.

        Returns a :class:`ResultSet` for snapshot queries/DML/DDL, or a
        :class:`RemoteSubscription` when the statement is a continuous
        query.  Engine errors raise :class:`RemoteError` carrying the
        server-side exception type name.
        """
        local = self._try_client_option(sql)
        if local is not None:
            return local
        fields = {"sql": sql}
        if params is not None:
            fields["params"] = list(params)
        response = self._request("execute", **fields)
        return self._materialize(response)

    def _try_client_option(self, sql: str) -> Optional[ResultSet]:
        """SET/SHOW of a *client* option (failover_targets,
        reconnect_max_backoff) never touches the server; anything not
        starting with one of those words goes there unparsed."""
        from repro.sql import ast, first_word, parse_statement
        if first_word(sql) not in ("SET", "SHOW"):
            return None
        try:
            statement = parse_statement(sql)
        except Exception:
            return None
        if isinstance(statement, ast.SetOption) \
                and statement.name in CLIENT_OPTIONS:
            if statement.name == "failover_targets":
                self.failover_targets = _parse_targets(statement.value)
            else:
                value = statement.value
                if not isinstance(value, (int, float)) \
                        or value is True or value <= 0:
                    raise ProtocolError(
                        "reconnect_max_backoff takes seconds > 0")
                self.reconnect_max_backoff = float(value)
            return ResultSet([], [], None)
        if isinstance(statement, ast.ShowOption) \
                and statement.name in CLIENT_OPTIONS:
            if statement.name == "failover_targets":
                rendered = ",".join(
                    f"{h}:{p}" for h, p in self.failover_targets) or "off"
            else:
                rendered = str(self.reconnect_max_backoff)
            return ResultSet([statement.name], [(rendered,)], 1)
        return None

    def query(self, sql: str, params=None) -> ResultSet:
        result = self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise RemoteError(
                "query() got a continuous query; use subscribe()",
                "PlanningError")
        return result

    def subscribe(self, name: str,
                  since: Optional[float] = None) -> RemoteSubscription:
        """Attach to a named stream, derived stream or running CQ.

        ``since`` asks for a replay of what the source retained from
        that event time on before live delivery begins (late-subscriber
        catch-up).  The returned subscription is resumable: it survives
        a server failover by re-subscribing from its last delivered
        position.
        """
        fields = {"name": name}
        if since is not None:
            fields["since"] = since
        response = self._request("subscribe", **fields)
        return self._materialize(response, since=since)

    def ingest(self, stream: str, rows,
               at: Optional[float] = None,
               sender: Optional[str] = None,
               seq: Optional[int] = None,
               retry: bool = True,
               watermark: Optional[float] = None) -> IngestAck:
        """Micro-batched bulk ingest: one frame, many rows.

        Returns an :class:`IngestAck` — an int equal to how many rows
        the stream actually accepted, additionally carrying ``shed``,
        ``dropped`` and ``duplicate`` counts.

        ``(sender, seq)`` makes the batch idempotent: the server
        remembers applied sequence numbers per stream+sender, so a
        retry of the same batch — after a lost ack, a crash, or a
        failover — acks ``duplicate`` and applies nothing.

        Throttled requests (a retryable :class:`AdmissionError` carrying
        ``retry_after_ms``) are retried here with the server's hint plus
        jitter, within this connection's ``timeout`` budget; pass
        ``retry=False`` to surface them instead.  Durable quota
        exhaustion (``retry_after_ms`` null) always raises.

        ``watermark`` piggybacks an explicit event-time watermark
        injection on the batch: the source asserts it will send nothing
        earlier.  Event-time streams ack their watermark back on
        :attr:`IngestAck.watermark`.
        """
        fields = {"stream": stream}
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if at is not None:
            fields["at"] = at
        if watermark is not None:
            fields["watermark"] = watermark
        if (sender is None) != (seq is None):
            raise ProtocolError(
                "idempotent ingest needs both sender and seq")
        if sender is not None:
            fields["sender"] = str(sender)
            fields["seq"] = int(seq)
        deadline = self._clock.monotonic() + self.timeout
        while True:
            try:
                response = self._request("ingest", _rows=rows, **fields)
            except AdmissionError as exc:
                if not retry or not exc.retryable:
                    raise
                wait = (exc.retry_after_ms / 1000.0) \
                    * (1.0 + self._rng.random() * 0.25)
                if self._clock.monotonic() + wait > deadline:
                    raise
                self._clock.sleep(wait)
                continue
            return IngestAck(
                response["accepted"], response.get("shed", 0),
                response.get("dropped", 0), response.get("duplicate", 0),
                response.get("watermark"))

    def advance(self, event_time: float) -> None:
        """Heartbeat every stream to ``event_time`` (closes windows)."""
        self._request("advance", time=event_time)

    def flush(self) -> None:
        """End-of-input: force all pending windows out."""
        self._request("flush")

    def ping(self) -> bool:
        self._request("ping")
        return True

    def promote(self, reason: str = "") -> dict:
        """Ask a standby server to promote itself to primary."""
        response = self._request("promote", reason=reason)
        return response.get("promotion", {})

    def backup(self, dest: str) -> dict:
        """Take an online backup into ``dest`` on the *server's*
        filesystem; returns the backup manifest summary."""
        response = self._request("backup", dest=dest)
        return response.get("backup", {})

    def metrics(self) -> dict:
        """Scrape the server's observability surfaces in one round trip.

        Returns ``{view_name: ResultSet}`` for ``repro_metrics``,
        ``repro_cq_stats``, ``repro_operator_stats`` and
        ``repro_traces`` — the same rows a local session would read
        from those system views.
        """
        response = self._request("metrics")
        out = {}
        for name, section in (response.get("metrics") or {}).items():
            out[name] = ResultSet(
                list(section.get("columns", [])),
                [tuple(row) for row in section.get("rows", [])])
        return out

    def shutdown_server(self) -> None:
        """Ask the server to shut down gracefully."""
        self._request("shutdown")

    def close(self) -> None:
        if self.closed:
            return
        try:
            self._request("goodbye", _no_failover=True)
        except (ConnectionError, ProtocolError, OSError):
            pass
        self.closed = True
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # wire mechanics
    # ------------------------------------------------------------------

    def _request(self, op: str, _no_failover: bool = False, _rows=None,
                 **fields) -> dict:
        if self.closed:
            raise ProtocolError("connection is closed")
        try:
            return self._request_once(op, fields, _rows)
        except (ConnectionError, OSError):
            if _no_failover or op == "hello" or not self.failover_targets:
                raise
            self._failover()
            return self._request_once(op, fields, _rows)

    def _request_once(self, op: str, fields: dict, rows=None) -> dict:
        self._request_counter += 1
        request_id = self._request_counter
        frame = {"id": request_id, "op": op}
        frame.update(fields)
        if rows is not None and (self.protocol_version or 1) < 2:
            # the server connected to *now* (it may be a failover target)
            # reads JSON rows only; what a block refuses, this refuses
            try:
                rowblock.check(rows)
            except RowBlockError as exc:
                raise ProtocolError(f"rows cannot be framed: {exc}") from None
            frame["rows"], rows = rows, None
        self._sock.sendall(encode_frame(frame, rows))
        deadline = time.monotonic() + self.timeout
        while request_id not in self._responses:
            if self.closed:
                detail = (f" (server said goodbye: {self.server_goodbye})"
                          if self.server_goodbye else "")
                raise ConnectionError(
                    f"connection lost awaiting {op!r} response{detail}")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolError(
                    f"no response to {op!r} within {self.timeout}s")
            self._read_some(remaining)
        response = self._responses.pop(request_id)
        if not response.get("ok", False):
            error = response.get("error") or {}
            message = error.get("message", "unknown server error")
            if error.get("type") == "AdmissionError":
                # rebuild the typed error so callers can branch on
                # retryable vs durable refusals without string matching
                raise AdmissionError(
                    message,
                    retry_after_ms=error.get("retry_after_ms"),
                    tenant=error.get("tenant", ""),
                    reason=error.get("reason", ""))
            if error.get("type") == "ReplicationGapError":
                # typed so a standby can log / react to the exact
                # missing range instead of parsing the message
                raise ReplicationGapError(
                    message,
                    missing_from=error.get("missing_from", 0),
                    missing_to=error.get("missing_to", 0))
            raise RemoteError(message, error.get("type", "TruvisoError"))
        return response

    def _materialize(self, response: dict, since: Optional[float] = None):
        subscription = response.get("subscription")
        if subscription is not None:
            sub = RemoteSubscription(
                self, subscription["sub"], subscription["name"],
                subscription["columns"], subscription["kind"],
                since=since)
            self._subs[sub.sub] = sub
            for frame in self._orphans.pop(sub.sub, []):
                sub._on_push(frame)
            return sub
        result = response.get("result") or {}
        return ResultSet(
            result.get("columns", []),
            [tuple(row) for row in result.get("rows", [])],
            result.get("rowcount"))

    def _read_some(self, timeout: float) -> bool:
        """Read one chunk off the socket (blocking up to ``timeout``)
        and dispatch whatever frames completed.  Returns False when the
        wait timed out with nothing read."""
        self._sock.settimeout(max(timeout, 0.001))
        try:
            data = self._sock.recv(65536)
        except socket.timeout:
            return False
        except OSError as exc:
            raise ConnectionError(f"socket error: {exc}") from None
        if not data:
            self.closed = True
            if self.server_goodbye is None:
                raise ConnectionError("server closed the connection")
            return False
        for frame in self._decoder.feed(data):
            self._dispatch(frame)
        return True

    def _dispatch(self, frame: dict) -> None:
        if "push" in frame:
            if frame["push"] == "goodbye":
                self.server_goodbye = frame.get("reason", "goodbye")
                return
            sub = self._subs.get(frame.get("sub"))
            if sub is not None:
                sub._on_push(frame)
            else:
                self._orphans.setdefault(
                    frame.get("sub"), []).append(frame)
            return
        if "id" in frame:
            self._responses[frame["id"]] = frame
            return
        raise ProtocolError(f"unroutable frame: {frame!r}")

    def _pump_until(self, ready, timeout: float) -> None:
        """Read pushes until ``ready()`` or the timeout lapses.  A zero
        timeout still drains whatever already sits in the socket.  A
        dead socket triggers failover (when targets are configured) so
        a subscriber blocked in ``poll`` rides through a primary crash.
        """
        deadline = time.monotonic() + timeout
        while True:
            if ready():
                # drain anything else already buffered, without blocking
                try:
                    while not self.closed and self._read_some(0.001):
                        pass
                except ConnectionError:
                    self._maybe_failover()
                return
            if self.closed:
                if not self._maybe_failover():
                    return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if timeout > 0:
                    return
                remaining = 0.001
            try:
                got = self._read_some(min(remaining, 0.25)
                                      if timeout > 0 else remaining)
            except ConnectionError:
                if not self._maybe_failover():
                    return
                got = False
            if timeout <= 0 and not got:
                return

    def _maybe_failover(self) -> bool:
        """Failover from inside the pump; False when not possible."""
        if not self.failover_targets or self.server_goodbye is not None:
            return False
        try:
            self._failover()
            return True
        except (ConnectionError, ProtocolError, OSError):
            return False
