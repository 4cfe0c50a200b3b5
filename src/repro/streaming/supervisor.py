"""CQSupervisor: per-window error isolation and quarantine.

The paper's operational claim is that continuous queries are *always on*
(Sections 3.1, 4): a production stream-relational engine cannot let one
poison tuple, one raising subscriber or one failed archive write take the
pipeline down.  The supervisor is the runtime's answer:

- **Dead-letter quarantine.**  A failing window, correction, early
  result or transform tuple is captured as a :class:`DeadLetter` —
  queryable through the ``repro_dead_letters`` system view and
  republished on a real stream (``repro_dead_letter_stream``) so a CQ
  can watch failures like any other feed.  The affected CQ keeps its
  window state and keeps producing subsequent windows: the engine is
  deterministic, so re-running the same rows through the same plan
  would fail the same way.  Rebuilding a CQ's runtime state is
  recovery's job, at boot and at promotion
  (:mod:`repro.streaming.recovery`).

- **Bounded retry** for channel writes: a transient storage fault (the
  simulated disk hiccuping) is retried at once, up to
  :data:`CHANNEL_RETRY_LIMIT` times, before the record is quarantined.
  Nothing sleeps between attempts: the engine runs on one thread, and a
  pause there would stall every session.  The guard wraps the channel's
  one write, so a final, a retract and a correct are retried alike, and
  a write that keeps failing is the channel's dead letter — never a
  failure of the CQ whose evaluation succeeded.

A CQ is not wrapped: the supervisor sets the CQ's one
``failure_handler``, which its window entry
(:meth:`~repro.streaming.cq.ContinuousQuery.window_entry`) calls after
every window, correction, early result or transform tuple.

Supervision state machine (per supervised entity)::

    RUNNING --failure--> DEGRADED
       ^                     |
       +----next success-----+
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.catalog import catalog as cat
from repro.catalog.schema import Column, Schema
from repro.eventtime.lateness import LATE_EVENT as _LATE_EVENT
from repro.streaming.streams import BaseStream
from repro.types.datatypes import (
    IntegerType,
    TimestampType,
    VarcharType,
)

# supervision states
RUNNING = "running"
DEGRADED = "degraded"

# dead-letter kinds
POISON_WINDOW = "poison-window"
POISON_TUPLE = "poison-tuple"
SUBSCRIBER_ERROR = "subscriber-error"
CHANNEL_WRITE = "channel-write"
SLOW_CONSUMER = "slow-consumer"   # a network subscriber fell behind
#: rows below the watermark, quarantined by a CQ's lateness policy
LATE_EVENT = _LATE_EVENT

#: catalog name of the stream dead letters are republished on
DEAD_LETTER_STREAM = "repro_dead_letter_stream"

#: retries of a failed channel write before its record is quarantined
CHANNEL_RETRY_LIMIT = 3
#: dead letters kept in ``repro_dead_letters``; the oldest go first
DEAD_LETTER_CAPACITY = 10000


@dataclass
class DeadLetter:
    """One quarantined unit of work."""

    seq: int
    source: str          # CQ / stream / channel name
    kind: str            # POISON_WINDOW, SUBSCRIBER_ERROR, ...
    reason: str          # stringified exception
    rows: list           # the quarantined payload
    open_time: Optional[float] = None
    close_time: Optional[float] = None


@dataclass
class _Entry:
    """Supervision record for one CQ, channel or stream."""

    name: str
    kind: str            # 'cq' | 'channel' | 'stream'
    target: object
    state: str = RUNNING
    failures: int = 0
    retries: int = 0
    dead_letters: int = 0
    last_error: Optional[str] = None


class CQSupervisor:
    """Owns the dead-letter log and the supervision wrappers.

    One supervisor per database; the runtime hands it every CQ, channel
    and base stream as they are created (and any that already exist when
    supervision is switched on mid-session).
    """

    def __init__(self, runtime):
        self.runtime = runtime
        self._entries: List[_Entry] = []
        self._by_target = {}
        self.dead_letter_log: List[DeadLetter] = []
        self._dl_seq = 0
        self._dl_stream: Optional[BaseStream] = None
        self._in_dead_letter = False

    # ------------------------------------------------------------------
    # dead letters
    # ------------------------------------------------------------------

    def _dead_letter_schema(self) -> Schema:
        return Schema([
            Column("source", VarcharType(None, "text")),
            Column("kind", VarcharType(None, "text")),
            Column("reason", VarcharType(None, "text")),
            Column("rowcount", IntegerType("bigint")),
            Column("payload", VarcharType(None, "text")),
            Column("qtime", TimestampType(), cqtime="system"),
        ])

    def dead_letter_stream(self) -> BaseStream:
        """The live stream dead letters are republished on (created and
        registered in the catalog on first use)."""
        if self._dl_stream is None:
            stream = BaseStream(DEAD_LETTER_STREAM,
                                self._dead_letter_schema(),
                                disorder_policy="drop")
            # the quarantine sink must never itself take the engine down
            stream.error_handler = lambda row, t, errors: None
            self.runtime.catalog.add_relation(
                DEAD_LETTER_STREAM, cat.STREAM, stream)
            self._dl_stream = stream
        return self._dl_stream

    def quarantine(self, source: str, kind: str, reason: str, rows,
                   open_time: Optional[float] = None,
                   close_time: Optional[float] = None) -> DeadLetter:
        """Record one dead letter and republish it on the dead-letter
        stream.  Re-entrant quarantines (a dead-letter consumer failing)
        are absorbed without recursion."""
        self._dl_seq += 1
        letter = DeadLetter(self._dl_seq, source, kind, reason,
                            list(rows), open_time, close_time)
        self.dead_letter_log.append(letter)
        if len(self.dead_letter_log) > DEAD_LETTER_CAPACITY:
            del self.dead_letter_log[0]
        for entry in self._entries:
            if entry.name == source:
                entry.dead_letters += 1
                break
        if not self._in_dead_letter:
            self._in_dead_letter = True
            try:
                stream = self.dead_letter_stream()
                stream.insert(
                    (source, kind, reason, len(letter.rows),
                     repr(letter.rows)[:2048], None),
                    at=float(self._dl_seq))
            except Exception:
                pass  # quarantine must be unconditionally safe
            finally:
                self._in_dead_letter = False
        return letter

    # ------------------------------------------------------------------
    # adoption
    # ------------------------------------------------------------------

    def adopt_cq(self, cq) -> Optional[_Entry]:
        """Supervise one CQ: a failed window, correction, early result
        or transform tuple is quarantined, and the CQ runs on."""
        if id(cq) in self._by_target:
            return self._by_target[id(cq)]
        entry = _Entry(cq.name, "cq", cq)
        self._register(entry)

        def outcome(exc, kind, rows, open_time, close_time):
            if exc is None:
                if entry.state == DEGRADED:
                    entry.state = RUNNING
                return
            entry.failures += 1
            entry.state = DEGRADED
            entry.last_error = f"{type(exc).__name__}: {exc}"
            self.quarantine(
                entry.name, POISON_TUPLE if kind == "tuple" else POISON_WINDOW,
                entry.last_error, rows, open_time, close_time)

        cq.failure_handler = outcome
        return entry

    def adopt_channel(self, channel) -> _Entry:
        """Supervise one channel: bounded retry, then quarantine of the
        failed batch."""
        if id(channel) in self._by_target:
            return self._by_target[id(channel)]
        entry = _Entry(channel.name, "channel", channel)
        self._register(entry)
        self._guard_channel(entry)
        return entry

    def adopt_stream(self, stream: BaseStream) -> _Entry:
        """Supervise one base stream: subscriber errors during fan-out are
        quarantined per tuple instead of propagating to the inserter, and
        shed tuples are dead-lettered."""
        if id(stream) in self._by_target:
            return self._by_target[id(stream)]
        entry = _Entry(stream.name, "stream", stream)
        self._register(entry)

        def on_errors(row, event_time, errors):
            entry.failures += len(errors)
            entry.state = DEGRADED
            for consumer, exc in errors:
                entry.last_error = f"{type(exc).__name__}: {exc}"
                who = type(consumer).__name__ if consumer is not None \
                    else "injected"
                self.quarantine(
                    stream.name, SUBSCRIBER_ERROR,
                    f"{who}: {exc}",
                    [row] if row is not None else [],
                    open_time=event_time, close_time=event_time)

        stream.error_handler = on_errors
        return entry

    def release(self, target) -> None:
        """Forget a dropped stream, CQ or channel: it leaves
        ``repro_supervisor_status``, and a stream's handlers go back to
        raising into the inserter."""
        entry = self._by_target.pop(id(target), None)
        if entry is not None:
            self._entries.remove(entry)
        if isinstance(target, BaseStream):
            target.error_handler = None

    def _register(self, entry: _Entry) -> None:
        self._entries.append(entry)
        self._by_target[id(entry.target)] = entry

    # ------------------------------------------------------------------
    # channel wrapping
    # ------------------------------------------------------------------

    def _guard_channel(self, entry: _Entry) -> None:
        """Wrap the channel's one write — a final's, a retract's, a
        correct's — in bounded retry, then quarantine."""
        channel = entry.target
        write = channel.write

        def guarded(kind, rows, open_time, close_time):
            for attempt in range(CHANNEL_RETRY_LIMIT + 1):
                try:
                    write(kind, rows, open_time, close_time)
                except Exception as exc:
                    entry.last_error = f"{type(exc).__name__}: {exc}"
                    if attempt == CHANNEL_RETRY_LIMIT:
                        entry.failures += 1
                        entry.state = DEGRADED
                        self.quarantine(
                            entry.name, CHANNEL_WRITE,
                            f"{kind} write gave up after {attempt + 1} "
                            f"attempts: {exc}",
                            rows, open_time, close_time)
                        return
                    entry.retries += 1
                else:
                    if entry.state == DEGRADED:
                        entry.state = RUNNING
                    return
        channel.write = guarded

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def entry_for(self, target) -> Optional[_Entry]:
        return self._by_target.get(id(target))

    def status_rows(self) -> List[tuple]:
        """Rows of the ``repro_supervisor_status`` system view."""
        out = []
        for e in self._entries:
            out.append((
                e.name, e.kind, e.state, e.failures, e.retries,
                e.dead_letters, e.last_error,
            ))
        return out

    def dead_letter_rows(self) -> List[tuple]:
        """Rows of the ``repro_dead_letters`` system view."""
        out = []
        for letter in self.dead_letter_log:
            out.append((
                letter.seq, letter.source, letter.kind, letter.reason,
                len(letter.rows), repr(letter.rows)[:2048],
                letter.open_time, letter.close_time,
            ))
        return out
