"""CQSupervisor: per-window error isolation, quarantine and restart.

The paper's operational claim is that continuous queries are *always on*
(Sections 3.1, 4): a production stream-relational engine cannot let one
poison tuple, one raising subscriber or one failed archive write take the
pipeline down.  The supervisor is the runtime's answer:

- **Dead-letter quarantine.**  A failing window, tuple or archive batch
  is captured as a :class:`DeadLetter` — queryable through the
  ``repro_dead_letters`` system view and republished on a real stream
  (``repro_dead_letter_stream``) so a CQ can watch failures like any
  other feed.  The affected CQ keeps producing subsequent windows.

- **Bounded retry with exponential backoff** for channel writes: a
  transient storage fault (the simulated disk hiccuping) is retried up
  to ``policy.channel_retry_limit`` times with delays
  ``backoff_base * backoff_factor^attempt`` before the record is
  quarantined.  The guard wraps the channel's one write, so a final, a
  retract and a correct are retried alike, and a write that keeps
  failing is the channel's dead letter — never a strike on the CQ whose
  evaluation succeeded.

- **Automatic restart** of a CQ that keeps failing: after
  ``policy.restart_limit`` consecutive window failures the supervisor
  rebuilds the CQ *in place* (``ContinuousQuery.build`` on the stopped
  object) and recovers its runtime state through the existing
  :mod:`repro.streaming.recovery` paths — WAL checkpoint when one
  exists, else the paper's rebuild-from-active-table, else a cold start.
  Every holder of the CQ — the runtime registry, a derived stream,
  subscriptions, sessions, checkpoint managers, the partition merge
  stage — keeps the running object; only the new window callbacks are
  guarded again.  After ``policy.max_restarts`` unsuccessful restarts
  the CQ is quarantined (detached) instead of flapping forever.

Supervision state machine (per supervised entity)::

    RUNNING --failure--> DEGRADED --restart_limit--> RESTARTING
       ^                     |                            |
       |<----next success----+            RUNNING <-------+
       |                                       (recovery ok)
       +--- QUARANTINED <--- max_restarts exceeded / restart failed
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.catalog import catalog as cat
from repro.catalog.schema import Column, Schema
from repro.eventtime.lateness import LATE_EVENT as _LATE_EVENT
from repro.streaming.recovery import recover_cq
from repro.streaming.streams import BaseStream
from repro.types.datatypes import (
    IntegerType,
    TimestampType,
    VarcharType,
)

# supervision states
RUNNING = "running"
DEGRADED = "degraded"
RESTARTING = "restarting"
QUARANTINED = "quarantined"

# dead-letter kinds
POISON_WINDOW = "poison-window"
POISON_TUPLE = "poison-tuple"
SUBSCRIBER_ERROR = "subscriber-error"
CHANNEL_WRITE = "channel-write"
LOAD_SHED = "load-shed"
RESTART_LOSS = "restart-loss"
SLOW_CONSUMER = "slow-consumer"   # a network subscriber fell behind
#: rows below the watermark, quarantined by a CQ's lateness policy
LATE_EVENT = _LATE_EVENT

#: catalog name of the stream dead letters are republished on
DEAD_LETTER_STREAM = "repro_dead_letter_stream"


@dataclass
class SupervisorPolicy:
    """Tunables; every field is reachable through ``SET`` session options."""

    channel_retry_limit: int = 3     # retries before a batch is quarantined
    backoff_base: float = 0.01       # seconds; first retry delay
    backoff_factor: float = 2.0      # delay multiplier per retry
    restart_limit: int = 2           # consecutive window failures -> restart
    max_restarts: int = 3            # restarts before quarantine
    dead_letter_capacity: int = 10000


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
    consecutive_failures: int = 0
    restarts: int = 0
    retries: int = 0
    dead_letters: int = 0
    backoff_seconds: float = 0.0
    last_error: Optional[str] = None


class CQSupervisor:
    """Owns the dead-letter log and the supervision wrappers.

    One supervisor per database; the runtime hands it every CQ, channel
    and base stream as they are created (and any that already exist when
    supervision is switched on mid-session).
    """

    def __init__(self, runtime,
                 policy: Optional[SupervisorPolicy] = None,
                 sleep_fn: Optional[Callable[[float], None]] = None):
        self.runtime = runtime
        self.policy = policy if policy is not None else SupervisorPolicy()
        # backoff delays are *accounted* by default rather than slept:
        # the engine is simulated-time driven, and chaos tests should not
        # wall-block.  Pass sleep_fn=time.sleep for real pauses.
        self._sleep_fn = sleep_fn
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
        if len(self.dead_letter_log) > self.policy.dead_letter_capacity:
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
        """Supervise one CQ: window failures are quarantined, repeated
        failures restart it through the recovery paths."""
        if id(cq) in self._by_target:
            return self._by_target[id(cq)]
        entry = _Entry(cq.name, "cq", cq)
        self._register(entry)
        if not cq.window_entries():
            # window-less transform: the stream calls cq.on_tuple per
            # row, and a restart keeps the object, so this is guarded once
            cq.on_tuple = self._guard(
                entry, cq.on_tuple,
                lambda exc, row, event_time: self._cq_failure(
                    entry, [row], event_time, event_time, exc,
                    kind=POISON_TUPLE))
        self._guard_windows(entry)
        return entry

    def adopt_channel(self, channel) -> _Entry:
        """Supervise one channel: bounded retry with exponential backoff,
        then quarantine of the failed batch."""
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

        def on_shed(row, event_time, reason):
            self.quarantine(stream.name, LOAD_SHED, reason, [row],
                            open_time=event_time, close_time=event_time)

        stream.error_handler = on_errors
        stream.shed_handler = on_shed
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
            target.shed_handler = None

    def _register(self, entry: _Entry) -> None:
        self._entries.append(entry)
        self._by_target[id(entry.target)] = entry

    # ------------------------------------------------------------------
    # CQ wrapping and restart
    # ------------------------------------------------------------------

    def _guard(self, entry: _Entry, original, failed):
        """``original`` with a failure handed to ``failed(exc, *args)``
        and a success that ran the CQ's plan clearing the entry's
        strikes: a join side that only buffered its window proves
        nothing about the plan."""
        cq = entry.target

        def guarded(*args):
            runs = cq.plan_runs
            try:
                original(*args)
            except Exception as exc:
                failed(exc, *args)
                return
            if cq.plan_runs != runs:
                entry.consecutive_failures = 0
                if entry.state == DEGRADED:
                    entry.state = RUNNING
        return guarded

    def _guard_windows(self, entry: _Entry) -> None:
        """Guard the window callbacks this life of the CQ built
        (``ContinuousQuery.window_entries``): at adoption, and again
        after every restart, which builds new ones."""
        def window_failed(exc, rows, open_time, close_time):
            self._cq_failure(entry, rows, open_time, close_time, exc)

        for op, callback in entry.target.window_entries():
            setattr(op, callback,
                    self._guard(entry, getattr(op, callback), window_failed))

    def _cq_failure(self, entry: _Entry, rows, open_time, close_time, exc,
                    kind: str = POISON_WINDOW) -> None:
        entry.failures += 1
        entry.consecutive_failures += 1
        entry.state = DEGRADED
        entry.last_error = f"{type(exc).__name__}: {exc}"
        self.quarantine(entry.name, kind, entry.last_error, rows,
                        open_time, close_time)
        if entry.consecutive_failures >= self.policy.restart_limit:
            self._restart_cq(entry)

    def _restart_cq(self, entry: _Entry) -> None:
        """Rebuild a repeatedly-failing CQ in place — stop, build,
        recover through the recovery paths, attach, guard — so every
        holder of the CQ keeps the running one."""
        if entry.restarts >= self.policy.max_restarts:
            self._quarantine_cq(entry, "max_restarts exceeded")
            return
        entry.state = RESTARTING
        entry.restarts += 1
        cq = entry.target
        try:
            cq.stop()
            cq.build()
            try:
                # False when the CQ comes back cold
                recovered = recover_cq(cq, self.runtime,
                                       fall_through=True) != "cold"
            except Exception as exc:
                # replaying the tail re-executed the very failure that
                # forced the restart (a poison window in the replay
                # range); give up on recovery and start cold instead of
                # flapping forever on the same data
                self.quarantine(
                    entry.name, POISON_WINDOW,
                    f"failure replayed during recovery: {exc}", [])
                cq.build()
                recovered = False
            cq.attach()
        except Exception as exc:  # restart itself failed
            self._quarantine_cq(entry, f"restart failed: {exc}")
            return
        if not recovered:
            self.quarantine(
                entry.name, RESTART_LOSS,
                "cold restart: no checkpoint or active table to recover "
                "from; in-flight window state was lost", [])
        entry.consecutive_failures = 0
        entry.state = RUNNING
        self._guard_windows(entry)

    def _quarantine_cq(self, entry: _Entry, reason: str) -> None:
        entry.state = QUARANTINED
        entry.last_error = reason
        try:
            entry.target.stop()
        except Exception:
            pass
        self.quarantine(entry.name, POISON_WINDOW,
                        f"CQ quarantined: {reason}", [])

    # ------------------------------------------------------------------
    # channel wrapping
    # ------------------------------------------------------------------

    def _guard_channel(self, entry: _Entry) -> None:
        """Wrap the channel's one write — a final's, a retract's, a
        correct's — in bounded retry with backoff, then quarantine."""
        channel = entry.target
        write = channel.write
        policy = self.policy

        def guarded(kind, rows, open_time, close_time):
            delay = policy.backoff_base
            for attempt in range(policy.channel_retry_limit + 1):
                try:
                    write(kind, rows, open_time, close_time)
                except Exception as exc:
                    entry.last_error = f"{type(exc).__name__}: {exc}"
                    if attempt == policy.channel_retry_limit:
                        entry.failures += 1
                        entry.state = DEGRADED
                        self.quarantine(
                            entry.name, CHANNEL_WRITE,
                            f"{kind} write gave up after {attempt + 1} "
                            f"attempts: {exc}",
                            rows, open_time, close_time)
                        return
                    entry.retries += 1
                    entry.backoff_seconds += delay
                    if self._sleep_fn is not None:
                        self._sleep_fn(delay)
                    delay *= policy.backoff_factor
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
                e.name, e.kind, e.state, e.failures,
                e.consecutive_failures, e.restarts, e.retries,
                round(e.backoff_seconds, 6), e.dead_letters, e.last_error,
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
