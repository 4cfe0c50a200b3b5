"""The warm standby: follow a primary's WAL, promote on loss.

:class:`StandbyController` owns the follower thread: it connects to the
primary over the ordinary frame protocol, issues ``replicate``, pumps
``wal`` pushes into the database's
:class:`~repro.replication.bootstrap.WalApplier` — the one replayer,
left on the database by ``open_database(standby=True)`` (the same
object that replayed this standby's own log if it was restarted) —
acks applied LSNs, heartbeats when idle, reconnects with backoff, and
promotes either on request or after ``miss_limit`` consecutive failed
contact attempts.  Until that applier is promoted this node authors
nothing: shipped records land in the standby's own WAL verbatim (same
LSNs: a byte-prefix of the primary's); poison records are quarantined,
not fatal (see ``apply_batches``).
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import List, Optional

from repro import client as client_mod
from repro.errors import ReplicationGapError
from repro.replication.bootstrap import WalApplier, WalGap


class _WalSink:
    """Client-side push target for ``wal`` frames (quacks like a
    RemoteSubscription as far as Connection._dispatch cares)."""

    def __init__(self):
        self.batches = deque()
        self.closed = False
        self.close_reason = None

    def _on_push(self, frame: dict) -> None:
        kind = frame.get("push")
        if kind == "wal":
            self.batches.append(frame)
        elif kind == "sub_closed":
            self.closed = True
            self.close_reason = frame.get("reason")


class StandbyController:
    """Follows a primary; promotes on request or on missed heartbeats."""

    def __init__(self, server, primary_host: str, primary_port: int,
                 heartbeat_interval: float = 1.0, miss_limit: int = 3,
                 auto_promote: bool = True, connect_timeout: float = 2.0,
                 max_backoff: float = 5.0):
        self.server = server
        self.db = server.db
        self.primary = (primary_host, primary_port)
        self.heartbeat_interval = heartbeat_interval
        self.miss_limit = miss_limit
        self.auto_promote = auto_promote
        self.connect_timeout = connect_timeout
        self.max_backoff = max_backoff
        # the replayer `open_database(standby=True)` left on the database;
        # the log stays a copy of the primary's until it is promoted
        self.applier: WalApplier = self.db.applier
        self.state = "connecting"
        self.head_seen = 0              # primary's head LSN, last we heard
        self.misses = 0
        self.last_error: Optional[str] = None
        self.promotion_stats: Optional[dict] = None
        self._promoted = threading.Event()
        self._stop = threading.Event()
        self._rng = random.Random()
        self._thread = threading.Thread(
            target=self._run, name="repro-standby", daemon=True)
        self.db.replication_registry = self.status_rows
        obs = getattr(self.db, "obs", None)
        if obs is not None:
            obs.bind_replication_standby(self)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)

    @property
    def promoted(self) -> bool:
        return self._promoted.is_set()

    # -- follower loop -----------------------------------------------------

    def _run(self) -> None:
        backoff = 0.2
        while not self._stop.is_set() and not self._promoted.is_set():
            try:
                self._follow_once()
                backoff = 0.2           # left cleanly (stop/promote/gap)
            except Exception as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
                self.misses += 1
                self.state = "reconnecting"
                if (self.misses >= self.miss_limit and self.auto_promote
                        and not self._stop.is_set()):
                    try:
                        self.server.executor.submit(
                            self.promote_on_engine,
                            f"primary unreachable "
                            f"({self.misses} consecutive failures; "
                            f"last: {self.last_error})").result(60.0)
                    except Exception as promote_exc:
                        self.last_error = (
                            f"promotion failed: {promote_exc}")
                        self.state = "failed"
                    return
                self._stop.wait(backoff * (1.0 + self._rng.random() * 0.25))
                backoff = min(backoff * 2, self.max_backoff)
        if self._stop.is_set() and not self._promoted.is_set():
            self.state = "stopped"

    def _follow_once(self) -> None:
        """One connected stint: attach, stream, apply, ack, heartbeat."""
        engine = self.server.executor
        conn = client_mod.Connection(
            self.primary[0], self.primary[1],
            timeout=max(self.heartbeat_interval * 2, self.connect_timeout),
            connect_timeout=self.connect_timeout)
        try:
            from_lsn = engine.submit(
                lambda: self.db.storage.wal.head_lsn).result(30.0) + 1
            try:
                response = conn._request("replicate", from_lsn=from_lsn)
            except ReplicationGapError as gap:
                # the primary compacted past its archive: this standby
                # cannot be caught up incrementally any more.  Surface
                # the exact missing range so the operator knows a
                # re-seed (restore from backup) is required.
                self.state = "gap"
                raise ReplicationGapError(
                    f"primary no longer retains lsns "
                    f"{gap.missing_from}..{gap.missing_to}; "
                    f"re-seed this standby from a backup",
                    missing_from=gap.missing_from,
                    missing_to=gap.missing_to) from None
            sub_id = response["sub"]
            self.head_seen = max(self.head_seen,
                                 response.get("head", 0) or 0)
            sink = _WalSink()
            conn._subs[sub_id] = sink
            for frame in conn._orphans.pop(sub_id, []):
                sink._on_push(frame)
            self.state = "streaming"
            self.misses = 0
            last_contact = time.monotonic()
            while not self._stop.is_set() and not self._promoted.is_set():
                conn._pump_until(lambda: sink.batches or sink.closed, 0.2)
                if sink.closed:
                    raise ConnectionError(
                        f"primary closed replication: {sink.close_reason}")
                if sink.batches:
                    frames = list(sink.batches)
                    sink.batches.clear()
                    for frame in frames:
                        self.head_seen = max(self.head_seen,
                                             frame.get("head", 0) or 0)
                    try:
                        engine.submit(self.applier.apply_batches,
                                      frames).result(60.0)
                    except WalGap as gap:
                        # lost batch: re-attach from the resume point
                        self.last_error = str(gap)
                        return
                    conn._request("replicate_ack", sub=sub_id,
                                  lsn=self.applier.applied_lsn)
                    self.misses = 0
                    last_contact = time.monotonic()
                elif (time.monotonic() - last_contact
                        >= self.heartbeat_interval):
                    conn.ping()         # raises when the primary is gone
                    self.misses = 0
                    last_contact = time.monotonic()
        finally:
            try:
                conn.close()
            except Exception:
                pass

    # -- promotion ---------------------------------------------------------

    def promote_on_engine(self, reason: str = "requested") -> dict:
        """Engine thread: become the primary.  Idempotent.

        The applier's ``promote()`` — the same call crash-consistent
        boot ends with, and the unmute: from there this node authors its
        own log — then the server role flips so it accepts writes (and
        future standbys of its own).
        """
        if self.promotion_stats is not None:
            return self.promotion_stats
        self._promoted.set()
        self.state = "promoting"
        cqs = self.applier.promote()
        self.promotion_stats = {
            "reason": reason, "cqs": cqs,
            "applied_lsn": self.applier.applied_lsn,
            "poisoned": self.applier.poisoned,
        }
        self.state = "primary"
        become = getattr(self.server, "become_primary", None)
        if become is not None:
            become(reason)
        return self.promotion_stats

    # -- introspection -----------------------------------------------------

    def status_rows(self) -> List[tuple]:
        applied = self.applier.applied_lsn
        role = "primary" if self._promoted.is_set() else "standby"
        return [(
            role, f"{self.primary[0]}:{self.primary[1]}", self.state,
            self.head_seen, applied, applied,
            max(0, self.head_seen - applied),
            self.applier.last_error or self.last_error,
        )]
