"""The warm standby: follow a primary's WAL, apply it, promote on loss.

Two pieces:

- :class:`WalApplier` — engine-thread state machine that takes shipped
  records, appends them to the standby's own WAL verbatim (same LSNs, so
  the standby log is a byte-prefix of the primary's), and applies their
  effects: table rows through real MVCC transactions, stream tuples and
  watermarks into retained tails, DDL into the catalog.  Streaming
  pipeline DDL (derived streams, channels) is *held* until promotion —
  a standby must not run CQs of its own.

- :class:`StandbyController` — owns the follower thread: connects to
  the primary over the ordinary frame protocol, issues ``replicate``,
  pumps ``wal`` pushes into the applier, acks applied LSNs, heartbeats
  when idle, reconnects with backoff, and promotes either on request
  or after ``miss_limit`` consecutive failed contact attempts.

Poison records (bad CRC on the wire, or the ``replication.apply``
crashpoint) are quarantined through the supervisor as dead letters,
re-stamped, and retained in the log so the standby neither dies nor
loops re-requesting the same LSN forever — bounded divergence, loudly
reported, instead of an outage.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro import client as client_mod
from repro.catalog import catalog as cat
from repro.errors import ReplicationGapError
from repro.storage import wal as walrec
from repro.storage.wal import record_from_wire
from repro.replication.bootstrap import (
    apply_ddl_record,
    apply_streaming_ddl,
    recover_cqs,
    restore_stream_record,
)


class WalGap(Exception):
    """Shipped records skipped an LSN; carries the resume point."""

    def __init__(self, resume_lsn: int):
        super().__init__(f"WAL gap: resume from lsn {resume_lsn}")
        self.resume_lsn = resume_lsn


class WalApplier:
    """Applies shipped WAL records to the standby engine.

    Every method runs on the engine thread (the controller crosses over
    through the server's single-writer executor).  The followed log is
    muted from here on: applying a shipped record's effect (a replayed
    transaction, replayed DDL) authors nothing, `append_replicated` is
    the only way in, and promotion unmutes it.
    """

    def __init__(self, db, faults=None):
        self.db = db
        db.storage.wal.muted = True
        self.faults = faults if faults is not None else db.faults
        self.deferred: List[dict] = []   # streaming DDL held for promotion
        self._pending: Dict[int, list] = {}  # txid -> buffered data records
        self.applied_records = 0
        self.poisoned = 0
        self.last_error: Optional[str] = None

    @property
    def applied_lsn(self) -> int:
        return self.db.storage.wal.head_lsn

    def apply_batches(self, frames: List[dict]) -> int:
        """Apply ``wal`` push frames in order; returns records applied.

        Raises :class:`WalGap` when the shipment skips past the next
        expected LSN (a batch was lost — e.g. the ``replication.ship``
        crashpoint, or a shed under backpressure); the controller
        re-requests from ``gap.resume_lsn``.
        """
        wal = self.db.storage.wal
        applied = 0
        try:
            for frame in frames:
                for fields in frame.get("records", ()):
                    record = record_from_wire(fields)
                    expected = wal.head_lsn + 1
                    if record.lsn < expected:
                        continue        # duplicate (re-ship overlap)
                    if record.lsn > expected:
                        raise WalGap(expected)
                    self._apply_one(record)
                    applied += 1
        finally:
            if applied:
                wal.flush()             # standby durability point
        return applied

    # -- one record --------------------------------------------------------

    def _apply_one(self, record) -> None:
        wal = self.db.storage.wal
        poison = None
        if not record.is_valid():
            poison = (f"checksum mismatch (stored {record.crc}, "
                      f"content {record.content_crc()})")
        elif self.faults is not None and self.faults.armed:
            exc = self.faults.poll("replication.apply",
                                   f"lsn {record.lsn}")
            if exc is not None:
                poison = str(exc)
        if poison is not None:
            self._quarantine(record, poison)
            # re-stamp so the retained log stays loadable on restart;
            # the record's effect is intentionally NOT applied
            record.crc = record.content_crc()
            wal.append_replicated(record)
            return
        wal.append_replicated(record)
        try:
            self._apply_effect(record)
            self.applied_records += 1
        except Exception as exc:        # never kill the apply loop
            self._quarantine(record, f"{type(exc).__name__}: {exc}")

    def _quarantine(self, record, reason: str) -> None:
        self.poisoned += 1
        self.last_error = f"lsn {record.lsn}: {reason}"
        supervisor = self.db.supervisor
        if supervisor is not None:
            supervisor.quarantine(
                f"replication:{record.table or record.kind}",
                "replication_apply", self.last_error,
                [record.after] if record.after is not None else [])

    def _apply_effect(self, record) -> None:
        db = self.db
        kind = record.kind
        if kind in (walrec.DDL, walrec.DDL_OBJ):
            apply_ddl_record(db, record, self.deferred)
        elif kind == walrec.STREAM_DEDUP:
            # keep the standby's dedup index warm: after promotion a
            # client replaying an idempotent batch must still be told
            # "duplicate", not have it applied twice
            if record.rid is not None:
                db.admission.dedup.record(
                    record.table, str(record.rid[0]), int(record.rid[1]))
        elif kind in (walrec.INSERT, walrec.DELETE, walrec.UPDATE):
            self._pending.setdefault(record.txid, []).append(record)
        elif kind == walrec.COMMIT:
            self._commit(record.txid)
        elif kind == walrec.ABORT:
            self._pending.pop(record.txid, None)
        else:
            restore_stream_record(db, record)
        # cq_checkpoint needs no live effect: it is now durable in the
        # standby's log, where promotion-time recovery will find it

    def _commit(self, txid: int) -> None:
        """Replay one primary transaction's data ops atomically (the
        log is muted — these ops are already in it)."""
        ops = self._pending.pop(txid, None)
        if not ops:
            return
        db = self.db
        txn = db.txn_manager.begin()
        try:
            for record in ops:
                table = db.catalog.get_relation(record.table, cat.TABLE)
                if record.kind == walrec.INSERT:
                    table.insert(txn, record.after)
                elif record.kind == walrec.DELETE:
                    self._delete_matching(table, txn, record.before)
                else:  # UPDATE (defensive: engine logs delete+insert)
                    self._delete_matching(table, txn, record.before)
                    table.insert(txn, record.after)
            txn.commit()
        except Exception:
            txn.abort()
            raise

    def _delete_matching(self, table, txn, before) -> None:
        """Delete one visible row matching the primary's before-image.

        The primary's rids don't map onto the standby's heap, so the
        before-image is the join key; one arbitrary match suffices
        because duplicates are interchangeable under MVCC."""
        if before is None:
            return
        target = tuple(before)
        snapshot = self.db.txn_manager.take_snapshot()
        for rid, values in table.scan(snapshot, self.db.txn_manager,
                                      own_txid=txn.txid):
            if tuple(values) == target:
                version = table.heap.read(table._pool, rid)
                table.delete_version(txn, rid, version)
                return


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
        self.applier = WalApplier(self.db)
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

        Applies the held streaming DDL, then rebuilds every CQ's
        in-flight window from its active table / checkpoint — the same
        path crash-consistent boot uses — and flips the server role so
        it accepts writes (and future standbys of its own).
        """
        if self.promotion_stats is not None:
            return self.promotion_stats
        self._promoted.set()
        self.state = "promoting"
        db = self.db
        # still muted: the held DDL is already in the log
        apply_streaming_ddl(db, self.applier.deferred)
        # promotion = unmute: from here this node authors its own log
        # (what the recovered CQs emit included)
        db.storage.wal.muted = False
        cqs = recover_cqs(db)
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
