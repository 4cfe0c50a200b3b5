"""The one replayer: every way a WAL record becomes engine state.

:class:`WalApplier` is the only code that turns a ``LogRecord`` into
tables, stream tails, catalog objects and dedup state, through two verbs:

- ``apply(record)`` — one record's effect, incrementally, in log order.
  The log's atomic units wait for the record that completes them: a
  transaction's table ops for its ``commit``, an idempotent batch's
  rid-tagged rows for its ``stream_dedup`` marker; and the pipeline DDL
  (derived streams, channels) is held — while records are still
  arriving nothing here runs a CQ.  A row is placed at its *logged*
  rid, so the rebuilt heap is the logged one: a ``delete`` finds its
  row without a scan, and the rids (and txids — none the log has used
  is issued again) the engine logs after a restart mean the same thing
  to the next replay;
- ``promote()`` — stop following, start serving: what still waits is
  discarded (the paper's Section 4: in-flight work is "deemed
  aborted"), the held pipeline DDL is applied, every CQ's in-flight
  window is rebuilt (:func:`recover_cqs`, which runs nowhere else: a
  live CQ is never rebuilt).  A discarded batch (rows
  durable, marker lost: the client will retry it) is *aborted on
  record* with one ``stream_abort`` tombstone — or the retry's marker
  would vouch for the torn rows too at the next replay — so every later
  replayer reads *rows · abort · retried rows · marker* and keeps only
  the retry.  (Truncating cannot work: a torn batch need not be the
  log's tail.  An older binary ignores the record.)

Everything that replays a log calls those two, and :func:`open_database`
is the one way to put an engine on a log: it builds the engine, applies
the log's durable records, promotes — unless it opens a standby — and
releases the archived records.  Boot is a standby of its own log; a
restarted standby is not promoted, and the
:class:`~repro.replication.standby.StandbyController` goes on feeding
the *same* applier (``db.applier``: what it held at the restart it
holds still) until ``promote_on_engine`` calls the same ``promote()``.
An applier never authors: it mutes its engine's log (``wal.muted``)
when it is made, and ``promote()`` is the one unmute.  ``apply_batches``
is the follower's transport around ``apply`` — LSN order,
``append_replicated``, poison quarantine — and takes nothing once
promoted.  docs/REPLICATION.md has the long form.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.catalog import catalog as cat
from repro.catalog.schema import Schema
from repro.core.database import Database
from repro.errors import WALError
from repro.sql import ast
from repro.storage import wal as walrec
from repro.storage.wal import record_from_wire
from repro.streaming.channels import APPEND, archive_of
from repro.streaming.recovery import recover_cq, replay_tail
from repro.streaming.windows import TimeWindowOperator

#: the single-file WAL of pre-segment data dirs; no longer readable
WAL_FILENAME = "wal.jsonl"
#: the segmented WAL directory inside a ``--data-dir``
WAL_DIRNAME = "wal"


def _data_dir_wal(data_dir: str) -> str:
    """Resolve a data dir to its segment directory (``wal/``; the
    archive defaults to its ``wal_archive/`` sibling).  A data dir that
    holds only a pre-segment ``wal.jsonl`` is refused: booting past it
    would silently start an empty database next to the old log."""
    os.makedirs(data_dir, exist_ok=True)
    wal_dir = os.path.join(data_dir, WAL_DIRNAME)
    legacy = os.path.join(data_dir, WAL_FILENAME)
    if os.path.exists(legacy) and not os.path.isdir(wal_dir):
        raise WALError(
            f"{legacy!r} is a single-file WAL: that layout is no longer "
            f"supported and there is no {WAL_DIRNAME}/ segment directory "
            "beside it (restore the data dir from a backup taken by a "
            "segmented server)")
    return wal_dir


class WalGap(Exception):
    """Shipped records skipped an LSN; carries the resume point."""

    def __init__(self, resume_lsn: int):
        super().__init__(f"WAL gap: resume from lsn {resume_lsn}")
        self.resume_lsn = resume_lsn


class WalApplier:
    """Turns WAL records into engine state (see the module docstring),
    on the engine thread (a standby's controller crosses over through
    the server's single-writer executor)."""

    def __init__(self, db, faults=None):
        self.db = db
        # the one mute: what this applier replays is already on record
        # (in its own log at boot, in the primary's while following)
        db.storage.wal.muted = True
        self.faults = faults if faults is not None else db.faults
        self.deferred: List[dict] = []   # pipeline DDL held for promote()
        self._txns: Dict[int, list] = {}     # txid -> ops awaiting commit
        # (stream, rid) -> points awaiting their marker
        self._batches: Dict[tuple, list] = {}
        self._applied = (None, None)  # last commit: (txid, local txn)
        self._restored: Dict[str, int] = {}  # stream -> rows into its tail
        self.dedup_markers = 0
        self.torn_batch_rows = 0
        self.promoted = False
        self.poisoned = 0
        self.last_error: Optional[str] = None

    @property
    def applied_lsn(self) -> int:
        return self.db.storage.wal.head_lsn

    @property
    def stream_tuples(self) -> int:
        """Rows restored into the tails of streams that still exist."""
        return sum(self._restored.values())

    # -- the follower's transport ------------------------------------------

    def apply_batches(self, frames: List[dict]) -> int:
        """Apply ``wal`` push frames in order; returns records applied.
        A shipped record's effect authors nothing — the log is muted
        until :meth:`promote` — and ``append_replicated`` is the only way
        in.  Once promoted this node authors its own log: a frame the old
        primary still got out is dropped whole.

        Raises :class:`WalGap` when the shipment skips past the next
        expected LSN (a batch was lost — e.g. the ``replication.ship``
        crashpoint, or a shed under backpressure); the controller
        re-requests from ``gap.resume_lsn``.
        """
        if self.promoted:
            return 0
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
                self.trim_tails()
        return applied

    def trim_tails(self) -> None:
        """Cut every stream's tail back to its ``retention``.  ``apply``
        keeps every row the log held — a booting node rebuilds its open
        windows from them — so whoever is done with them trims: a
        follower after each shipment, ``promote()`` after the CQs have
        recovered."""
        for _name, stream in self.db.catalog.relations(cat.STREAM):
            stream.trim_tail()

    def _apply_one(self, record) -> None:
        """Adopt one shipped record, then apply it.  A poison record (bad
        CRC on the wire, or the ``replication.apply`` crashpoint) is
        quarantined through the supervisor as a dead letter, re-stamped
        and retained in the log, so the standby neither dies nor loops
        re-requesting the same LSN forever — bounded divergence, loudly
        reported, instead of an outage."""
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
            self.apply(record)
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

    # -- apply: one record's effect ------------------------------------------

    def apply(self, record) -> None:
        db, kind = self.db, record.kind
        if record.txid:
            db.txn_manager.skip_past(record.txid)
        if kind in (walrec.INSERT, walrec.DELETE, walrec.UPDATE):
            self._txns.setdefault(record.txid, []).append(record)
        elif kind == walrec.COMMIT:
            self._commit(record.txid)
        elif kind == walrec.ABORT:
            self._txns.pop(record.txid, None)
            if self._applied[0] == record.txid:
                # the abort on record wins over the commit before it (a
                # commit whose flush failed): take the transaction back
                db.txn_manager.revoke(self._applied[1])
                self._applied = (None, None)
        elif kind == walrec.DDL:
            if record.payload is not None \
                    and not db.catalog.has_relation(record.table):
                db._register_table(record.table,
                                   Schema.from_specs(record.payload))
        elif kind == walrec.DDL_OBJ:
            if isinstance(record.payload, dict):
                self._apply_ddl(record.payload)
        elif kind in (walrec.STREAM_DEDUP, walrec.STREAM_ABORT) \
                and record.rid is not None:
            rid = tuple(record.rid)
            points = self._batches.pop((record.table, rid), ())
            if kind == walrec.STREAM_DEDUP:
                # the marker vouches for the rows held under its rid, and
                # keeps the dedup index warm: a replay of this batch sent
                # to the recovered (or promoted) node is a duplicate
                self._restore(record.table, points)
                db.admission.dedup.record(record.table, str(rid[0]),
                                          int(rid[1]))
                self.dedup_markers += 1
        elif kind == walrec.STREAM_ADVANCE:
            self._restore(record.table, [(record.payload, None)],
                          counted=False)
        else:
            # a stream record — or a kind this build does not read (a
            # legacy ``cq_checkpoint``, one from the future): no points
            points = walrec.stream_points(record)
            if points is None:
                return
            if record.rid is None:
                self._restore(record.table, points)
            else:
                self._batches.setdefault(
                    (record.table, tuple(record.rid)), []).extend(points)

    def _restore(self, name: str, points, counted: bool = True) -> None:
        """Points into a stream: watermark + retained tail, no consumer
        fan-out (a dropped stream takes none)."""
        if self.db.catalog.relation_kind(name) != cat.STREAM:
            return
        stream = self.db.catalog.get_relation(name)
        for event_time, row in points:
            stream.restore_point(event_time, row)
        if counted:
            self._restored[name] = self._restored.get(name, 0) + len(points)

    def _commit(self, txid: int) -> None:
        """Replay one logged transaction's table ops atomically."""
        ops = self._txns.pop(txid, None)
        if not ops:
            return
        db = self.db
        txn = db.txn_manager.begin()
        try:
            for record in ops:
                if db.catalog.relation_kind(record.table) != cat.TABLE:
                    continue    # dropped by a log that did not say so
                table = db.catalog.get_relation(record.table)
                if record.kind == walrec.DELETE:
                    version = table.heap.read(table._pool, record.rid)
                    if version is not None and version.xmax is None:
                        table.delete_version(txn, record.rid, version)
                else:
                    # INSERT — or UPDATE, which no writer emits (the
                    # engine logs delete + insert): the row at rid is
                    # replaced, as `WriteAheadLog.replay` folds it
                    table.insert(txn, record.after, record.rid)
            txn.commit()
        except Exception:
            if txn.is_active():
                txn.abort()
            raise
        self._applied = (txid, txn)

    def _apply_ddl(self, payload: dict) -> None:
        """One ``ddl_obj`` spec into the catalog, idempotently; pipeline
        objects are held for :meth:`promote`."""
        db = self.db
        kind, name = payload.get("kind"), payload.get("name")
        if payload.get("op") == "drop":
            self.deferred = [d for d in self.deferred
                             if d.get("name") != name]
            if kind == "stream":
                # its rows are gone with it; what still waited for a
                # marker was torn (no marker can come: the sender's
                # sequence restarts with the stream)
                self._restored.pop(name, None)
                for key in [k for k in self._batches if k[0] == name]:
                    self.torn_batch_rows += len(self._batches.pop(key))
            db._drop(ast.Drop(kind, name, if_exists=True))
        elif kind in ("derived_stream", "channel"):
            self.deferred.append(payload)
        elif kind == "stream":
            if not db.catalog.has_relation(name):
                stream = db.runtime.create_base_stream(
                    name, Schema.from_specs(payload["columns"]),
                    retention=payload.get("retention"),
                    watermark_bound=payload.get("watermark_bound"),
                    partition_by=payload.get("partition_by"))
                policy = payload.get("disorder_policy")
                if policy:
                    stream.disorder_policy = policy
        elif kind == "view":
            if not db.catalog.has_relation(name):
                db.execute(f"CREATE VIEW {name} AS {payload['query']}")
        elif kind == "index":
            if not db.catalog.has_index(name):
                unique = "UNIQUE " if payload.get("unique") else ""
                columns = ", ".join(payload["columns"])
                db.execute(f"CREATE {unique}INDEX {name} "
                           f"ON {payload['table']} ({columns})")

    # -- promote: stop following, start serving -------------------------------

    def promote(self) -> List[tuple]:
        """Discard what still waits, apply the held pipeline DDL, rebuild
        every CQ's in-flight window (returns :func:`recover_cqs`'
        outcomes).  Promotion *is* the unmute, and it happens here, after
        the held DDL — the log it was replayed from already holds it —
        and before the tombstones and what the CQs emit, which are
        logged."""
        db = self.db
        wal = db.storage.wal
        self.promoted = True
        self._txns.clear()
        self._applied = (None, None)
        torn, self._batches = self._batches, {}
        deferred, self.deferred = self.deferred, []
        for payload in deferred:        # in log order
            kind, name = payload.get("kind"), payload.get("name")
            if kind == "derived_stream":
                if not db.catalog.has_relation(name):
                    db.execute(f"CREATE STREAM {name} AS {payload['query']}")
            elif not db.catalog.has_channel(name):
                db.execute(
                    f"CREATE CHANNEL {name} FROM {payload['source']} "
                    f"INTO {payload['target']} {payload['mode'].upper()}")
        wal.muted = False
        for (stream, rid), points in torn.items():
            self.torn_batch_rows += len(points)
            if db.runtime.stream_logger is not None:
                wal.append(0, walrec.STREAM_ABORT, stream, rid=rid)
        outcomes = db.recovery_stats["cqs"] = recover_cqs(db, self.faults)
        self.trim_tails()
        return outcomes


def open_database(data_dir: Optional[str] = None,
                  wal_path: Optional[str] = None, standby: bool = False,
                  **options) -> Database:
    """Open (or create) a database — the one way to put an engine on a
    log.  Build the engine, replay the log's durable records through a
    :class:`WalApplier` (left as ``db.applier``), ``promote()`` it unless
    this is a ``standby``, release the archived records from memory; what
    the replay rebuilt is in ``db.recovery_stats``.

    A data dir uses the segmented WAL layout (``wal/`` + a
    ``wal_archive/`` sibling, or ``wal_archive_dir``; segments roll at
    ``wal_segment_bytes``); ``wal_path`` names the segment directory
    directly; with neither, the log is in memory.  The other ``options``
    are :class:`Database`'s.

    ``standby=True`` opens the database of a follower: its log stays
    muted — it must remain a verbatim prefix of the primary's, so
    shipped records slot in at their original LSNs — until promotion.
    A restarted standby is replayed, not promoted: ``db.applier`` still
    holds what it held (see the module docstring).
    """
    segment_bytes = options.pop("wal_segment_bytes", None)
    archive_dir = options.pop("wal_archive_dir", None)
    if data_dir is not None:
        wal_path = _data_dir_wal(data_dir)
    elif wal_path is None and (segment_bytes, archive_dir) != (None, None):
        raise ValueError("wal_segment_bytes and wal_archive_dir need a log "
                         "directory (data_dir or wal_path)")
    db = Database(**options)
    applier = db.applier = WalApplier(db)
    wal = db.storage.wal
    if wal_path is not None:
        wal.open(wal_path, segment_bytes, archive_dir)
        # a log on disk carries streaming DDL and the stream tail too
        db.enable_replication_logging()
    for record in wal.durable_records():
        applier.apply(record)
    snapshot = db.txn_manager.take_snapshot()
    tables = [table for _name, table in db.catalog.relations(cat.TABLE)]
    rows = sum(table.row_count(snapshot, db.txn_manager) for table in tables)
    if standby:
        applier.trim_tails()
        cqs = []
    else:
        cqs = applier.promote()
    db.recovery_stats = {
        "tables": len(tables), "rows": rows,
        "streams": len(list(db.catalog.relations(cat.STREAM))),
        "stream_tuples": applier.stream_tuples,
        "dedup_markers": applier.dedup_markers,
        "deferred": list(applier.deferred), "cqs": cqs}
    if applier.torn_batch_rows:
        db.recovery_stats["torn_batch_rows"] = applier.torn_batch_rows
    wal.release_archived()
    return db


# ---------------------------------------------------------------------------
# CQ runtime-state recovery
# ---------------------------------------------------------------------------


def recover_cqs(db: Database, faults=None) -> List[tuple]:
    """Rebuild in-flight window state for every derived-stream CQ.

    Per CQ: :func:`~repro.streaming.recovery.recover_cq` — the active
    table, else cold — replayed through the CQ's own (supervised, when
    supervision is on) window entries, so a poison window in the tail
    is quarantined as it was live.  A failure (a replay window the tail
    no longer covers, the ``server.boot_recovery`` crashpoint)
    quarantines the CQ as a dead letter when supervision is on — one
    unrecoverable CQ must not keep the server down — and leaves it
    cold; ``repro_supervisor_status`` shows it either way.

    Returns ``[(cq_name, strategy), ...]``; failed CQs report
    ``"cold:<error>"``.  Runs at boot and at promotion only — the one
    place a CQ's window state is rebuilt — which is why an
    ``"empty-archive"`` CQ may be replayed the whole retained tail:
    nobody is subscribed yet to see its windows close twice.
    """
    outcomes = []
    for derived in list(db.runtime._derived_order):
        cq = derived.cq
        try:
            if faults is not None:
                faults.check("server.boot_recovery", cq.name)
            strategy = recover_cq(cq, db.runtime)
            if strategy == "empty-archive":
                # no window ever closed with rows, so the open window's
                # rows are nowhere but the tail: replay all of it (windows
                # are epoch-aligned — the cold grid is the crashed one —
                # and nobody is subscribed yet to see them close again)
                replay_tail(cq, float("-inf"))
            outcomes.append((cq.name, strategy))
        except Exception as exc:
            outcomes.append((cq.name, f"cold:{exc}"))
            if db.supervisor is not None:
                db.supervisor.quarantine(
                    cq.name, "recovery",
                    f"{type(exc).__name__}: {exc}", [])
    return outcomes


# ---------------------------------------------------------------------------
# derived-window replay (resumable subscriptions)
# ---------------------------------------------------------------------------


def replay_derived_windows(db: Database, derived, since: float):
    """Windows of ``derived`` that closed strictly after ``since``.

    Prefers the in-memory window tail; falls back to reconstructing
    windows from the CQ's active table when an APPEND channel archives
    this stream — the fallback is what makes a re-subscription after a
    failover or restart gap-free, because the archive (shipped through
    the WAL) survives where the in-memory tail does not.  Empty windows
    on the grid are reconstructed as empty row lists.
    """
    if derived.retention is not None and derived._window_tail \
            and derived._window_tail[0][1] <= since:
        return derived.replay_windows(since)
    channel = archive_of(derived)
    op = derived.cq._window_op
    if channel is None or channel.mode != APPEND \
            or channel.close_column is None \
            or not isinstance(op, TimeWindowOperator):
        if derived.retention is not None:
            return derived.replay_windows(since)
        return []
    position = channel.table.schema.index_of(channel.close_column)
    snapshot = db.txn_manager.take_snapshot()
    by_close = {}
    last_close = None
    for _rid, values in channel.table.scan(snapshot, db.txn_manager):
        close = values[position]
        if close is None or close <= since:
            continue
        by_close.setdefault(close, []).append(values)
        if last_close is None or close > last_close:
            last_close = close
    if last_close is None:
        return []
    # walk the window grid backwards from the newest archived close so
    # empty windows (archived as nothing) are still replayed as empty
    closes = []
    close = last_close
    while close > since + 1e-9:
        closes.append(close)
        close -= op.advance
    out = []
    for close in sorted(closes):
        out.append((close - op.visible, close, by_close.get(close, [])))
    return out
