"""Crash-consistent boot: rebuild a whole engine from its WAL.

``Database.recover_from_wal`` (PR 0) rebuilt *tables only*.  This module
rebuilds everything a server needs to come back from ``kill -9`` without
manual DDL replay: tables and their rows, base streams and their
retained tails, views and indexes, then — last, so no window fires
against a half-built world — derived streams and channels, with each
CQ's in-flight window realigned to its active table (the paper's
preferred recovery strategy) or its latest checkpoint.

The same phases serve standby promotion: a standby applies everything
*except* the streaming pipeline while it follows the primary, then runs
:func:`apply_streaming_ddl` + :func:`recover_cqs` at promotion time.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.catalog import catalog as cat
from repro.catalog.schema import Schema
from repro.core.database import Database
from repro.errors import WALError
from repro.storage import wal as walrec
from repro.streaming.recovery import recover_cq
from repro.streaming.windows import TimeWindowOperator

#: the single-file WAL of pre-segment data dirs; no longer readable
WAL_FILENAME = "wal.jsonl"
#: the segmented WAL directory inside a ``--data-dir``
WAL_DIRNAME = "wal"
#: where compaction parks sealed segments (still replayed at boot)
WAL_ARCHIVE_DIRNAME = "wal_archive"


def _data_dir_wal_options(data_dir: str, options: dict) -> str:
    """Resolve a data dir to the segmented-WAL layout and default the
    archive option.  Returns the WAL directory path.  A data dir that
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
    if options.get("wal_archive_dir") is None:
        options["wal_archive_dir"] = os.path.join(
            data_dir, WAL_ARCHIVE_DIRNAME)
    return wal_dir


def open_database(data_dir: Optional[str] = None,
                  wal_path: Optional[str] = None, standby: bool = False,
                  **options) -> Database:
    """Open (or create) a database on a data directory.

    When the directory already holds a WAL, the returned database has
    its full runtime state recovered: all objects re-registered, table
    rows reloaded, stream tails rebuilt, and every derived CQ resumed at
    the correct window boundary.  Recovery statistics are left on the
    database as ``db.recovery_stats``.

    A data dir uses the segmented WAL layout (``wal/`` + a
    ``wal_archive/`` sibling); boot recovery replays archive + live
    segments, then archived records are released from memory so a
    long-compacted history costs RAM only during boot.  Passing
    ``wal_path`` names the segment directory directly.

    ``standby=True`` opens the database of a follower: its log is muted
    from the start — it must remain a verbatim prefix of the primary's,
    so shipped records slot in at their original LSNs — and stays muted
    until promotion unmutes it.  A restarted standby recovers tables,
    streams and catalog objects but holds the streaming pipeline DDL
    back, in ``db.recovery_stats["deferred"]``, for the promotion path.
    """
    if data_dir is not None:
        wal_path = _data_dir_wal_options(data_dir, options)
    db = Database(wal_path=wal_path, **options)
    # before any replay: nothing below may author into a follower's log
    db.storage.wal.muted = standby
    if db.storage.wal.records:
        db.recovery_stats = recover_runtime(db, promote=not standby)
    else:
        db.recovery_stats = None
    db.storage.wal.release_archived()
    return db


def recover_runtime(db: Database, promote: bool = True,
                    faults=None) -> dict:
    """Rebuild catalog + runtime state from ``db``'s preloaded WAL.

    With ``promote=False`` (a restarted standby) the streaming pipeline
    DDL is *not* applied; the deferred specs are returned in the stats
    dict under ``"deferred"`` for the standby controller to hold until
    promotion.
    """
    wal = db.storage.wal
    stats = {"tables": 0, "rows": 0, "streams": 0,
             "stream_tuples": 0, "deferred": [], "cqs": []}
    deferred: List[dict] = []
    # replay with the log muted: recovery must not re-log what it is
    # reading from the log
    with wal.mute():
        records = list(wal.durable_records())
        for record in records:
            if record.kind in (walrec.DDL, walrec.DDL_OBJ):
                apply_ddl_record(db, record, deferred)
        for name, rows in wal.replay().items():
            if db.catalog.relation_kind(name) == cat.TABLE:
                db.insert_table(name, rows)
                stats["rows"] += len(rows)
        # idempotent-ingest batch markers: a batch's rows and its
        # stream_dedup marker become durable in one flush, so a rows
        # record tagged with a (sender, seq) rid whose marker never made
        # it is half of a torn batch — discard it; the client's retry of
        # that whole batch will be accepted fresh
        durable_batches = set()
        for record in records:
            if record.kind == walrec.STREAM_DEDUP \
                    and record.rid is not None:
                durable_batches.add(
                    (record.table, tuple(record.rid)))
        for record in records:
            if record.rid is not None and \
                    (record.table, tuple(record.rid)) not in durable_batches:
                points = walrec.stream_points(record)
                if points is not None:
                    stats["torn_batch_rows"] = \
                        stats.get("torn_batch_rows", 0) + len(points)
                    continue
            stats["stream_tuples"] += restore_stream_record(db, record)
        # rebuild the dedup index from durable markers so replays sent
        # to the recovered (or promoted) server are still recognised
        stats["dedup_markers"] = db.admission.dedup.restore_from_wal(wal)
        stats["tables"] = len(list(db.catalog.relations(cat.TABLE)))
        stats["streams"] = len(list(db.catalog.relations(cat.STREAM)))
        if not promote:
            stats["deferred"] = deferred
            return stats
        apply_streaming_ddl(db, deferred)
    # outside the mute: what a recovered CQ emits from here on (tail
    # replay past its last close -> channel -> active table) is new,
    # and is logged
    stats["cqs"] = recover_cqs(db, faults=faults)
    return stats


def restore_stream_record(db: Database, record) -> int:
    """Replay a ``stream_rows`` / ``stream_advance`` record into its
    stream: watermark + retained tail, no consumer fan-out.  Returns the
    rows restored; other records (and dropped streams) restore none."""
    if record.kind == walrec.STREAM_ADVANCE:
        points = [(record.payload, None)]
    else:
        points = walrec.stream_points(record)
    if points is None \
            or db.catalog.relation_kind(record.table) != cat.STREAM:
        return 0
    stream = db.catalog.get_relation(record.table)
    for event_time, row in points:
        stream.restore_point(event_time, row)
    return 0 if record.kind == walrec.STREAM_ADVANCE else len(points)


# ---------------------------------------------------------------------------
# DDL application (idempotent: creates skip existing objects)
# ---------------------------------------------------------------------------


def _has_channel(db: Database, name: str) -> bool:
    return any(n == name for n, _c in db.catalog.channels())


def _has_index(db: Database, name: str) -> bool:
    return any(n == name for n, _i in db.catalog.indexes())


def apply_ddl_record(db: Database, record, deferred: List[dict]) -> None:
    """Apply one ``ddl``/``ddl_obj`` record to the catalog.

    Streaming pipeline objects (derived streams, channels) are pushed
    onto ``deferred`` instead of created: a standby must not run CQs
    until promoted, and boot recovery creates them only once the stream
    tails are back in place.
    """
    if record.kind == walrec.DDL:
        if record.payload is not None \
                and not db.catalog.has_relation(record.table):
            db._register_table(record.table, Schema.from_specs(record.payload))
        return
    payload = record.payload
    if not isinstance(payload, dict):
        return
    op = payload.get("op")
    kind = payload.get("kind")
    name = payload.get("name")
    if op == "drop":
        deferred[:] = [d for d in deferred if d.get("name") != name]
        if kind == "channel" and _has_channel(db, name):
            db.runtime.drop_channel(name)
        elif kind == "stream" and db.catalog.has_relation(name):
            db.runtime.drop_stream(name)
        elif kind == "view" and db.catalog.has_relation(name):
            db.catalog.drop_relation(name, cat.VIEW)
        elif kind == "index" and _has_index(db, name):
            db.execute(f"DROP INDEX {name}")
        return
    if kind == "stream":
        if not db.catalog.has_relation(name):
            stream = db.runtime.create_base_stream(
                name, Schema.from_specs(payload["columns"]),
                retention=payload.get("retention"),
                slack=payload.get("slack") or 0.0,
                watermark_bound=payload.get("watermark_bound"),
                partition_by=payload.get("partition_by"))
            policy = payload.get("disorder_policy")
            if policy:
                stream.disorder_policy = policy
    elif kind == "view":
        if not db.catalog.has_relation(name):
            db.execute(f"CREATE VIEW {name} AS {payload['query']}")
    elif kind == "index":
        if not _has_index(db, name):
            unique = "UNIQUE " if payload.get("unique") else ""
            columns = ", ".join(payload["columns"])
            db.execute(f"CREATE {unique}INDEX {name} "
                       f"ON {payload['table']} ({columns})")
    elif kind in ("derived_stream", "channel"):
        deferred.append(payload)


def apply_streaming_ddl(db: Database, deferred: List[dict]) -> None:
    """Create the deferred derived streams and channels, in log order."""
    for payload in deferred:
        kind, name = payload.get("kind"), payload.get("name")
        if kind == "derived_stream":
            if not db.catalog.has_relation(name):
                db.execute(f"CREATE STREAM {name} AS {payload['query']}")
        elif kind == "channel":
            if not _has_channel(db, name):
                db.execute(
                    f"CREATE CHANNEL {name} FROM {payload['source']} "
                    f"INTO {payload['target']} {payload['mode'].upper()}")


# ---------------------------------------------------------------------------
# CQ runtime-state recovery
# ---------------------------------------------------------------------------


def recover_cqs(db: Database, faults=None) -> List[tuple]:
    """Rebuild in-flight window state for every derived-stream CQ.

    Strategy per CQ: :func:`~repro.streaming.recovery.recover_cq`'s
    ladder, the active table being the one the CQ's archiving channel
    writes.  A failure (including the ``server.boot_recovery``
    crashpoint) quarantines the CQ as a dead letter when supervision is
    on — one unrecoverable CQ must not keep the server down — and falls
    back to a cold start.

    Returns ``[(cq_name, strategy), ...]``; failed CQs report
    ``"cold:<error>"``.
    """
    if faults is None:
        faults = db.faults
    from repro.streaming.supervisor import _guess_stime_column
    channels_by_source = {}
    for _name, channel in db.catalog.channels():
        channels_by_source[channel.source.name] = channel
    outcomes = []
    wal = db.storage.wal
    for derived in list(db.runtime._derived_order):
        cq = derived.cq
        op = getattr(cq, "_window_op", None)
        if not isinstance(op, TimeWindowOperator):
            outcomes.append((cq.name, "cold"))
            continue
        try:
            if faults is not None:
                faults.check("server.boot_recovery", cq.name)
            channel = channels_by_source.get(derived.name)
            table = channel.table if channel is not None else None
            stime = _guess_stime_column(table) if table is not None else None
            outcomes.append((cq.name, recover_cq(
                cq, wal, table, stime, db.txn_manager)))
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
    channel = None
    for _name, candidate in db.catalog.channels():
        if candidate.source is derived and candidate.mode == "append":
            channel = candidate
            break
    cq = derived.cq
    op = getattr(cq, "_window_op", None)
    if channel is None or not isinstance(op, TimeWindowOperator):
        if derived.retention is not None:
            return derived.replay_windows(since)
        return []
    from repro.streaming.supervisor import _guess_stime_column
    stime = _guess_stime_column(channel.table)
    if stime is None:
        return []
    position = channel.table.schema.index_of(stime)
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
