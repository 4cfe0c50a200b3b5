"""WAL lifecycle: compaction, backup/restore, scrub.

The missing half of the durability story ("Fast Data Management with
Distributed Streaming SQL" makes log truncation plus durable snapshots
the backbone of streaming fault tolerance):

- **compaction** archives sealed segments wholly below the *low-water
  mark* — the minimum of the durable boundary and whatever retention
  hooks (attached standbys) demand — so live WAL bytes stay bounded on
  a long-running server while the archive keeps full replay history.
  No CQ pins the log: a CQ's window state is rebuilt from its active
  table and the stream tail, never from a logged checkpoint;
- **online backup** seals the active segment and copies every sealed +
  archived segment into a destination directory, committed by a final
  ``BACKUP.json`` (a backup without it is incomplete and refused);
- **restore** (:func:`restore_backup`) merges a backup with whatever
  segments survive in the target data dir, optionally truncated at
  ``until_lsn`` (point-in-time), and rewrites a clean segmented WAL
  that ordinary boot recovery replays — CQ windows rebuild exactly as
  promotion does;
- the **scrubber** re-validates every sealed segment's record CRCs and
  walks heap pages; a corrupt *archived* segment is quarantined to the
  dead-letter directory (loudly, via the supervisor), a corrupt live
  segment is reported but left in place (it is part of the replay
  prefix — only a backup can heal it).

Everything here runs on the engine thread; the server schedules
compact/scrub/periodic-backup through its maintenance task the same way
the idle reaper runs.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import List, Optional

from repro.errors import WALError
from repro.storage.segments import (
    SEGMENT_RE,
    _read_segment,
    segment_name,
    verify_segment,
)
from repro.storage.wal import record_from_wire, record_line

#: the file that commits a backup; absent = incomplete, refuse restore
BACKUP_MANIFEST = "BACKUP.json"


class WalLifecycle:
    """Compaction, backup and scrubbing for one database's WAL.

    Created for every database; all operations are no-ops (or typed
    errors, for backup) unless the WAL is segmented.
    """

    def __init__(self, db):
        self.db = db
        #: callables -> Optional[int]: lowest LSN a consumer still needs
        #: live (the replication manager registers attached standbys)
        self.retain_hooks: List = []
        self.compact_runs = 0
        self.segments_archived = 0
        self.last_compact_lsn = 0
        self.backups = 0
        self.last_backup_lsn: Optional[int] = None
        self.last_backup_at: Optional[float] = None
        self.scrubs = 0
        self.last_scrub_at: Optional[float] = None
        self.scrub_errors = 0
        self.segments_quarantined = 0
        self.last_error: Optional[str] = None

    @property
    def wal(self):
        return self.db.storage.wal

    @property
    def enabled(self) -> bool:
        return self.wal.segments is not None

    # -- low-water mark ----------------------------------------------------

    def low_water_lsn(self) -> int:
        """First LSN that must stay in the live WAL.

        Everything strictly below it may be archived: it is durable,
        and no retention hook (attached standby) still needs it shipped
        from memory.
        """
        low = self.wal.durable_lsn + 1
        for hook in self.retain_hooks:
            needed = hook()
            if needed is not None:
                low = min(low, needed)
        return max(1, low)

    # -- compaction --------------------------------------------------------

    def compact(self) -> dict:
        """Archive sealed segments wholly below the low-water mark.

        Engine thread.  Each segment is copied to the archive, renamed
        into place, then deleted from the live directory (the
        ``wal.compact`` crashpoint sits between — a crash there leaves
        the segment in both places and load() reconciles).  The
        matching in-memory records are trimmed afterwards, keeping
        memory and the live directory in lockstep.
        """
        wal = self.wal
        if wal.segments is None:
            return {"enabled": False, "archived": 0}
        low = self.low_water_lsn()
        archived = 0
        for seg in list(wal.segments.sealed_live_segments()):
            if seg.last_lsn is None or seg.last_lsn >= low:
                continue
            wal.segments.archive_segment(seg, self.db.faults)
            archived += 1
        if archived:
            wal.release_archived()
            self.segments_archived += archived
        self.compact_runs += 1
        self.last_compact_lsn = low
        return {"enabled": True, "archived": archived, "low_water": low,
                "live_segments": wal.segments.live_count(),
                "live_bytes": wal.segments.live_bytes()}

    # -- online backup -----------------------------------------------------

    def backup(self, dest: str) -> dict:
        """Copy a consistent snapshot of the log into ``dest``.

        Engine thread, online: flushes, force-seals the active segment
        (so the backup ends on a sealed boundary), then copies every
        sealed live + archived segment.  ``BACKUP.json`` is written
        last — it is the commit point; a crash mid-copy (the
        ``backup.snapshot`` crashpoint) leaves an incomplete directory
        that :func:`restore_backup` refuses.
        """
        wal = self.wal
        if wal.segments is None:
            raise WALError("online backup requires a segmented WAL "
                           "(run the server with --data-dir)")
        wal.flush()
        wal.roll_segment(force=True)
        head = wal.durable_lsn
        wal_dir = os.path.join(dest, "wal")
        os.makedirs(wal_dir, exist_ok=True)
        if self.db.faults is not None and self.db.faults.armed:
            self.db.faults.check("backup.snapshot", dest)
        copied = []
        for seg in wal.segments.segments:
            if seg is wal.segments.active or seg.first_lsn is None:
                continue
            src = wal.segments.path_of(seg)
            dst = os.path.join(wal_dir, segment_name(seg.index))
            shutil.copyfile(src, dst)
            copied.append(seg.manifest_entry())
        manifest = {"head_lsn": head, "taken_at": time.time(),
                    "segment_bytes": wal.segments.segment_bytes,
                    "segments": copied}
        tmp = os.path.join(dest, BACKUP_MANIFEST + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
        os.replace(tmp, os.path.join(dest, BACKUP_MANIFEST))
        self.backups += 1
        self.last_backup_lsn = head
        self.last_backup_at = manifest["taken_at"]
        return {"path": dest, "head_lsn": head, "segments": len(copied)}

    # -- scrubbing ---------------------------------------------------------

    def scrub(self) -> dict:
        """Re-validate sealed segments' CRCs and walk heap pages.

        A corrupt archived segment is moved to the quarantine directory
        and reported as a dead letter: its range becomes unrecoverable
        locally (restore from backup), but the live log — the replay
        prefix — is untouched.  A corrupt sealed *live* segment cannot
        be dropped (replay needs the prefix); it is counted and loudly
        reported instead.
        """
        wal = self.wal
        stats = {"segments_ok": 0, "segments_corrupt": 0,
                 "quarantined": 0, "records": 0,
                 "heap_pages": 0, "heap_rows": 0, "heap_errors": 0}
        if self.db.faults is not None and self.db.faults.armed:
            self.db.faults.check("scrub.verify")
        if wal.segments is not None:
            sealed = (wal.segments.archived_segments()
                      + wal.segments.sealed_live_segments())
            for seg in sealed:
                count, error = verify_segment(wal.segments.path_of(seg))
                stats["records"] += count
                if error is None:
                    stats["segments_ok"] += 1
                    continue
                stats["segments_corrupt"] += 1
                self.scrub_errors += 1
                name = segment_name(seg.index)
                if seg.archived:
                    path = wal.segments.quarantine_segment(seg)
                    self.segments_quarantined += 1
                    stats["quarantined"] += 1
                    detail = (f"archived segment {name} corrupt, "
                              f"quarantined to {path}: {error}")
                else:
                    detail = (f"sealed live segment {name} corrupt "
                              f"(replay prefix — restore from backup): "
                              f"{error}")
                self.last_error = detail
                if self.db.supervisor is not None:
                    self.db.supervisor.quarantine(
                        f"wal:{name}", "scrub", detail, [])
        self._scrub_heap(stats)
        self.scrubs += 1
        self.last_scrub_at = time.time()
        return stats

    def _scrub_heap(self, stats: dict) -> None:
        """Cheap heap integrity pass: every live row version must still
        match its table's schema width and be measurable (the heap has
        no per-page checksums; structural integrity is the contract)."""
        from repro.catalog import catalog as cat
        from repro.storage.page import row_bytes
        pool = self.db.storage.pool
        for name, table in self.db.catalog.relations(cat.TABLE):
            ncols = len(tuple(table.schema))
            heap = table.heap
            for page_no in range(heap.page_count):
                page = pool.fetch(heap, page_no)
                stats["heap_pages"] += 1
                for _slot, version in page.live_versions():
                    values = version.values
                    try:
                        if len(values) != ncols:
                            raise ValueError(
                                f"{len(values)} values, {ncols} columns")
                        row_bytes(values)
                        stats["heap_rows"] += 1
                    except Exception as exc:
                        stats["heap_errors"] += 1
                        self.scrub_errors += 1
                        self.last_error = (
                            f"heap {name} page {page_no}: {exc}")

    # -- introspection -----------------------------------------------------

    def status_row(self) -> tuple:
        """The single row of the ``repro_storage`` system view."""
        wal = self.wal
        if wal.segments is None:
            return ("memory", None, None, None, None, 0,
                    wal.head_lsn, None, None, 0,
                    self.scrubs, self.last_scrub_at, self.scrub_errors, 0)
        segs = wal.segments
        return ("segmented", segs.live_count(), segs.live_bytes(),
                len(segs.archived_segments()), segs.archive_bytes(),
                self.segments_archived, wal.head_lsn,
                self.low_water_lsn(), self.last_backup_lsn, self.backups,
                self.scrubs, self.last_scrub_at, self.scrub_errors,
                self.segments_quarantined)


# ---------------------------------------------------------------------------
# restore / point-in-time recovery
# ---------------------------------------------------------------------------


def restore_backup(backup_dir: str, data_dir: str,
                   until_lsn: Optional[int] = None,
                   wal_dirname: str = "wal",
                   archive_dirname: str = "wal_archive") -> dict:
    """Rebuild ``data_dir``'s WAL from a backup, optionally to a point
    in time.

    Merges three sources — the backup's segments, and whatever live +
    archived segments survive in the target data dir (so records
    written *after* the backup are kept when restoring in place after a
    crash) — deduplicates by LSN, truncates at ``until_lsn`` when
    given, verifies contiguity, and writes a fresh live segment
    directory.  The next :func:`~repro.replication.bootstrap.open_database`
    replays it through ordinary boot recovery, rebuilding tables,
    stream tails and CQ windows exactly as promotion does.
    """
    manifest_path = os.path.join(backup_dir, BACKUP_MANIFEST)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        raise WALError(
            f"{backup_dir!r} is not a complete backup (missing or "
            f"unreadable {BACKUP_MANIFEST}; the backup may have been "
            "interrupted)")

    live_dir = os.path.join(data_dir, wal_dirname)
    archive_dir = os.path.join(data_dir, archive_dirname)
    sources = [os.path.join(backup_dir, "wal"), live_dir, archive_dir]
    by_lsn = {}
    for directory in sources:
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            if not SEGMENT_RE.match(name):
                continue
            wires, _size, _torn = _read_segment(
                os.path.join(directory, name))
            for fields in wires:
                record = record_from_wire(fields)
                if not record.is_valid():
                    continue  # another copy of this LSN may be intact
                if until_lsn is not None and record.lsn > until_lsn:
                    continue
                by_lsn.setdefault(record.lsn, record)
    if not by_lsn:
        raise WALError(f"restore found no valid records in {backup_dir!r}")
    lsns = sorted(by_lsn)
    for prev, nxt in zip(lsns, lsns[1:]):
        if nxt != prev + 1:
            raise WALError(
                f"restore cannot bridge missing lsns {prev + 1}.."
                f"{nxt - 1}: not in the backup, the live WAL or the "
                "archive")

    segment_bytes = int(manifest.get("segment_bytes") or 0) or None
    from repro.storage.segments import DEFAULT_SEGMENT_BYTES
    if segment_bytes is None:
        segment_bytes = DEFAULT_SEGMENT_BYTES

    # wipe the old layout, write sealed segments + an empty active one
    for directory in (live_dir, archive_dir):
        if os.path.isdir(directory):
            shutil.rmtree(directory)
    os.makedirs(live_dir, exist_ok=True)
    index = 1
    written = 0
    fh = open(os.path.join(live_dir, segment_name(index)), "w",
              encoding="utf-8")
    size = 0
    try:
        for lsn in lsns:
            line = record_line(by_lsn[lsn])
            if size and size + len(line) > segment_bytes:
                fh.close()
                index += 1
                fh = open(os.path.join(live_dir, segment_name(index)),
                          "w", encoding="utf-8")
                size = 0
            fh.write(line)
            size += len(line)
            written += 1
    finally:
        fh.close()
    return {"records": written, "head_lsn": lsns[-1],
            "first_lsn": lsns[0], "segments": index,
            "until_lsn": until_lsn,
            "backup_head_lsn": manifest.get("head_lsn")}
