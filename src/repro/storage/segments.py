"""Segment files for the segmented write-ahead log.

A segmented WAL is a directory of fixed-size rolling segment files::

    wal/
      wal.000001.log        sealed (full) segment
      wal.000002.log        sealed segment
      wal.000003.log        active segment (append target)
      wal.manifest.json     advisory manifest (rewritten on every roll)

plus a sibling archive directory that compaction moves whole sealed
segments into.  Each segment holds the same JSON-lines records as the
single-file WAL, so every durability property — per-record CRC,
truncate-at-first-corrupt replay of the active tail — carries over
unchanged; segmentation only adds *lifecycle*: segments seal, get
archived below the checkpoint/replication low-water mark, serve lagging
standbys from the archive, and feed online backups.

Crash safety is directory-truth based: the manifest is advisory.  A
compaction copies the segment into the archive under a temporary name,
renames it into place, and only then deletes the live copy — a crash
between those steps leaves the segment present in *both* places, and
:meth:`SegmentedLog.load` reconciles by deleting the live duplicate.
No ordering of crash and compaction can lose a durable record.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import WALError

SEGMENT_RE = re.compile(r"^wal\.(\d{6})\.log$")
MANIFEST_NAME = "wal.manifest.json"
QUARANTINE_DIRNAME = "quarantine"

#: default size at which the active segment seals and rolls
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


def segment_name(index: int) -> str:
    return f"wal.{index:06d}.log"


@dataclass
class Segment:
    """Book-keeping for one segment file."""

    index: int
    first_lsn: Optional[int] = None   # None until the first record lands
    last_lsn: Optional[int] = None
    bytes: int = 0
    sealed: bool = False
    archived: bool = False

    def manifest_entry(self) -> dict:
        return {"name": segment_name(self.index), "index": self.index,
                "first_lsn": self.first_lsn, "last_lsn": self.last_lsn,
                "bytes": self.bytes, "sealed": self.sealed,
                "archived": self.archived}


class SegmentedLog:
    """The file layer of a segmented WAL: naming, rolling, archiving.

    Owns no record semantics — :class:`~repro.storage.wal.WriteAheadLog`
    validates CRCs and decides what is durable; this class only moves
    bytes between the live directory, the archive and backups.
    """

    def __init__(self, live_dir: str, archive_dir: Optional[str] = None,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        self.live_dir = live_dir
        self.archive_dir = (archive_dir if archive_dir is not None
                            else os.path.join(
                                os.path.dirname(live_dir.rstrip(os.sep))
                                or ".", "wal_archive"))
        self.segment_bytes = max(1, int(segment_bytes))
        self.segments: List[Segment] = []   # index order, archive first
        self.active: Optional[Segment] = None
        self.active_fh = None
        self.rolls = 0
        self.archived_total = 0
        self.quarantined_total = 0

    # -- paths -------------------------------------------------------------

    def live_path(self, segment: Segment) -> str:
        return os.path.join(self.live_dir, segment_name(segment.index))

    def archive_path(self, segment: Segment) -> str:
        return os.path.join(self.archive_dir, segment_name(segment.index))

    def path_of(self, segment: Segment) -> str:
        return (self.archive_path(segment) if segment.archived
                else self.live_path(segment))

    def quarantine_dir(self) -> str:
        return os.path.join(self.archive_dir, QUARANTINE_DIRNAME)

    # -- load / reconcile --------------------------------------------------

    def load(self) -> List[dict]:
        """Reconcile the directories and read every record, in order.

        Returns the parsed wire dicts of all records across archive +
        live segments (unvalidated — the WAL applies the CRC contract).
        A segment present in both the archive and the live directory is
        a crash mid-compaction: the archive copy is complete (it was
        renamed into place), so the live duplicate is deleted.  Leftover
        ``*.tmp`` files from an interrupted copy are removed.
        """
        os.makedirs(self.live_dir, exist_ok=True)
        live = self._scan_dir(self.live_dir)
        archived = self._scan_dir(self.archive_dir)
        if os.path.isdir(self.archive_dir):
            for name in os.listdir(self.archive_dir):
                if name.endswith(".tmp"):
                    os.remove(os.path.join(self.archive_dir, name))
        for index in set(live) & set(archived):
            os.remove(live.pop(index))

        self.segments = []
        records: List[dict] = []
        expected_next: Optional[int] = None
        indexes = sorted(set(live) | set(archived))
        for pos, index in enumerate(indexes):
            is_archived = index in archived
            path = archived[index] if is_archived else live[index]
            seg = Segment(index, archived=is_archived,
                          sealed=is_archived or pos < len(indexes) - 1)
            wires, seg.bytes, torn = _read_segment(path)
            last_file = pos == len(indexes) - 1 and not is_archived
            if torn and not last_file:
                raise WALError(
                    f"corrupt sealed WAL segment {path!r}: unparsable "
                    "record in a non-active segment (scrub or restore "
                    "from backup)")
            if wires:
                seg.first_lsn = int(wires[0]["lsn"])
                seg.last_lsn = int(wires[-1]["lsn"])
                if expected_next is not None \
                        and seg.first_lsn != expected_next:
                    raise WALError(
                        f"WAL gap: segment {segment_name(index)} starts "
                        f"at lsn {seg.first_lsn}, expected "
                        f"{expected_next} (missing lsns {expected_next}.."
                        f"{seg.first_lsn - 1}; quarantined or lost "
                        "segment — restore from backup)")
                expected_next = seg.last_lsn + 1
            self.segments.append(seg)
            records.extend(wires)

        # the highest-index live segment becomes (or stays) active
        tail = self.segments[-1] if self.segments else None
        if tail is not None and not tail.archived:
            tail.sealed = False
            self.active = tail
        else:
            next_index = (self.segments[-1].index + 1
                          if self.segments else 1)
            self.active = Segment(next_index)
            self.segments.append(self.active)
        self.write_manifest()
        return records

    def _scan_dir(self, path: str) -> Dict[int, str]:
        out: Dict[int, str] = {}
        if not os.path.isdir(path):
            return out
        for name in os.listdir(path):
            match = SEGMENT_RE.match(name)
            if match:
                out[int(match.group(1))] = os.path.join(path, name)
        return out

    def rewrite_active(self, lines: List[str]) -> None:
        """Rewrite the active segment to the given validated lines and
        reopen it for append (the truncate-at-first-corrupt contract)."""
        path = self.live_path(self.active)
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
        self.active.bytes = sum(len(line) for line in lines)
        self.open_active()

    def open_active(self) -> None:
        self.active_fh = open(self.live_path(self.active), "a",
                              encoding="utf-8")

    # -- append / roll -----------------------------------------------------

    def write(self, lsn: int, data: str) -> None:
        """Append one encoded record (or torn fragment) to the active
        segment.  The caller flushes."""
        seg = self.active
        if seg.first_lsn is None:
            seg.first_lsn = lsn
        seg.last_lsn = lsn
        seg.bytes += len(data)
        self.active_fh.write(data)

    def flush(self) -> None:
        if self.active_fh is not None:
            self.active_fh.flush()

    def should_roll(self) -> bool:
        return (self.active is not None
                and self.active.first_lsn is not None
                and self.active.bytes >= self.segment_bytes)

    def roll(self) -> Segment:
        """Seal the active segment and open the next one.

        The sealed segment's records are already durable (roll happens
        after flush), so a crash here at worst leaves a sealed segment
        the manifest does not know about — load() trusts the directory.
        """
        sealed = self.active
        if self.active_fh is not None:
            self.active_fh.flush()
            self.active_fh.close()
            self.active_fh = None
        sealed.sealed = True
        self.active = Segment(sealed.index + 1)
        self.segments.append(self.active)
        self.open_active()
        self.rolls += 1
        self.write_manifest()
        return sealed

    def close(self) -> None:
        if self.active_fh is not None:
            self.active_fh.flush()
            self.active_fh.close()
            self.active_fh = None

    # -- archive -----------------------------------------------------------

    def sealed_live_segments(self) -> List[Segment]:
        return [seg for seg in self.segments
                if seg.sealed and not seg.archived]

    def archived_segments(self) -> List[Segment]:
        return [seg for seg in self.segments if seg.archived]

    def archive_segment(self, segment: Segment, faults=None) -> str:
        """Move one sealed live segment into the archive, crash-safely.

        Copy to ``<name>.tmp`` in the archive, rename into place, fire
        the ``wal.compact`` crashpoint (simulating a crash at the worst
        moment: the segment now exists in both directories), then delete
        the live copy.
        """
        if not segment.sealed or segment.archived:
            raise WALError(f"segment {segment_name(segment.index)} is "
                           "not a sealed live segment")
        os.makedirs(self.archive_dir, exist_ok=True)
        src = self.live_path(segment)
        dst = self.archive_path(segment)
        tmp = dst + ".tmp"
        shutil.copyfile(src, tmp)
        os.replace(tmp, dst)
        if faults is not None and faults.armed:
            faults.check("wal.compact", segment_name(segment.index))
        os.remove(src)
        segment.archived = True
        self.archived_total += 1
        self.write_manifest()
        return dst

    def quarantine_segment(self, segment: Segment) -> str:
        """Move a corrupt *archived* segment into the quarantine dir."""
        os.makedirs(self.quarantine_dir(), exist_ok=True)
        src = self.archive_path(segment)
        dst = os.path.join(self.quarantine_dir(),
                           segment_name(segment.index))
        os.replace(src, dst)
        self.segments = [s for s in self.segments if s is not segment]
        self.quarantined_total += 1
        self.write_manifest()
        return dst

    # -- reads -------------------------------------------------------------

    def read_segment(self, segment: Segment) -> List[dict]:
        wires, _bytes, _torn = _read_segment(self.path_of(segment))
        return wires

    def archived_records(self, from_lsn: int,
                         to_lsn: Optional[int] = None) -> List[dict]:
        """Wire records with ``from_lsn <= lsn [<= to_lsn]`` from the
        archive, in LSN order."""
        out: List[dict] = []
        for seg in self.archived_segments():
            if seg.last_lsn is None or seg.last_lsn < from_lsn:
                continue
            if to_lsn is not None and seg.first_lsn is not None \
                    and seg.first_lsn > to_lsn:
                break
            for wire in self.read_segment(seg):
                lsn = int(wire["lsn"])
                if lsn < from_lsn:
                    continue
                if to_lsn is not None and lsn > to_lsn:
                    break
                out.append(wire)
        return out

    def archive_floor_lsn(self) -> Optional[int]:
        """Lowest LSN the archive still holds (None when empty)."""
        for seg in self.archived_segments():
            if seg.first_lsn is not None:
                return seg.first_lsn
        return None

    # -- stats -------------------------------------------------------------

    def live_bytes(self) -> int:
        return sum(seg.bytes for seg in self.segments if not seg.archived)

    def archive_bytes(self) -> int:
        return sum(seg.bytes for seg in self.segments if seg.archived)

    def live_count(self) -> int:
        return sum(1 for seg in self.segments if not seg.archived)

    # -- manifest ----------------------------------------------------------

    def manifest_path(self) -> str:
        return os.path.join(self.live_dir, MANIFEST_NAME)

    def write_manifest(self) -> None:
        manifest = {
            "segment_bytes": self.segment_bytes,
            "archive_dir": self.archive_dir,
            "active_index": self.active.index if self.active else None,
            "segments": [seg.manifest_entry() for seg in self.segments],
        }
        tmp = self.manifest_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
        os.replace(tmp, self.manifest_path())


def _read_segment(path: str) -> Tuple[List[dict], int, bool]:
    """Parse one segment file: (wire dicts, file bytes, torn tail seen).

    Parsing stops at the first unparsable line; the caller decides
    whether a torn tail is acceptable (active segment) or fatal (sealed
    segment).  CRC validation stays with the WAL.
    """
    wires: List[dict] = []
    size = 0
    torn = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            size += len(line)
            stripped = line.strip()
            if not stripped:
                continue
            try:
                fields = json.loads(stripped)
                fields["lsn"]
            except (ValueError, KeyError, TypeError):
                torn = True
                break
            wires.append(fields)
    return wires, size, torn


def verify_segment(path: str) -> Tuple[int, Optional[str]]:
    """Scrub one segment file: re-validate every record's CRC.

    Returns ``(records_ok, error)`` where ``error`` is None for a clean
    segment, else a description of the first corruption found.
    """
    from repro.storage.wal import record_from_wire
    count = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = record_from_wire(json.loads(stripped))
            except (ValueError, KeyError, TypeError) as exc:
                return count, f"line {lineno}: unparsable record ({exc})"
            if not record.is_valid():
                return count, (f"line {lineno}: CRC mismatch at lsn "
                               f"{record.lsn} (stored {record.crc}, "
                               f"content {record.content_crc()})")
            count += 1
    return count, None
