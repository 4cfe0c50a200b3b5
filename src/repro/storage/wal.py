"""Write-ahead log.

The WAL serves two masters, as in the paper (Section 4):

- durability of *tables*: every insert/update/delete is logged before the
  owning transaction commits, and ``replication.bootstrap.WalApplier``
  rebuilds table contents after a crash (:meth:`WriteAheadLog.replay`,
  the whole-log fold of the same, is only the tests' reference for it);
- recovery of *CQ runtime state*: stream rows and watermark advances
  are logged, so a boot rebuilds each CQ's open windows by replaying
  that tail into it, aligned on its active table
  (:mod:`repro.streaming.recovery`).  No operator state is ever logged.

Every record carries a CRC32 of its content, computed at append time the
way a real engine checksums each log record on its way to disk.  A record
is encoded exactly once, at append: the same field encodings make the
checksummed body, the flush-cost size and the on-disk line.  A torn
or partial write (crashpoint ``wal.torn_write``, or a crash mid-flush)
leaves a record whose stored checksum no longer matches its content;
recovery *truncates* the log at the first such record — everything before
it is trusted, everything after it is discarded — instead of failing
mid-replay.

A record is a line of JSON, whatever it carries.  An ingest batch is
one ``stream_rows`` record whose ``payload`` is a *string*: the base64
text of one row block (:mod:`repro.rowblock`), the batch's event times
as its first column and the rows' columns after it (a decoded frame's
``rowblock.Block`` that coercion left unchanged: the bytes the frame
carried).  Being a JSON string in the same line under the same CRC, it
needs nothing from segments, torn-write truncation, scrub, backup,
archive catch-up or shipping.
:meth:`WriteAheadLog.append` writes it and :func:`stream_points` is the
one reader of a stream record, in each shape logs hold: the block, the
``[times, rows]`` JSON payload written before it, and the one-row
``stream_insert`` records written before that.  An idempotent batch is
its rid-tagged ``stream_rows`` plus one ``stream_dedup`` marker; a
``stream_abort`` record (same ``table`` and ``rid``) is the tombstone a
replayer appends after discarding a batch whose marker never came: the
rows under that rid *so far* are void, the client's retry is not.

The log runs in one of two modes:

- **in-memory** (no ``path``): records only live in ``self.records``;
- **segmented** (``path`` names a directory, at construction or through
  :meth:`WriteAheadLog.open`): records land in
  fixed-size rolling segment files managed by
  :class:`~repro.storage.segments.SegmentedLog`.  Sealed segments can be
  *archived* (moved to the archive dir by compaction) and the matching
  in-memory records trimmed; the in-memory list then mirrors the live
  directory, with ``compacted_below`` naming the lowest LSN still held.
  A ``records_from`` below that boundary raises a typed
  :class:`~repro.errors.ReplicationGapError` whose range the primary's
  attach path answers from the archive.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro import rowblock
from repro.errors import ReplicationGapError, RowBlockError, WALError

# record kinds
INSERT = "insert"
DELETE = "delete"
UPDATE = "update"
COMMIT = "commit"
ABORT = "abort"
DDL = "ddl"                      # table registration (schema payload)
DDL_OBJ = "ddl_obj"              # stream/view/channel/index/drop (spec payload)
STREAM_ROWS = "stream_rows"      # an ingest batch: a row block as text
STREAM_ADVANCE = "stream_advance"  # a stream heartbeat (watermark move)
STREAM_DEDUP = "stream_dedup"    # idempotent-ingest marker: rid=(sender, seq)
STREAM_ABORT = "stream_abort"    # tombstone: rid's rows so far are void

#: approximate bytes per log record header, for flush cost accounting
_RECORD_OVERHEAD = 40

#: most rows one ``stream_rows`` record carries; a larger ingest batch is
#: logged as several records (same rid), so no single record — and no
#: replication frame shipping it — grows with the client's batch size
MAX_ROWS_PER_RECORD = 1024


@dataclass
class LogRecord:
    """One WAL entry."""

    lsn: int
    txid: int
    kind: str
    table: Optional[str] = None
    rid: Optional[tuple] = None
    before: Optional[tuple] = None
    after: Optional[tuple] = None
    payload: Optional[object] = None  # schema, spec, rows or time
    crc: int = 0                      # CRC32 of the content at append time
    torn: bool = False                # True: the tail of this record was lost

    def content_crc(self) -> int:
        """CRC32 over the record's logical content (not the stored crc).

        Computed over the canonical JSON encoding so the checksum survives
        a round trip through the wire protocol or the log file: JSON does
        not distinguish tuples from lists, and any exotic value degrades
        through ``str`` identically on both ends.
        """
        body = json.dumps(
            [self.txid, self.kind, self.table, self.rid, self.before,
             self.after, self.payload],
            separators=(",", ":"), sort_keys=True, default=str)
        return zlib.crc32(body.encode("utf-8"))

    def is_valid(self) -> bool:
        """True when the stored checksum still matches the content."""
        return not self.torn and self.crc == self.content_crc()


def record_to_wire(record: LogRecord) -> dict:
    """Serialize a record for the replication wire or the log file."""
    return {"lsn": record.lsn, "txid": record.txid, "kind": record.kind,
            "table": record.table, "rid": _jsonable(record.rid),
            "before": _jsonable(record.before),
            "after": _jsonable(record.after),
            "payload": record.payload, "crc": record.crc}


def record_from_wire(fields: dict) -> LogRecord:
    """Rebuild a record from its wire/file form.

    The stored checksum is carried through *unverified*; callers decide
    whether to trust it (`is_valid`) or truncate/quarantine.
    """
    return LogRecord(
        int(fields["lsn"]), int(fields["txid"]), fields["kind"],
        fields.get("table"), _as_tuple(fields.get("rid")),
        _as_tuple(fields.get("before")), _as_tuple(fields.get("after")),
        fields.get("payload"), crc=int(fields.get("crc", 0)))


def _jsonable(values):
    return list(values) if isinstance(values, tuple) else values


def _as_tuple(values):
    return tuple(values) if isinstance(values, list) else values


# -- the one record encoder ----------------------------------------------------

#: canonical JSON, spelled as :meth:`LogRecord.content_crc` spells it
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                           default=str).encode
_BODY = "[%d,%s,%s,%s,%s,%s,%s]"
_LINE = ('{"lsn":%d,"txid":%d,"kind":%s,"table":%s,"rid":%s,"before":%s,'
         '"after":%s,"payload":%s,"crc":%d}\n')


def _field_json(value) -> str:
    return "null" if value is None else _encode(value)


def _name_json(name: Optional[str]) -> str:
    # kinds and relation names are plain identifiers, which JSON never
    # escapes: quoting them by hand saves an encoder call per record
    if isinstance(name, str) and name.isascii() and name.isidentifier():
        return '"' + name + '"'
    return _field_json(name)


def _encode_fields(txid, kind, table, rid, before, after, payload) -> tuple:
    """A record's content fields, each encoded once as canonical JSON.

    Compact JSON of a list is its items' compact JSON joined by commas,
    so ``_BODY % fields`` is byte for byte what ``content_crc`` hashes,
    and ``_LINE % (lsn, *fields, crc)`` is the record's log line.
    """
    return (txid, _name_json(kind), _name_json(table), _field_json(rid),
            _field_json(before), _field_json(after), _field_json(payload))


def record_line(record: LogRecord) -> str:
    """The record as its log line: the JSON object `record_to_wire`
    describes, newline-terminated, carrying the *stored* checksum."""
    return _LINE % ((record.lsn,) + _encode_fields(
        record.txid, record.kind, record.table, record.rid, record.before,
        record.after, record.payload) + (record.crc,))


def stream_points(record: LogRecord) -> Optional[List[Tuple[float, tuple]]]:
    """``(event_time, row)`` pairs a stream record carries, in arrival
    order; None for every other kind of record.

    The one function that looks inside a stream record, in any of the
    three shapes the module docstring lists; a ``stream_rows`` payload
    that is none of them raises :class:`~repro.errors.WALError`.
    """
    if record.kind == STREAM_ROWS:
        payload = record.payload
        try:
            if isinstance(payload, str):
                return rowblock.unpack(payload)
            times, rows = payload
            return list(zip(times, map(tuple, rows)))
        except (RowBlockError, TypeError, ValueError) as exc:
            raise WALError(
                f"stream_rows record {record.lsn}: unreadable payload "
                f"({exc})") from None
    if record.kind == "stream_insert":
        return [(record.payload, record.after)]
    return None


class WriteAheadLog:
    """An in-memory append-only log with disk-flush cost accounting.

    Records accumulate in a tail buffer; :meth:`flush` charges the
    simulated disk one sequential page write per page of buffered bytes
    (group commit).  The engine flushes on every commit.
    """

    #: file id used when charging the simulated disk
    WAL_FILE_ID = 0

    def __init__(self, disk=None, page_size: int = 8192, faults=None,
                 path: Optional[str] = None,
                 segment_bytes: Optional[int] = None,
                 archive_dir: Optional[str] = None):
        self.disk = disk
        self.page_size = page_size
        self.faults = faults
        self.records = []
        self._next_lsn = 1
        self._unflushed_bytes = 0
        self._flushed_upto = 0  # index into records
        #: log lines of records[_flushed_upto:], encoded at append
        #: (segmented mode only)
        self._unflushed_lines = []
        self._next_wal_page = 0
        self.flush_count = 0
        self.torn_records = 0
        #: the author switch.  A muted log takes nothing from `append`:
        #: what the engine does while a `WalApplier` replays records it
        #: already holds (boot recovery), or follows a primary whose log
        #: this one must stay a byte-prefix of (a standby), is not
        #: authored here.  The applier mutes the log when it is made,
        #: its `promote()` unmutes it; `append_replicated` is the only
        #: way in meanwhile.
        self.muted = False
        #: called with each appended record (primary-side WAL shipping)
        self.on_append = None
        #: obs histogram observing flush wall time (None = untimed)
        self.flush_timer = None
        #: lowest LSN still held in ``records``; anything below was
        #: trimmed after being archived (segmented mode only moves it)
        self.compacted_below = 1
        self.path = None
        self.segments = None
        if path is not None:
            self.open(path, segment_bytes, archive_dir)

    def append(self, txid: int, kind: str, table: str = None, rid=None,
               before=None, after=None, payload=None,
               flush: bool = False) -> Optional[LogRecord]:
        """Add a record to the tail buffer; durable only once flushed
        (``flush=True`` does that — everything buffered, in one flush —
        before returning).

        The one place a record is encoded: checksum, flush-cost size
        and (when the log is on disk) the line `flush` writes all come
        from the same field encodings, and a ``stream_rows`` payload
        ``(times, rows)`` becomes its row-block text.  A :attr:`muted`
        log appends nothing, flushes nothing and returns None.
        """
        if self.muted:
            return None
        if kind == STREAM_ROWS and not isinstance(payload, str):
            # a delivered batch, ``(times, rows)``: the record holds its
            # row-block text, and base64 has nothing for JSON to escape
            payload = rowblock.pack(*payload)
            fields = _encode_fields(txid, kind, table, rid, before, after,
                                    None)[:-1] + ('"' + payload + '"',)
        else:
            fields = _encode_fields(txid, kind, table, rid, before, after,
                                    payload)
        body = _BODY % fields
        crc = zlib.crc32(body.encode("utf-8"))
        lsn = self._next_lsn
        record = LogRecord(lsn, txid, kind, table, rid, before, after,
                           payload, crc)
        self._next_lsn = lsn + 1
        self._buffer(record, len(body),
                     _LINE % ((lsn,) + fields + (crc,))
                     if self.segments is not None else None)
        if flush:
            self.flush()
        return record

    def append_replicated(self, record: LogRecord) -> LogRecord:
        """Adopt a record shipped from a primary, preserving its LSN.

        A standby's log stays a byte-for-byte prefix of the primary's,
        so a promoted standby continues the same LSN sequence and a
        restarted standby knows exactly where to resume shipping from.
        """
        line = record_line(record)
        self._next_lsn = record.lsn + 1
        self._buffer(record, len(line),
                     line if self.segments is not None else None)
        return record

    def _buffer(self, record: LogRecord, size: int,
                line: Optional[str]) -> None:
        self.records.append(record)
        self._unflushed_bytes += _RECORD_OVERHEAD + size
        if line is not None:
            self._unflushed_lines.append(line)
        if self.on_append is not None:
            self.on_append(record)

    def records_from(self, from_lsn: int) -> List[LogRecord]:
        """All records with ``lsn >= from_lsn`` (shipping resume point).

        The in-memory list is contiguous by LSN starting at
        ``records[0].lsn``, so this is a slice, not a scan.  Edge cases
        pin the contract: an empty log and a ``from_lsn`` past the head
        both return ``[]`` (nothing to ship *yet*); a ``from_lsn`` below
        :attr:`compacted_below` raises a typed
        :class:`~repro.errors.ReplicationGapError` naming the missing
        range, which the primary answers from the archive.
        """
        from_lsn = max(1, int(from_lsn))
        if from_lsn < self.compacted_below:
            raise ReplicationGapError(
                f"wal records {from_lsn}..{self.compacted_below - 1} "
                "are no longer retained in memory (compacted to the "
                "archive)", missing_from=from_lsn,
                missing_to=self.compacted_below - 1)
        if not self.records:
            return []
        start = from_lsn - self.records[0].lsn
        if start <= 0:
            return list(self.records)
        if start >= len(self.records):
            return []
        return list(self.records[start:])

    def archived_wire_records(self, from_lsn: int,
                              to_lsn: Optional[int] = None) -> List[dict]:
        """Wire records served from archived segments (standby catch-up).

        Raises :class:`~repro.errors.ReplicationGapError` when even the
        archive cannot cover ``from_lsn`` — the range is then truly
        unrecoverable without a backup.
        """
        floor = (self.segments.archive_floor_lsn()
                 if self.segments is not None else None)
        if floor is None or floor > from_lsn:
            missing_to = floor - 1 if floor is not None else \
                (to_lsn if to_lsn is not None else self.compacted_below - 1)
            raise ReplicationGapError(
                f"wal records {from_lsn}..{missing_to} are unrecoverable"
                ": not in memory and not in the archive",
                missing_from=from_lsn, missing_to=missing_to)
        return self.segments.archived_records(from_lsn, to_lsn)

    @property
    def head_lsn(self) -> int:
        """LSN of the most recently appended record (0 when empty)."""
        return self._next_lsn - 1

    def flush(self) -> None:
        """Make all buffered records durable; charges sequential writes.

        With the ``wal.torn_write`` crashpoint armed, the flush may tear
        the last buffered record: it reaches "disk" with its tail missing,
        so its checksum no longer validates and recovery truncates there.

        When the log is on disk, buffered records are written to the
        active segment as JSON lines; a torn record is written as a
        truncated line, so a later load truncates the log there exactly
        as `_validated` does.
        """
        if self._flushed_upto == len(self.records):
            return
        timer = self.flush_timer
        started = time.perf_counter() if timer is not None else 0.0
        if self.faults is not None \
                and self.faults.should("wal.torn_write"):
            victim = self.records[-1]
            victim.torn = True
            self.torn_records += 1
        pages = max(1, -(-self._unflushed_bytes // self.page_size))
        if self.disk is not None:
            for _ in range(pages):
                self.disk.write_page(self.WAL_FILE_ID, self._next_wal_page)
                self._next_wal_page += 1
        if self.segments is not None:
            for record, line in zip(self.records[self._flushed_upto:],
                                    self._unflushed_lines):
                self.segments.write(
                    record.lsn,
                    line[:max(1, len(line) // 2)] if record.torn else line)
            self._unflushed_lines.clear()
            self.segments.flush()
        self._unflushed_bytes = 0
        self._flushed_upto = len(self.records)
        self.flush_count += 1
        if self.segments is not None and self.segments.should_roll():
            # everything above is already durable: a crash here (the
            # wal.segment_roll crashpoint) loses nothing, and the next
            # flush simply retries the roll
            self.roll_segment()
        if timer is not None:
            timer.observe(time.perf_counter() - started)

    def roll_segment(self, force: bool = False):
        """Seal the active segment and open the next (segmented mode).

        ``force`` seals a non-empty active segment regardless of size —
        the online backup uses it so a backup always ends on a sealed
        segment boundary.  Returns the sealed segment, or None when
        there was nothing to seal.
        """
        if self.segments is None:
            return None
        if self.segments.active.first_lsn is None:
            return None
        if not force and not self.segments.should_roll():
            return None
        if self.faults is not None and self.faults.armed:
            self.faults.check("wal.segment_roll",
                              f"segment {self.segments.active.index}")
        return self.segments.roll()

    def trim_below(self, lsn: int) -> int:
        """Forget in-memory records with ``lsn`` below the given bound.

        Called after the matching segments were archived: the records
        stay readable through :meth:`archived_wire_records`, memory and
        the live directory shrink together.  Unflushed records are never
        trimmed.  Returns how many records were dropped.
        """
        lsn = min(lsn, self.head_lsn + 1)
        if not self.records:
            self.compacted_below = max(self.compacted_below, lsn)
            return 0
        drop = min(lsn - self.records[0].lsn, self._flushed_upto,
                   len(self.records))
        if drop <= 0:
            return 0
        del self.records[:drop]
        self._flushed_upto -= drop
        self.compacted_below = (self.records[0].lsn if self.records
                                else lsn)
        return drop

    def release_archived(self) -> int:
        """Drop records held only by archived segments from memory.

        Boot recovery loads the *whole* log (archive included) to
        rebuild state; once that is done, memory needs to mirror only
        the live directory.  Returns how many records were released.
        """
        if self.segments is None:
            return 0
        floor = None
        for seg in self.segments.segments:
            if not seg.archived and seg.first_lsn is not None:
                floor = seg.first_lsn
                break
        if floor is None:
            floor = self.head_lsn + 1
        return self.trim_below(floor)

    # -- file persistence --------------------------------------------------

    def open(self, path: str, segment_bytes: Optional[int] = None,
             archive_dir: Optional[str] = None) -> None:
        """Put this still-empty log on a directory of segments and load
        it: archive + live segments, in order.

        All records (archived included) are loaded into memory so boot
        recovery sees the full history; the caller trims them back with
        :meth:`release_archived` once recovery completes.  The active
        segment keeps the truncate-at-first-corrupt contract: its
        validated prefix is rewritten, a torn tail physically dropped.
        A corrupt record in a *sealed* segment is not truncatable — it
        would silently discard durable history — and raises instead.
        """
        from repro.storage.segments import DEFAULT_SEGMENT_BYTES, SegmentedLog
        if os.path.isfile(path):
            raise WALError(
                f"{path!r} is a file: the single-file WAL layout is no "
                "longer supported (the log is a directory of segments)")
        self.path = path
        self.segments = SegmentedLog(
            path, archive_dir=archive_dir,
            segment_bytes=(segment_bytes if segment_bytes is not None
                           else DEFAULT_SEGMENT_BYTES))
        wires = self.segments.load()
        loaded: List[LogRecord] = []
        invalid_at: Optional[int] = None
        for fields in wires:
            record = record_from_wire(fields)
            if not record.is_valid():
                invalid_at = record.lsn
                break
            loaded.append(record)
        active = self.segments.active
        if invalid_at is not None and (
                active.first_lsn is None or invalid_at < active.first_lsn):
            raise WALError(
                f"corrupt record at lsn {invalid_at} in a sealed WAL "
                "segment (scrub or restore from backup)")
        self.records = loaded
        if loaded:
            self._next_lsn = loaded[-1].lsn + 1
            self.compacted_below = loaded[0].lsn
        self._flushed_upto = len(loaded)
        # rewrite the active segment's validated prefix (drops any torn
        # tail) and reopen it for append
        lines = []
        survivors = []
        if active.first_lsn is not None:
            survivors = [r for r in loaded if r.lsn >= active.first_lsn]
            lines = [record_line(r) for r in survivors]
        active.first_lsn = survivors[0].lsn if survivors else None
        active.last_lsn = survivors[-1].lsn if survivors else None
        self.segments.rewrite_active(lines)

    def close(self) -> None:
        """Flush and release the active segment (no-op when in-memory)."""
        if self.segments is not None:
            self.flush()
            self.segments.close()

    # -- validation --------------------------------------------------------

    def _validated(self) -> List[LogRecord]:
        """The durable prefix that passes checksum validation.

        Stops at the first torn/corrupt record: a record whose checksum
        fails proves the write tore there, and nothing after it can be
        trusted to have reached disk intact.
        """
        out = []
        for record in self.records[:self._flushed_upto]:
            if not record.is_valid():
                break
            out.append(record)
        return out

    def first_corrupt_lsn(self) -> Optional[int]:
        """LSN of the first torn/corrupt durable record (None when clean)."""
        for record in self.records[:self._flushed_upto]:
            if not record.is_valid():
                return record.lsn
        return None

    def durable_records(self) -> Iterator[LogRecord]:
        """Records that survived the last flush intact (what replay sees)."""
        return iter(self._validated())

    @property
    def durable_lsn(self) -> int:
        """LSN of the newest record known durable (0 when none are)."""
        if self._flushed_upto > 0 and self.records:
            return self.records[self._flushed_upto - 1].lsn
        return self.compacted_below - 1

    def __len__(self):
        return len(self.records)
