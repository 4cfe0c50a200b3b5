"""Primary-side WAL shipping.

One :class:`ReplicationManager` per serving database.  Standbys attach
through the normal frame protocol (op ``replicate``); each attached
standby gets the backlog from its requested LSN, then every subsequent
``WriteAheadLog.append`` is forwarded as a ``wal`` push through the
standby's session buffer (the same slow-client machinery ordinary
subscriptions use — a standby that cannot keep up sheds, detects the
LSN gap, and re-requests from where it left off).

All methods run on the engine thread: the WAL append hook fires there,
and the server routes ``replicate``/``replicate_ack`` ops through the
single-writer executor.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import ReplicationGapError
from repro.server import protocol
from repro.storage.wal import record_from_wire, record_line, record_to_wire

#: most records per backlog frame
BACKLOG_CHUNK = 512
#: most encoded bytes per backlog frame: a ``stream_rows`` record weighs
#: ~100 KB, so a record count alone does not keep a frame under the cap
BACKLOG_FRAME_BYTES = protocol.MAX_FRAME_BYTES // 4


class StandbyPeer:
    """Book-keeping for one attached standby."""

    def __init__(self, session, entry, from_lsn: int):
        self.session = session
        self.entry = entry           # SubscriptionEntry carrying the sub id
        self.from_lsn = from_lsn
        self.sent_lsn = from_lsn - 1
        self.acked_lsn = 0
        self.ship_drops = 0          # batches dropped (replication.ship)
        self.last_error: Optional[str] = None

    @property
    def state(self) -> str:
        return "streaming" if not self.entry.broken else "detached"


class ReplicationManager:
    """Ships WAL records to attached standbys as they are appended."""

    def __init__(self, db, faults=None):
        self.db = db
        self.faults = faults if faults is not None else db.faults
        self.peers: Dict[int, StandbyPeer] = {}  # sub_id -> peer
        db.enable_replication_logging()
        db.storage.wal.on_append = self._on_append
        db.replication_registry = self.status_rows
        self.archive_serves = 0      # attaches satisfied from the archive
        lifecycle = getattr(db, "wal_lifecycle", None)
        if lifecycle is not None:
            # compaction must retain everything an attached standby has
            # not yet acknowledged
            lifecycle.retain_hooks.append(self._retain_floor)
        obs = getattr(db, "obs", None)
        if obs is not None:
            obs.bind_replication_primary(self)

    # -- attach / detach ---------------------------------------------------

    def attach(self, session, entry, from_lsn: int) -> StandbyPeer:
        """Register a standby and queue its backlog.  Engine thread.

        A standby that fell below the compacted range is caught up from
        the archive: the archived stretch is shipped first (as wire
        dicts read straight off the archived segments), then the
        in-memory tail from where the archive hands over.
        """
        peer = StandbyPeer(session, entry, from_lsn)
        self.peers[entry.sub_id] = peer
        wal = self.db.storage.wal
        try:
            backlog = wal.records_from(from_lsn)
        except ReplicationGapError as gap:
            archived = wal.archived_wire_records(
                gap.missing_from, gap.missing_to)
            self.archive_serves += 1
            for chunk in _backlog_frames(
                    archived,
                    lambda wire: len(record_line(record_from_wire(wire)))):
                self._send_wire(peer, chunk)
            backlog = wal.records_from(gap.missing_to + 1)
        for chunk in _backlog_frames(backlog,
                                     lambda record: len(record_line(record))):
            self._send(peer, chunk)
        return peer

    def _retain_floor(self) -> Optional[int]:
        """Lowest LSN compaction must keep live for attached standbys."""
        floors = [peer.acked_lsn + 1 for peer in self.peers.values()
                  if not peer.entry.broken]
        return min(floors) if floors else None

    def detach(self, sub_id: int) -> None:
        self.peers.pop(sub_id, None)

    def ack(self, sub_id: int, lsn: int) -> None:
        peer = self.peers.get(sub_id)
        if peer is not None and lsn > peer.acked_lsn:
            peer.acked_lsn = lsn

    # -- shipping ----------------------------------------------------------

    def _on_append(self, record) -> None:
        if not self.peers:
            return
        for peer in list(self.peers.values()):
            if peer.entry.broken:
                self.peers.pop(peer.entry.sub_id, None)
                continue
            self._send(peer, [record])

    def _send_wire(self, peer: StandbyPeer, wire_records: List[dict]) -> None:
        """Ship records already in wire form (archived segments)."""
        if not wire_records:
            return
        frame = wal_push(peer.entry.sub_id, wire_records,
                         head=self.db.storage.wal.head_lsn)
        peer.session.enqueue_push(peer.entry, frame)
        peer.sent_lsn = max(peer.sent_lsn, wire_records[-1]["lsn"])

    def _send(self, peer: StandbyPeer, records: List) -> None:
        if not records:
            return
        if self.faults is not None and self.faults.armed \
                and self.faults.should("replication.ship"):
            # the batch is "lost on the wire": the standby will notice
            # the LSN gap and re-request from its applied position
            peer.ship_drops += 1
            peer.last_error = (
                f"shipping dropped {len(records)} record(s) at "
                f"lsn {records[0].lsn} (replication.ship)")
            return
        frame = wal_push(peer.entry.sub_id,
                         [record_to_wire(r) for r in records],
                         head=self.db.storage.wal.head_lsn)
        peer.session.enqueue_push(peer.entry, frame)
        peer.sent_lsn = max(peer.sent_lsn, records[-1].lsn)

    # -- introspection -----------------------------------------------------

    def status_rows(self) -> List[tuple]:
        head = self.db.storage.wal.head_lsn
        rows = []
        for peer in self.peers.values():
            rows.append((
                "primary", peer.session.peer, peer.state,
                peer.sent_lsn, peer.acked_lsn, peer.acked_lsn,
                max(0, head - peer.acked_lsn), peer.last_error,
            ))
        if not rows:
            rows.append(("primary", None, "no-standby",
                         head, None, None, None, None))
        return rows


def _backlog_frames(records: List, weigh) -> Iterator[List]:
    """Cut a backlog into frames of at most ``BACKLOG_CHUNK`` records and
    ``BACKLOG_FRAME_BYTES`` encoded bytes, ``weigh(record)`` each (a
    single heavier record still ships, alone)."""
    frame, size = [], 0
    for record in records:
        weight = weigh(record)
        if frame and (len(frame) == BACKLOG_CHUNK
                      or size + weight > BACKLOG_FRAME_BYTES):
            yield frame
            frame, size = [], 0
        frame.append(record)
        size += weight
    if frame:
        yield frame


def wal_push(sub_id: int, wire_records: List[dict], head: int) -> dict:
    """The ``wal`` push frame: a batch of shipped records."""
    return {"push": "wal", "sub": sub_id,
            "records": wire_records, "head": head}


# re-exported for symmetry with the other protocol constructors
protocol.wal_push = wal_push
