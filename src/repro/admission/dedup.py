"""Per-stream dedup windows: the memory behind idempotent ingest.

A client stamps each ingest batch with ``(sender_id, seq)``; the index
remembers, per ``(stream, sender)``, which sequence numbers have been
applied.  A replay — client retry after a lost ack, or the same batch
re-sent to a promoted standby — is recognised and skipped, so ingest is
accepted-exactly-once end to end.

The per-sender state is bounded: a high watermark plus a window of
recently seen sequence numbers above ``high - window``.  Anything at or
below the window floor is conservatively treated as already seen (a
sender that old is retrying something long since applied; rejecting a
duplicate twice is harmless, applying one twice is not).

Durability is the WAL's job: the engine appends one ``stream_dedup``
marker record per applied batch (see ``Database.ingest_batch``), and
whatever replays the log — boot, a standby — records each marker here
as it passes (``WalApplier.apply``), in log order, so a ``DROP STREAM``
between two markers forgets the first exactly as it did live.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: default count of in-flight sequence numbers remembered per sender
DEFAULT_WINDOW = 1024


class _SenderWindow:
    """Dedup state for one (stream, sender) pair."""

    __slots__ = ("high", "recent")

    def __init__(self):
        self.high = 0          # largest seq ever recorded
        self.recent = set()    # recorded seqs in (high - window, high]

    def seen(self, seq: int, window: int) -> bool:
        if seq > self.high:
            return False
        if seq > self.high - window:
            return seq in self.recent
        return True  # below the window floor: assume long since applied

    def record(self, seq: int, window: int) -> None:
        self.recent.add(seq)
        if seq > self.high:
            self.high = seq
        floor = self.high - window
        if floor > 0 and len(self.recent) > window:
            self.recent = {s for s in self.recent if s > floor}


class DedupIndex:
    """All sender windows of one database, keyed by (stream, sender)."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.window = int(window)
        self._senders: Dict[Tuple[str, str], _SenderWindow] = {}
        self.duplicates = 0    # batches recognised as replays

    def seen(self, stream: str, sender: str, seq: int) -> bool:
        state = self._senders.get((stream, sender))
        if state is None:
            return False
        if state.seen(int(seq), self.window):
            self.duplicates += 1
            return True
        return False

    def record(self, stream: str, sender: str, seq: int) -> None:
        state = self._senders.get((stream, sender))
        if state is None:
            state = self._senders[(stream, sender)] = _SenderWindow()
        state.record(int(seq), self.window)

    def forget_stream(self, stream: str) -> None:
        """Drop all sender state for a stream (DROP STREAM)."""
        for key in [k for k in self._senders if k[0] == stream]:
            del self._senders[key]

    def sender_count(self) -> int:
        return len(self._senders)

    def watermark(self, stream: str, sender: str) -> int:
        state = self._senders.get((stream, sender))
        return state.high if state is not None else 0
