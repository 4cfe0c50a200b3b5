"""Multi-version concurrency control.

Versions carry ``xmin``/``xmax`` transaction ids; a :class:`Snapshot`
captures the set of transactions whose effects are visible.  This is the
isolation substrate the paper says can be "extended to provide continuous
isolation semantics" (Section 4) — the extension itself lives in
:mod:`repro.txn.window_consistency`.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.errors import TransactionError
from repro.storage.page import RowVersion

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


class Snapshot:
    """A point-in-time visibility horizon.

    A transaction is visible when it committed before this snapshot was
    taken: its id is below ``horizon`` and it was not in-progress at that
    moment.
    """

    __slots__ = ("horizon", "in_progress")

    def __init__(self, horizon: int, in_progress: frozenset):
        self.horizon = horizon
        self.in_progress = in_progress

    def might_see(self, txid: int) -> bool:
        """Visibility by snapshot position alone (status checked separately)."""
        return txid < self.horizon and txid not in self.in_progress

    def __repr__(self):
        return f"Snapshot(horizon={self.horizon}, in_progress={set(self.in_progress)})"


class Transaction:
    """A running transaction: id, snapshot, and undo information."""

    def __init__(self, txid: int, snapshot: Snapshot, manager: "TransactionManager"):
        self.txid = txid
        self.snapshot = snapshot
        self._manager = manager
        self.status = ACTIVE
        # undo lists for abort: physical cleanup of our own writes
        self.inserted = []  # (table, rid, values)
        self.deleted = []   # (table, rid, version)

    def is_active(self) -> bool:
        return self.status == ACTIVE

    def commit(self) -> None:
        self._manager.commit(self)

    def abort(self) -> None:
        self._manager.abort(self)

    def __repr__(self):
        return f"Transaction({self.txid}, {self.status})"


class TransactionManager:
    """Issues transaction ids, tracks status, takes snapshots."""

    #: txid used for bootstrap rows (always committed, visible to everyone)
    FROZEN_TXID = 0

    def __init__(self, wal=None):
        self.wal = wal
        self._next_txid = 1
        self._status = {self.FROZEN_TXID: COMMITTED}
        self._active: Set[int] = set()

    def begin(self) -> Transaction:
        """Start a transaction with a fresh snapshot."""
        txid = self._next_txid
        self._next_txid += 1
        self._status[txid] = ACTIVE
        snapshot = self.take_snapshot()
        self._active.add(txid)
        return Transaction(txid, snapshot, self)

    def skip_past(self, txid: int) -> None:
        """Never issue ``txid`` or below: WAL replay saw it logged, and
        a second transaction under it would share its commit or abort."""
        if txid >= self._next_txid:
            self._next_txid = txid + 1

    def take_snapshot(self) -> Snapshot:
        """A snapshot as of now (excludes all currently-active txns)."""
        return Snapshot(self._next_txid, frozenset(self._active))

    def oldest_visible_horizon(self) -> int:
        """The oldest txid any current or future snapshot could consider
        in-progress; versions deleted by committed transactions below
        this horizon are dead and can be vacuumed."""
        if self._active:
            return min(self._active)
        return self._next_txid

    def is_dead(self, version: RowVersion) -> bool:
        """True when no snapshot can ever see this version again."""
        xmin_status = self._status.get(version.xmin)
        if xmin_status == ABORTED:
            return True
        if version.xmax is None:
            return False
        if self._status.get(version.xmax) != COMMITTED:
            return False
        return version.xmax < self.oldest_visible_horizon()

    def status_of(self, txid: int) -> str:
        return self._status.get(txid, ABORTED)

    def commit(self, txn: Transaction) -> None:
        if txn.status != ACTIVE:
            raise TransactionError(f"cannot commit {txn}")
        if self.wal is not None:
            try:
                self.wal.append(txn.txid, "commit", flush=True)
            except Exception:
                # the flush failed: the buffered commit record rides the
                # next one, so put the abort that overrules it behind it
                self.abort(txn)
                raise
        self._finish(txn, COMMITTED)

    def abort(self, txn: Transaction) -> None:
        if txn.status != ACTIVE:
            raise TransactionError(f"cannot abort {txn}")
        self.revoke(txn)
        if self.wal is not None:
            self.wal.append(txn.txid, "abort")

    def revoke(self, txn: Transaction) -> None:
        """Physically undo ``txn``'s own writes, so aborted versions
        don't accumulate (poor-man's instant vacuum), and mark it
        aborted.  WAL replay calls this on a transaction it committed
        when the next record is the ``abort`` that overrules it."""
        for table, rid, version in reversed(txn.deleted):
            version.xmax = None
            table.on_abort_undelete(rid)
        for table, rid, values in reversed(txn.inserted):
            table.on_abort_remove(rid, values)
        self._finish(txn, ABORTED)

    def _finish(self, txn: Transaction, status: str) -> None:
        self._status[txn.txid] = status
        self._active.discard(txn.txid)
        txn.status = status

    # -- visibility -----------------------------------------------------------

    def visible(self, version: RowVersion, snapshot: Snapshot,
                own_txid: Optional[int] = None) -> bool:
        """Standard MVCC visibility of ``version`` under ``snapshot``."""
        xmin, xmax = version.xmin, version.xmax
        if own_txid is not None and xmin == own_txid:
            created = True
        else:
            created = (snapshot.might_see(xmin)
                       and self._status.get(xmin) == COMMITTED)
        if not created:
            return False
        if xmax is None:
            return True
        if own_txid is not None and xmax == own_txid:
            return False
        deleted = (snapshot.might_see(xmax)
                   and self._status.get(xmax) == COMMITTED)
        return not deleted
