"""Channels: persistence for streams (the paper's Example 4).

A channel subscribes to a derived stream and stores each window's result
into an ordinary SQL table — the *active table*.  APPEND adds each
result; REPLACE overwrites the previous one.  Each window's result is
applied in its own transaction, so snapshot queries over the active table
see whole windows or nothing (this is the flip side of window
consistency).  An event-time CQ's ``retract`` / ``correct`` records go
through the same transactional write as its finals (:meth:`Channel.
write`, which the supervisor's retry and quarantine wrap); ``on_batch``
and ``on_correction`` only decide what that write is.

"the combination of Derived Streams with Active Tables can be viewed as
an extremely efficient materialized view mechanism" — Section 3.3.
Experiment E5 quantifies that comparison against batch-refresh MVs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConstraintError, StreamingError
from repro.sql import ast

APPEND = "append"
REPLACE = "replace"


def _close_position(cq):
    """Output position of a bare ``cq_close(*)`` in ``cq``'s select list
    (None when the CQ does not project it bare).  A ``*`` widens the
    list, so the position is counted from whichever end has none."""
    items = cq.select.items
    star = [isinstance(item.expr, ast.Star) for item in items]
    for i, item in enumerate(items):
        if isinstance(item.expr, ast.FunctionCall) \
                and item.expr.name == "cq_close":
            if not any(star[:i]):
                return i
            if not any(star[i + 1:]):
                return len(cq.output_names) - (len(items) - i)
    return None


def archive_of(derived):
    """The channel that archives ``derived`` — its active table is what a
    restart rebuilds the CQ from — or None.  An APPEND channel (every
    window kept) is preferred to a REPLACE one."""
    channels = [c for c in derived.consumers if isinstance(c, Channel)]
    return min(channels, key=lambda c: c.mode != APPEND, default=None)


@dataclass
class ChannelStats:
    batches: int = 0
    rows_written: int = 0
    rows_replaced: int = 0
    write_failures: int = 0
    last_close: float = None


class Channel:
    """CREATE CHANNEL name FROM derived_stream INTO table APPEND|REPLACE."""

    def __init__(self, name: str, source, table, txn_manager,
                 mode: str = APPEND):
        if mode not in (APPEND, REPLACE):
            raise StreamingError(f"unknown channel mode {mode!r}")
        if len(table.schema) != len(source.schema):
            raise ConstraintError(
                f"channel {name!r}: stream produces {len(source.schema)} "
                f"columns but table {table.name!r} has {len(table.schema)}"
            )
        self.name = name
        self.source = source
        self.table = table
        self.mode = mode
        #: the table column that holds each window's close time: where
        #: the source CQ projects a bare ``cq_close(*)``, through the
        #: positional stream -> table mapping.  None (a raw stream, or a
        #: CQ that does not project it): nothing to rebuild a window
        #: grid from, so no active-table recovery
        cq = getattr(source, "cq", None)
        position = _close_position(cq) if cq is not None else None
        self.close_column = (None if position is None
                             else table.schema.columns[position].name)
        self._txn_manager = txn_manager
        self.stats = ChannelStats()
        self._attached = False
        self.faults = None  # optional FaultInjector (channel.write)
        self.flush_timer = None  # obs histogram timing each window write

    def attach(self) -> None:
        if not self._attached:
            self.source.subscribe(self)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.source.unsubscribe(self)
            self._attached = False

    # -- consumer protocol ----------------------------------------------------

    def on_batch(self, rows, open_time: float, close_time: float) -> None:
        """Store one window's result transactionally."""
        self.write("window", rows, open_time, close_time)

    def on_correction(self, kind: str, rows, open_time: float,
                      close_time: float) -> None:
        """A typed event-time record (retract / correct / early).

        REPLACE tables hold exactly the latest window, so a correction
        applies only when it targets that window — a stale correction
        for an older slice is skipped (the ordered run would have
        overwritten it anyway), which is what makes shuffled input
        converge to the ordered run's final contents.  ``retract`` is
        a no-op on REPLACE: the paired ``correct`` rewrites the table.

        APPEND tables keep every window: ``retract`` deletes the
        retracted rows, ``correct`` inserts the recomputed ones, and
        speculative ``early`` output is ignored (only finals are
        archived)."""
        if kind == "early":
            return
        if self.mode == REPLACE:
            last = self.stats.last_close
            if kind == "retract" or (last is not None and close_time < last):
                return  # its correct rewrites / a newer window owns it
        self.write(kind, rows, open_time, close_time)

    def write(self, kind: str, rows, open_time: float,
              close_time: float) -> None:
        """The channel's one transactional write: ``retract`` deletes
        ``rows``; anything else stores them — in place of the table's
        contents on REPLACE, after them on APPEND.  A failure (the
        ``channel.write`` crashpoint included) aborts the transaction,
        counts, and raises to the supervisor's retry when there is one."""
        timer = self.flush_timer
        started = time.perf_counter() if timer is not None else 0.0
        stats = self.stats
        txn = None
        try:
            if self.faults is not None:
                self.faults.check("channel.write", self.name)
            txn = self._txn_manager.begin()
            if kind == "retract":
                stats.rows_replaced += self._delete_rows(txn, rows)
            else:
                if self.mode == REPLACE:
                    stats.rows_replaced += self.table.row_count(
                        txn.snapshot, self._txn_manager)
                    self.table.truncate(txn)
                for row in rows:
                    self.table.insert(txn, row)
            txn.commit()
        except Exception:
            stats.write_failures += 1
            if txn is not None and txn.is_active():
                txn.abort()
            raise
        stats.batches += 1
        if kind != "retract":
            stats.rows_written += len(rows)
            if stats.last_close is None or close_time > stats.last_close:
                stats.last_close = close_time
        if timer is not None:
            timer.observe(time.perf_counter() - started)

    def _delete_rows(self, txn, rows) -> int:
        """Delete one stored copy of each retracted row (values are
        coerced through the table schema so they compare equal to what
        ``on_batch`` stored).  The heap is walked newest page first and
        the walk stops once every row is matched: a retracted window is
        at most the lateness bound old, so the cost follows how late the
        row was, not how large the table has grown."""
        from collections import Counter
        wanted = Counter(tuple(self.table.schema.coerce_row(r))
                         for r in rows)
        removed = 0
        for rid, version in self.table.heap.scan_newest_first(
                self.table._pool):
            if removed == len(rows):
                break
            key = tuple(version.values)
            if version.xmax is None and wanted.get(key):
                self.table.delete_version(txn, rid, version)
                wanted[key] -= 1
                removed += 1
        return removed

    def on_tuple(self, row: tuple, event_time: float) -> None:
        # a channel fed by a raw stream archives tuple-at-a-time
        self.on_batch([row], event_time, event_time)

    def on_heartbeat(self, event_time: float) -> None:
        pass

    def on_flush(self) -> None:
        pass
