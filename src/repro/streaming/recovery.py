"""Recovery of CQ runtime state after a crash (the paper's Section 4).

"Unlike a traditional RDBMS ... a Stream-Relational system needs to
recover runtime state as well as durable state."  The paper's answer is
to "rebuild runtime state from disk automatically" using the Active
Table the CQ already maintains, instead of checkpointing the internal
state of every operator — and that is the one way this engine does it:

- :func:`recover_cq` — the active table, else a cold start.  The
  archive's newest window close aligns the rebuilt CQ's grid, and
  :func:`replay_tail` feeds it the stream's retained tail from there.

- :func:`replay_tail` — the one way window state comes back.  Every
  rebuild — at boot and at promotion — walks the tail through the
  CQ's own window operator and its window entry, each row judged by
  the watermark it was delivered under, so a replayed row meets
  exactly what it met live — a window whose evaluation raised live
  raises again, and the replay walks past it.

No extra I/O is paid during normal operation.  The stream source must
retain a replayable tail (``retention`` on the stream, or the log a
boot replays), standing in for the message broker a production
deployment would re-read.  Experiment E8 measures the trade against the
per-operator checkpointing the paper argues against, which lives next
to it as the benchmark's strawman.
"""

from __future__ import annotations

import logging
from typing import Optional

from repro.errors import RecoveryError
from repro.streaming.channels import archive_of
from repro.streaming.cq import ContinuousQuery
from repro.streaming.windows import TimeWindowOperator

NEG_INF = float("-inf")

log = logging.getLogger("repro.recovery")


def recover_from_active_table(cq: ContinuousQuery, table, txn_manager,
                              stime_column: str) -> Optional[float]:
    """Rebuild ``cq``'s window state from the Active Table ``table``,
    whose ``stime_column`` holds each archived window's close.

    Aligns the CQ's window grid on the newest archived close, and
    replays the stream tail the operator would still hold live: the
    next window's rows, and under retract every row a still-correctable
    window sees — whose archived output becomes what a correction
    retracts.  Returns the replay start (None when the archive is empty
    and the CQ is left as it was built)."""
    op = cq._window_op
    if not isinstance(op, TimeWindowOperator):
        raise RecoveryError(
            "active-table recovery is implemented for time-window CQs")
    snapshot = txn_manager.take_snapshot()
    position = table.schema.index_of(stime_column)
    closes = {}
    for _rid, values in table.scan(snapshot, txn_manager):
        stime = values[position]
        if stime is not None:
            closes.setdefault(stime, []).append(tuple(values))
    if not closes:
        return None
    last_close = max(closes)

    def align():
        # the grid as the close at last_close left it: the next window
        # closes at last_close + advance, and one has closed already,
        # so a replayed older row never pulls the grid back
        op._base = last_close - op.advance
        op._boundary_index = 2
        if op.retention:
            cq._emitted = {close: rows for close, rows in closes.items()
                           if close >= last_close - op.retention}

    # what the aligned operator holds: rows at or after its horizon
    return replay_tail(cq, last_close + op.advance - op.visible
                       - op.retention, align, through=last_close)


def replay_tail(cq: ContinuousQuery, start: float, prepare=None,
                through: Optional[float] = None) -> float:
    """The one way window state comes back from the stream: feed
    ``cq``'s window operator every retained row at or after ``start``
    (``-inf``: whatever is retained), in arrival order, as the stream
    delivered it — each row judged by the watermark it was delivered
    under, the windows that watermark closed closed first — then close
    what the stream's watermark has closed since.  Closes, corrections
    and early results go through the CQ's window entry (a
    supervisor's handler, if any, included), which skips those at or
    before ``through``: they were already produced.

    Raises :class:`RecoveryError` when rows at or after ``start`` were
    evicted from the tail — before ``prepare()``, the caller's own
    change to the CQ, has run, so a refused replay leaves the CQ as it
    was built.  Returns ``start``."""
    stream = cq.stream
    if start != NEG_INF and stream.evicted_through >= start:
        raise RecoveryError(
            f"stream {stream.name!r} retention does not cover the replay "
            f"window (need {start}, have {stream.replay_horizon()})")
    if prepare is not None:
        prepare()
    op = cq._window_op
    # an event-time operator reads the replay's clock; an arrival-time
    # one closes on the rows themselves
    clock = [NEG_INF]
    wm_fn = getattr(op, "wm_fn", None)
    if wm_fn is not None:
        op.wm_fn = lambda: clock[0]
    cq.replay_through = NEG_INF if through is None else through
    try:
        for when, row, watermark in stream.replay_entries(start):
            if wm_fn is not None and watermark > clock[0]:
                clock[0] = watermark
                _walk(op.on_heartbeat, watermark)
            _walk(op.on_tuple, row, when)
        clock[0] = stream.watermark
        _walk(op.on_heartbeat, stream.watermark)
    finally:
        cq.replay_through = None
        if wm_fn is not None:
            op.wm_fn = wm_fn
    return start


def recover_cq(cq: ContinuousQuery, runtime) -> str:
    """Recover ``cq``'s window state: from the active table — the table
    of the channel that archives the CQ's derived stream
    (:func:`~repro.streaming.channels.archive_of`) through that
    channel's ``close_column`` — else a cold start.  A CQ that is not
    archived, or does not project a bare ``cq_close(*)``, comes back
    cold: the window grid is never guessed.  Returns ``"active-table"``
    / ``"cold"`` — or ``"empty-archive"``: there is an active table but
    it holds nothing to align to, ``cq`` is as it was built, and a
    caller with no subscribers yet (boot, promotion) may replay the
    stream's whole retained tail into it.  Raises
    :class:`RecoveryError` when the tail no longer covers the replay."""
    if not isinstance(cq._window_op, TimeWindowOperator):
        return "cold"
    channel = next((archive_of(derived)
                    for derived in runtime._derived_order
                    if derived.cq is cq), None)
    if channel is None or channel.close_column is None:
        return "cold"
    replayed = recover_from_active_table(
        cq, channel.table, runtime.txn_manager, channel.close_column)
    return "empty-archive" if replayed is None else "active-table"


def _walk(step, *args) -> None:
    """One replayed delivery.  A window whose evaluation raises is
    walked past, as the live stream did: the error reached that row's
    inserter then, and the operator is left where it left it."""
    try:
        step(*args)
    except Exception:
        log.debug("replay walked past a raise", exc_info=True)
