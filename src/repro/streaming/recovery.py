"""Recovery of CQ runtime state after a crash (the paper's Section 4).

"Unlike a traditional RDBMS ... a Stream-Relational system needs to
recover runtime state as well as durable state."  Two strategies are
implemented, exactly the two the paper contrasts:

- :class:`CheckpointManager` — "periodically checkpoint the internal
  state of the various CQ operators".  Pays WAL I/O on every checkpoint
  during normal operation; recovery reads the latest checkpoint and
  replays the stream tail after it.

- :func:`recover_from_active_table` — the paper's preferred strategy:
  "rebuild runtime state from disk automatically" using the Active Table
  the CQ was already maintaining.  No extra I/O during normal operation;
  recovery reads the archive's high-water mark and replays just enough of
  the stream tail to rebuild the in-flight window.

Both assume the stream source retains a replayable tail (``retention`` on
the stream), standing in for the message broker a production deployment
would re-read.  Experiment E8 measures the trade: steady-state overhead
vs recovery I/O, with identical post-recovery output.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RecoveryError
from repro.streaming.channels import archive_of
from repro.streaming.cq import ContinuousQuery
from repro.streaming.windows import TimeWindowOperator


def capture_window_state(cq: ContinuousQuery) -> dict:
    """Serialize a CQ's window-operator state (plain data, no pickling).

    The replay point is derived from the buffered rows, not the stream's
    watermark: the tuple whose arrival triggered the current window close
    has already advanced the watermark but is not yet buffered, and must
    be replayed after a crash.
    """
    op = cq._window_op
    if not isinstance(op, TimeWindowOperator):
        raise RecoveryError(
            "checkpointing is implemented for time-window CQs")
    points = op.points()
    if points:
        replay_after = max(when for when, _row in points)
        replay_from = None
    else:
        replay_after = None
        if op._base is not None:
            # everything at/after the eviction horizon would be buffered
            replay_from = (op._base + op._boundary_index * op.advance
                           - op.visible)
        else:
            replay_from = float("-inf")
    state = {
        "buffer": [(when, list(row)) for when, row in points],
        "base": op._base,
        "boundary_index": op._boundary_index,
        "replay_after": replay_after,
        "replay_from": replay_from,
        "last_close": cq.stats.last_close,
    }
    if cq._emitted:
        # what each still-correctable window emitted (RETRACT only, and
        # bounded by its lateness allowance): a late row after the restart
        # must retract exactly this
        state["emitted"] = [[close, [list(row) for row in rows]]
                            for close, rows in cq._emitted.items()]
    return state


def restore_window_state(cq: ContinuousQuery, state: dict) -> None:
    """Install a captured state into a freshly-built CQ."""
    op = cq._window_op
    if not isinstance(op, TimeWindowOperator):
        raise RecoveryError(
            "checkpoint restore needs a time-window CQ")
    # plain data in any order: the operator files the rows on its slice
    # grid, and a sliced one reduces them at the next close over them
    op.load((when, tuple(row)) for when, row in state["buffer"])
    op._base = state["base"]
    op._boundary_index = state["boundary_index"]
    # absent when nothing was correctable, and in older checkpoints
    cq._emitted = {close: [tuple(row) for row in rows]
                   for close, rows in state.get("emitted", ())}


class CheckpointManager:
    """Checkpoint a CQ's operator state to the WAL every N windows."""

    def __init__(self, cq: ContinuousQuery, wal, every_windows: int = 1):
        self.cq = cq
        self.wal = wal
        self.every_windows = max(1, every_windows)
        self.checkpoints_taken = 0
        self._windows_since = 0
        cq.add_sink(self._on_window)

    def _on_window(self, kind, rows, open_time, close_time) -> None:
        if kind != "window":
            return      # only a final moves the window grid
        self._windows_since += 1
        if self._windows_since < self.every_windows:
            return
        self._windows_since = 0
        payload = capture_window_state(self.cq)
        payload["close_time"] = close_time
        # checkpoint records are durability-critical: force them out,
        # paying the I/O the paper says this strategy costs
        self.wal.append(0, "cq_checkpoint", self.cq.name, payload=payload,
                        flush=True)
        self.checkpoints_taken += 1

    @staticmethod
    def recover(new_cq: ContinuousQuery, wal) -> float:
        """Restore ``new_cq`` from the latest checkpoint and replay the
        stream tail after it.  Returns the replay start time.

        The caller attaches ``new_cq`` *after* this returns.
        """
        payload = wal.latest_checkpoint(new_cq.name)
        if payload is None:
            raise RecoveryError(
                f"no checkpoint found for CQ {new_cq.name!r}")
        last_close = payload.get("close_time")

        def restore():
            restore_window_state(new_cq, payload)
            if last_close is not None:
                _suppress_through(new_cq, last_close)
        replay_after = payload.get("replay_after")
        if replay_after is not None:
            return replay_tail(new_cq, replay_after, restore,
                               after=replay_after)
        return replay_tail(
            new_cq, payload.get("replay_from", float("-inf")), restore)


def recover_from_active_table(new_cq: ContinuousQuery, table, txn_manager,
                              stime_column: str) -> Optional[float]:
    """The paper's strategy: rebuild CQ state from its Active Table.

    Reads the archive's maximum window-close timestamp, aligns the fresh
    CQ's window grid to it, and replays the stream tail that overlaps the
    first unfinished window.  Returns the replay start time (None when
    the archive is empty and the CQ simply starts cold).
    """
    op = new_cq._window_op
    if not isinstance(op, TimeWindowOperator):
        raise RecoveryError(
            "active-table recovery is implemented for time-window CQs")

    snapshot = txn_manager.take_snapshot()
    position = table.schema.index_of(stime_column)
    last_close = None
    for _rid, values in table.scan(snapshot, txn_manager):
        stime = values[position]
        if stime is not None and (last_close is None or stime > last_close):
            last_close = stime
    if last_close is None:
        return None

    def align():
        # the next window closes at last_close + advance
        op._base = last_close
        op._boundary_index = 1
        _suppress_through(new_cq, last_close)

    # tuples contributing to the next window lie in
    # [last_close + advance - visible, last_close + advance)
    return replay_tail(new_cq, last_close + op.advance - op.visible, align)


def replay_tail(cq: ContinuousQuery, start: float, prepare=None,
                after: Optional[float] = None) -> float:
    """The one way window state comes back from the stream: feed
    ``cq``'s operator every retained point at or after ``start`` (``-inf``:
    whatever is retained; strictly after ``after`` when given).  Raises
    :class:`RecoveryError` when the tail no longer reaches back to
    ``start`` — before ``prepare()``, the rung's own change to the CQ,
    has run, so a refused rung leaves the CQ as it was built.  Returns
    the replay start (``inf``: nothing retained)."""
    stream = cq.stream
    if start == float("-inf"):
        start = stream.replay_horizon()
    else:
        _check_replayable(stream, start)
    if prepare is not None:
        prepare()
    if start != float("inf"):
        op = cq._window_op
        for when, row in stream.replay_since(start):
            if after is None or when > after:
                op.on_tuple(row, when)
    return start


def recover_cq(cq: ContinuousQuery, runtime,
               fall_through: bool = False) -> str:
    """The CQ-recovery ladder: latest ``cq_checkpoint`` in the runtime's
    log, else the active table — the table of the channel that archives
    the CQ's derived stream (:func:`~repro.streaming.channels.archive_of`)
    through that channel's ``close_column`` — else a cold start.  A CQ
    that is not archived, or does not project a bare ``cq_close(*)``,
    has no active-table rung: the window grid is never guessed.
    Returns the name of the rung that recovered ``cq``: ``"checkpoint"``
    / ``"active-table"`` / ``"cold"`` — or ``"empty-archive"``: there is
    an active table but it holds nothing to align to, ``cq`` is as it
    was built, and a caller with no subscribers yet (boot, promotion)
    may replay the stream's whole retained tail into it.  A rung that
    raises :class:`RecoveryError` propagates it — unless ``fall_through``,
    which tries the next rung instead (the supervisor: a restart must
    come back with whatever state it can get)."""
    if not isinstance(cq._window_op, TimeWindowOperator):
        return "cold"
    wal = runtime.txn_manager.wal
    rungs = []
    if wal is not None and wal.latest_checkpoint(cq.name) is not None:
        rungs.append(("checkpoint",
                      lambda: CheckpointManager.recover(cq, wal)))
    channel = next((archive_of(derived)
                    for derived in runtime._derived_order
                    if derived.cq is cq), None)
    if channel is not None and channel.close_column is not None:
        rungs.append(("active-table", lambda: recover_from_active_table(
            cq, channel.table, runtime.txn_manager, channel.close_column)))
    for name, recover in rungs:
        try:
            # only the active-table rung answers None: nothing archived
            return name if recover() is not None else "empty-archive"
        except RecoveryError:
            if not fall_through:
                raise
    return "cold"


def _suppress_through(cq: ContinuousQuery, last_close: float) -> None:
    """Wrap the CQ's emission so windows already produced are dropped:
    the operator's live sink — the window entry — whoever put it there."""
    op = cq._window_op
    original = op.sink

    def guarded(rows, open_time, close_time):
        if close_time > last_close + 1e-9:
            original(rows, open_time, close_time)
    op.sink = guarded


def _check_replayable(stream, replay_from: float) -> None:
    horizon = stream.replay_horizon()
    if horizon > replay_from and horizon != float("inf") \
            and stream.watermark >= replay_from:
        # data that should be replayed has already been evicted
        if horizon > replay_from + 1e-9:
            raise RecoveryError(
                f"stream {stream.name!r} retention does not cover the "
                f"replay window (need {replay_from}, have {horizon})"
            )
