"""Result objects: snapshot result sets and CQ subscriptions.

A :class:`Subscription` holds its CQ for the CQ's whole life and takes
the CQ's one record stream: every final, retract, correct and early
record becomes a :class:`WindowResult` of that ``kind``, in emission
order."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.types.temporal import format_timestamp


class ResultSet:
    """The answer to a snapshot query (or the row count of DML).

    "SQ's produce an answer and terminate" — Section 3.1.
    """

    def __init__(self, columns: List[str], rows: List[tuple],
                 rowcount: Optional[int] = None):
        self.columns = list(columns)
        self.rows = list(rows)
        self.rowcount = rowcount if rowcount is not None else len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def __bool__(self):
        return True

    def scalar(self):
        """The single value of a 1x1 result (raises otherwise)."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} rows"
            )
        return self.rows[0][0]

    def first(self) -> Optional[tuple]:
        return self.rows[0] if self.rows else None

    def pretty(self, max_rows: int = 20) -> str:
        """A fixed-width text rendering (for examples and debugging)."""
        shown = self.rows[:max_rows]
        cells = [[_render(v) for v in row] for row in shown]
        widths = [len(c) for c in self.columns]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        rule = "-+-".join("-" * w for w in widths)
        lines = [header, rule]
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self):
        return f"ResultSet({len(self.rows)} rows)"


def _render(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float) and value > 1e8:
        # heuristically a timestamp; render readably
        try:
            return format_timestamp(value)
        except Exception:
            return repr(value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass
class WindowResult:
    """One window's worth of CQ output.

    ``kind`` types event-time records: ``"window"`` is a final result;
    ``"retract"`` withdraws a previously delivered window, ``"correct"``
    replaces it (a late row re-opened the window under the ``RETRACT``
    lateness policy), and ``"early"`` is speculative output ahead of the
    watermark (``EMIT ON CHANGE`` / ``EMIT EVERY``).  ``watermark`` is
    the source stream's event-time watermark at delivery, when known.
    """

    rows: List[tuple]
    open_time: float
    close_time: float
    kind: str = "window"
    watermark: Optional[float] = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


class Subscription:
    """A handle on a running continuous query.

    "CQ's produce answers incrementally and run until they are explicitly
    terminated" — Section 3.1.  Results accumulate as windows close;
    :meth:`poll` drains them.
    """

    def __init__(self, cq, runtime):
        self._cq = cq
        self._runtime = runtime
        self._pending: List[WindowResult] = []
        self.closed = False
        cq.add_sink(self._on_record)

    @property
    def columns(self) -> List[str]:
        return list(self._cq.output_names)

    @property
    def cq(self):
        return self._cq

    @property
    def stats(self):
        return self._cq.stats

    def _on_record(self, kind, rows, open_time, close_time):
        self._pending.append(self._result(kind, rows, open_time, close_time))

    def _result(self, kind, rows, open_time, close_time) -> WindowResult:
        stream = getattr(self._cq, "stream", None)
        event_time = getattr(stream, "tracker", None) is not None
        return WindowResult(list(rows), open_time, close_time, kind=kind,
                            watermark=stream.watermark if event_time else None)

    def listen(self, callback) -> None:
        """Push mode: call ``callback(WindowResult)`` for every record
        :meth:`poll` would return — finals, and an event-time CQ's
        retract / correct / early records — instead of (or in addition
        to) polling."""
        self._cq.add_sink(lambda *record: callback(self._result(*record)))

    def stream_to(self, sink) -> None:
        """Switch to pure push mode: stop buffering records for
        :meth:`poll` and deliver every one to ``sink(kind, rows,
        open_time, close_time)`` instead.  Long-lived forwarders (the
        network server) use this so an unpolled subscription does not
        accumulate windows forever."""
        self._cq.remove_sink(self._on_record)
        self._pending.clear()
        self._cq.add_sink(sink)

    def poll(self) -> List[WindowResult]:
        """Drain and return the windows that closed since the last poll."""
        drained, self._pending = self._pending, []
        return drained

    def rows(self) -> List[tuple]:
        """Drain pending windows and return their rows, flattened."""
        out = []
        for window in self.poll():
            out.extend(window.rows)
        return out

    def latest(self) -> Optional[WindowResult]:
        """Drain and return only the most recent window (None if none)."""
        drained = self.poll()
        return drained[-1] if drained else None

    def close(self) -> None:
        """Terminate the CQ."""
        if not self.closed:
            self._runtime.stop_cq(self._cq)
            self.closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        state = "closed" if self.closed else "open"
        return f"Subscription({self._cq.name}, {state}, {len(self._pending)} pending)"
