"""The per-database observability facade.

``Database`` creates one :class:`Observability` and threads it through
the stack: streams call :meth:`on_ingest`, CQs call
:meth:`on_window_close` / :meth:`trace_window`, storage and server
components register callback gauges via the ``bind_*`` helpers.  When
constructed with ``enabled=False`` every hook degrades to (nearly) a
no-op and the registry hands out null instruments.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import List, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer, Trace

log = logging.getLogger("repro.obs")

#: at most this many sampled-but-unclosed tuples are parked per stream
PENDING_TRACE_CAP = 64


def walk_operators(root):
    """Preorder (operator, depth, parent_index) walk of a plan tree."""
    out = []

    def visit(op, depth, parent_index):
        index = len(out)
        out.append((op, depth, parent_index))
        for child in op._children():
            visit(child, depth + 1, index)

    visit(root, 0, None)
    return out


def instrument_plan(root) -> None:
    """Attach per-operator counters to every operator under ``root``."""
    for op, _depth, _parent in walk_operators(root):
        op.instrument()


class Observability:
    """Registry + tracer + slow-window log, bound to one Database."""

    def __init__(self, enabled: bool = True, sample_rate: float = 0.01,
                 keep_traces: int = 128, slow_window_keep: int = 256):
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(sample_rate=sample_rate if enabled else 0.0,
                             keep=keep_traces)
        #: SET slow_window_ms threshold; None = logging off
        self.slow_window_ms: Optional[float] = None
        self.slow_windows: deque = deque(maxlen=slow_window_keep)
        self._lock = threading.Lock()
        # window-side instruments, resolved once
        self._h_window = self.registry.histogram("cq.window_seconds")
        self._h_e2e = self.registry.histogram("cq.e2e_seconds")
        # streams bound via bind_stream; their tuples_in counts are
        # summed at snapshot time so ingest pays nothing for the metric
        self._streams: list = []
        if enabled:
            self.registry.gauge(
                "stream.tuples_in",
                fn=lambda: sum(s.tuples_in for s in self._streams))

    # ------------------------------------------------------------------
    # ingest side
    # ------------------------------------------------------------------
    def bind_stream(self, stream) -> None:
        """Arm a stream for sampling.  The stream keeps the every-Nth
        countdown inline (one int check per untraced tuple) and calls
        :meth:`start_trace` only when it hits zero."""
        if not self.enabled:
            return
        stream.obs = self
        stream._trace_countdown = self.tracer._interval
        self._streams.append(stream)

    def start_trace(self, stream, event_time: float) -> None:
        """The stream's countdown expired: start a trace for this tuple
        and re-arm the countdown (a rate of 0 disarms it)."""
        stream._trace_countdown = self.tracer._interval
        if not stream._trace_countdown:
            return
        trace = self.tracer.start()
        trace.add_span(f"source:{stream.name}", None, time.time(), 0.0)
        pending = stream._pending_traces
        pending.append((event_time, trace))
        if len(pending) > PENDING_TRACE_CAP:
            pending.pop(0)

    def retune_streams(self) -> None:
        """Re-arm every bound stream after a sample-rate change."""
        interval = self.tracer._interval
        for stream in self._streams:
            stream._trace_countdown = interval

    @staticmethod
    def take_traces(stream, close_time: float,
                    inclusive: bool = False) -> List[Trace]:
        """Claim parked traces whose tuples fall before ``close_time``
        (or at it, for windowless transforms with ``inclusive``)."""
        pending = getattr(stream, "_pending_traces", None)
        if not pending:
            return []
        if inclusive:
            taken = [tr for et, tr in pending if et <= close_time]
            if taken:
                stream._pending_traces = [
                    (et, tr) for et, tr in pending if et > close_time]
        else:
            taken = [tr for et, tr in pending if et < close_time]
            if taken:
                stream._pending_traces = [
                    (et, tr) for et, tr in pending if et >= close_time]
        return taken

    # ------------------------------------------------------------------
    # window side
    # ------------------------------------------------------------------
    def on_window_close(self, cq, duration: float,
                        close_time: float) -> None:
        """Record window-close latency; log if over slow_window_ms."""
        self._h_window.observe(duration)
        threshold = self.slow_window_ms
        if threshold is not None and duration * 1000.0 >= threshold:
            cq.stats.slow_windows += 1
            entry = (time.time(), cq.name, close_time,
                     round(duration * 1000.0, 3))
            with self._lock:
                self.slow_windows.append(entry)
            log.warning("slow window: cq=%s close=%s took %.3f ms "
                        "(threshold %.1f ms)", cq.name, close_time,
                        duration * 1000.0, threshold)

    def trace_window(self, cq, traces: List[Trace], plan_root,
                     op_before, start_wall: float, exec_seconds: float,
                     emit_seconds: float) -> None:
        """Close out sampled tuples that fell inside this window."""
        now_pc = time.perf_counter()
        ops_after = None
        if op_before is not None:
            ops_after = [(op, op.stats.tuples_out, op.stats.wall_seconds)
                         for op, _d, _p in walk_operators(plan_root)
                         if op.stats is not None]
        for trace in traces:
            root = trace.root_id
            window = trace.add_span(f"window:{cq.name}", root,
                                    start_wall, exec_seconds)
            if ops_after is not None:
                before = {id(op): (t, w) for op, t, w in op_before}
                for op, tuples_out, wall in ops_after:
                    t0, w0 = before.get(id(op), (0, 0.0))
                    trace.add_span(
                        f"op:{op._describe()}", window.span_id,
                        start_wall, max(0.0, wall - w0))
            trace.add_span(f"emit:{cq.name}", window.span_id,
                           start_wall + exec_seconds, emit_seconds)
            self._h_e2e.observe(max(0.0, now_pc - trace.ingest_pc))
            self.tracer.finish(trace)

    # ------------------------------------------------------------------
    # component bindings (callback gauges: zero hot-path cost)
    # ------------------------------------------------------------------
    def bind_storage(self, storage) -> None:
        if not self.enabled:
            return
        pool, wal = storage.pool, storage.wal
        reg = self.registry
        reg.gauge("buffer.hits", fn=lambda: pool.hits)
        reg.gauge("buffer.misses", fn=lambda: pool.misses)
        reg.gauge("buffer.evictions", fn=lambda: pool.evictions)
        reg.gauge("wal.appends", fn=lambda: wal.head_lsn)
        reg.gauge("wal.flushes", fn=lambda: wal.flush_count)
        wal.flush_timer = reg.histogram("wal.flush_seconds")

    def bind_wal_lifecycle(self, lifecycle) -> None:
        if not self.enabled:
            return
        reg = self.registry

        def segs():
            return lifecycle.wal.segments

        reg.gauge("wal.live_bytes",
                  fn=lambda: segs().live_bytes() if segs() else 0)
        reg.gauge("wal.live_segments",
                  fn=lambda: segs().live_count() if segs() else 0)
        reg.gauge("wal.archive_bytes",
                  fn=lambda: segs().archive_bytes() if segs() else 0)
        reg.gauge("wal.segments_archived",
                  fn=lambda: lifecycle.segments_archived)
        reg.gauge("wal.backups", fn=lambda: lifecycle.backups)
        reg.gauge("wal.scrub_errors", fn=lambda: lifecycle.scrub_errors)

    def bind_channel(self, channel) -> None:
        if not self.enabled:
            return
        channel.flush_timer = self.registry.histogram(
            "channel.flush_seconds")

    def bind_server(self, server) -> None:
        if not self.enabled:
            return
        reg = self.registry
        server._c_frames_in = reg.counter("server.frames_in")
        server._c_frames_out = reg.counter("server.frames_out")
        reg.gauge("server.sessions", fn=lambda: len(server.sessions))

    def bind_admission(self, controller) -> None:
        if not self.enabled:
            return
        reg = self.registry
        reg.gauge("admission.batches_admitted",
                  fn=lambda: controller.batches_admitted)
        reg.gauge("admission.batches_rejected",
                  fn=lambda: controller.batches_rejected)
        reg.gauge("admission.batches_shed",
                  fn=lambda: controller.batches_shed)
        reg.gauge("admission.rows_admitted",
                  fn=lambda: controller.rows_admitted)
        reg.gauge("admission.rows_rejected",
                  fn=lambda: controller.rows_rejected)
        reg.gauge("admission.rows_shed",
                  fn=lambda: controller.rows_shed)
        reg.gauge("admission.duplicates",
                  fn=lambda: controller.dedup.duplicates)
        reg.gauge("admission.tier", fn=controller.tier)

    def bind_replication_primary(self, manager) -> None:
        if not self.enabled:
            return

        def ship_lag():
            peers = list(manager.peers.values())
            if not peers:
                return 0
            head = manager.db.storage.wal.head_lsn
            return max(max(0, head - p.acked_lsn) for p in peers)

        self.registry.gauge("replication.ship_lag", fn=ship_lag)

    def bind_replication_standby(self, controller) -> None:
        if not self.enabled:
            return

        def apply_lag():
            return max(0, controller.head_seen
                       - controller.applier.applied_lsn)

        self.registry.gauge("replication.apply_lag", fn=apply_lag)
