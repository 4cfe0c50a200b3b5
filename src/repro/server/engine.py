"""The single-writer executor: many connections, one engine thread.

The embedded :class:`~repro.core.database.Database` is single-threaded
by construction — MVCC bookkeeping, the buffer pool and the streaming
runtime all assume one caller at a time.  Rather than sprinkle locks
through the engine, the server funnels *every* engine touch (statements,
ingest batches, heartbeats, subscription attach/detach) through one
dedicated worker thread.  Connections submit closures and await the
result; the queue is the serialization point, so the engine sees the
same world it sees embedded.

The queue is a :class:`~repro.admission.scheduler.WeightedFairQueue`:
tenanted session work goes through :meth:`SingleWriterExecutor.submit_fair`
onto a per-tenant lane and lanes are stride-scheduled by weight, so one
tenant's burst cannot monopolise the engine thread.  Untenanted work
(:meth:`submit` — replication apply, detach, the shutdown flush) rides
the strict-priority system lane and is never starved by client load.

This is also where subscription pushes originate: window sinks fire on
the engine thread during ingest/advance, hand their frames to the
owning session's outbound buffer, and wake that session's asyncio
writer with ``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Dict, Optional

from repro.admission.scheduler import WeightedFairQueue


class EngineClosed(RuntimeError):
    """Submit was called after the executor shut down."""


class SingleWriterExecutor:
    """A one-thread job queue with Future-based results."""

    def __init__(self, name: str = "repro-engine"):
        self._jobs = WeightedFairQueue()
        self._closed = False
        self.jobs_run = 0
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True)
        self._thread.start()

    # -- submission --------------------------------------------------------

    def submit(self, fn, *args, **kwargs) -> Future:
        """Queue ``fn(*args, **kwargs)`` on the system lane; the returned
        Future resolves with its result or exception."""
        if self._closed:
            raise EngineClosed("engine executor is shut down")
        future = Future()
        self._jobs.put((fn, args, kwargs, future))
        return future

    def submit_fair(self, lane: Optional[str], weight: float,
                    fn, *args, **kwargs) -> Future:
        """Queue on a tenant lane (``None`` lane = system lane)."""
        if self._closed:
            raise EngineClosed("engine executor is shut down")
        future = Future()
        self._jobs.put_fair(lane, weight, (fn, args, kwargs, future))
        return future

    def depth(self) -> int:
        """Jobs waiting (the admission controller's pressure signal)."""
        return self._jobs.qsize()

    def lane_depths(self) -> Dict[str, int]:
        """Queued jobs per tenant lane (observability)."""
        return self._jobs.lane_depths()

    def lane_served(self) -> Dict[str, int]:
        """Jobs served per tenant lane since startup (fairness tests)."""
        return self._jobs.lane_served()

    # -- worker ------------------------------------------------------------

    def _run(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:  # closed and fully drained
                return
            fn, args, kwargs, future = job
            if not future.set_running_or_notify_cancel():
                continue
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                future.set_exception(exc)
            else:
                future.set_result(result)
            self.jobs_run += 1

    # -- shutdown ----------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop accepting work, drain what was already queued, join.

        Draining (rather than discarding) matters for graceful server
        shutdown: the final flush job must actually run so in-flight
        windows reach their subscribers before sockets close.
        """
        if self._closed:
            return
        self._closed = True
        self._jobs.close()
        self._thread.join(timeout)
