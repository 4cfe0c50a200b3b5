"""One partition worker: the full engine on one shard.

A worker hosts a plain :class:`~repro.core.database.Database` and
applies coordinator frames in order: DDL, partial-mode CQ creation,
ingest segments (rows + watermark/clock syncs), flush.  CQs run in
**partial mode**: the window operator's callbacks are replaced by one
ship function, so a window close ships the shard's mergeable partial
(and, under the retract policy, a late correction ships the recomputed
one) instead of finalized rows — the coordinator merges and finalizes.
A window whose evaluation raised ships as that failure, as data: the
frame keeps applying and the merge-stage CQ raises it in its window entry.

The module doubles as the subprocess entry point::

    python -m repro.partition.worker <host> <port> <worker_id> <nonce>

which pins the process to one CPU, connects back to the coordinator's
loopback listener, opens with the argv nonce's greeting, and runs
:func:`serve_frames`.  The inline transport runs the same
:func:`serve_frames` on a thread at the far end of a socketpair, so both
transports exchange the same bytes through the same loop, and both die
the same way: an injected ``partition.worker_crash`` ends the loop, its
caller closes the socket, and the coordinator reads an EOF.
"""

from __future__ import annotations

import os
import socket
import sys
from time import perf_counter
from typing import Optional

from repro.core.database import Database
from repro.errors import (FaultInjected, PartitionError, ProtocolError,
                          WorkerDiedError)
from repro.faults.injector import FaultInjector
from repro.partition import wire
from repro.partition.planner import partition_plan
from repro.partition.state import partial_to_wire


class WorkerEngine:
    """Frame handler for one worker, whichever transport serves it."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.db = Database()
        self.faults: Optional[FaultInjector] = None
        self._cqs = {}      # cq name -> cq
        self._out = []      # partial frames queued during apply

    # -- partial-mode CQ ----------------------------------------------------

    def create_cq(self, name: str, sql: str, params=None,
                  vectorize: bool = True) -> None:
        """Create the per-partition half of a CQ: parse the same SQL,
        plan it locally, then replace the window operator's callbacks
        with one that ships the window as a partial.

        ``vectorize`` mirrors the coordinator's executor choice so both
        sides aggregate with the same operator class and the partial
        state representations line up."""
        from repro.sql.parser import parse_statement
        from repro.sql import ast

        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise PartitionError(f"worker CQ {name!r}: not a SELECT")
        runtime = self.db.runtime
        saved = runtime.vectorize
        runtime.vectorize = vectorize
        try:
            cq = runtime.create_cq(statement, name=name, params=params)
        finally:
            runtime.vectorize = saved
        cq.split_at(partition_plan(cq).agg)
        op = cq._window_op

        def ship(kind):
            # every close ships: a shard with no rows in a window reports
            # an (empty) partial, or the coordinator could not tell
            # "empty" from "still open"
            def shipper(window, open_time, close_time):
                if self.faults is not None and self.faults.armed:
                    self.faults.check("partition.worker_crash",
                                      f"{name}:{close_time}")
                partial = cq.window_partial(window, open_time, close_time)
                self._out.append({
                    "type": "partial", "cq": name, "kind": kind,
                    "close": close_time,
                    "partial": partial_to_wire(partial),
                })
            return shipper

        op.sink = ship("final")
        if cq.is_event_time():
            # late corrections recompute the shard's contribution; the
            # coordinator re-merges and emits the retract/correct pair
            op.on_correction = ship("correct")
        self._cqs[name] = cq

    # -- frame dispatch -----------------------------------------------------

    def handle(self, msg: dict) -> list:
        """Apply one coordinator frame; returns response frames, the
        last of which is an ``ack`` (or a single ``error`` frame).  The
        ack's ``busy_s`` is the wall time spent in here, so the
        coordinator can tell a slow worker from a slow hop.  A
        ``partition.worker_crash`` fault is *not* folded into an error
        frame — it propagates, so the transport dies exactly as a real
        worker crash would."""
        started = perf_counter()
        self._out = []
        try:
            ack = self._dispatch(msg)
        except Exception as exc:            # noqa: BLE001 — one frame,
            if getattr(exc, "crashpoint", "") == "partition.worker_crash":
                raise
            return [{"type": "error", "error": type(exc).__name__,
                     "message": str(exc)}]  # typed for the coordinator
        ack["busy_s"] = perf_counter() - started
        return self._out + [ack]

    def _dispatch(self, msg: dict) -> dict:
        op = msg.get("op")
        if op == "ddl":
            self.db.execute(msg["sql"])
            return self._ack()
        if op == "cq":
            self.create_cq(msg["name"], msg["sql"], msg.get("params"),
                           msg.get("vectorize", True))
            return self._ack()
        if op == "stopcq":
            cq = self._cqs.pop(msg["name"], None)
            if cq is not None:
                self.db.runtime.stop_cq(cq)
            return self._ack()
        if op == "ingest":
            return self._ingest(msg)
        if op == "flush":
            self.db.flush_streams()
            return self._ack()
        if op == "explain":
            return self._ack(explain=self._cqs[msg["name"]].explain(
                analyze=msg.get("analyze", False)))
        if op == "arm_fault":
            if self.faults is None:
                self.faults = FaultInjector(seed=msg.get("seed", 0))
            self.faults.arm(msg["crashpoint"],
                            probability=msg.get("probability", 1.0),
                            count=msg.get("count"),
                            after=msg.get("after", 0))
            return self._ack()
        if op == "ping":
            return self._ack()
        if op == "stop":
            return self._ack(stopping=True)
        raise PartitionError(f"unknown worker op {op!r}")

    def _ingest(self, msg: dict) -> dict:
        stream = self.db.runtime.get_stream(msg["stream"])
        accepted = dropped = 0
        for segment in msg["segments"]:
            kind = segment[0]
            if kind == "rows":
                _kind, rows, at = segment
                counts = stream.insert_many_counted(rows, at=at)
                accepted += counts["accepted"]
                dropped += counts["dropped"]
            elif kind == "wm":
                stream.advance_to(segment[1])
            else:
                raise PartitionError(f"unknown segment kind {kind!r}")
        return self._ack(watermark=stream.watermark,
                         counts={"accepted": accepted, "dropped": dropped})

    def _ack(self, **extra) -> dict:
        ack = {"type": "ack", "worker": self.worker_id}
        ack.update(extra)
        return ack


def pin_to_cpu(worker_id: int) -> None:
    """One worker per core, the coordinator floats.  Left to the
    scheduler, the worker a ``sendall`` wakes is placed on the sender's
    core and preempts it mid-scatter, so the shards run one after the
    other.  More workers than CPUs wrap around and timeshare."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[(worker_id + 1) % len(cpus)]})


def serve_frames(engine: WorkerEngine, sock) -> int:
    """Answer coordinator frames until the socket closes or a ``stop``
    frame arrives.  Every response — however many partials ride in
    front of its ack — is one write.  An injected worker crash returns
    like a SIGKILL would end the worker: no error frame, and the
    caller's close of the socket is the coordinator's EOF."""
    while True:
        try:
            frames = engine.handle(wire.recv_frame(sock))
            wire.send_frames(sock, frames)
        except FaultInjected:
            return 0        # the injected crash: no error frame
        except (WorkerDiedError, ProtocolError):
            return 0        # the coordinator went away
        if frames[-1].get("stopping"):
            return 0


def serve(host: str, port: int, worker_id: int, nonce: str) -> int:
    """Subprocess main loop: connect back, greet, serve frames."""
    pin_to_cpu(worker_id)
    engine = WorkerEngine(worker_id)
    with socket.create_connection((host, port)) as sock:
        wire.no_delay(sock)
        sock.sendall(wire.hello(worker_id, nonce))
        return serve_frames(engine, sock)


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 4:
        print("usage: python -m repro.partition.worker "
              "<host> <port> <worker_id> <nonce>", file=sys.stderr)
        return 2
    host, port, worker_id, nonce = argv
    try:
        return serve(host, int(port), int(worker_id), nonce)
    except KeyboardInterrupt:
        return 0    # stray terminal signal; the coordinator owns us


if __name__ == "__main__":
    sys.exit(main())
