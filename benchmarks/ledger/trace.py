"""Span recorder and the wrapped-function set of the ledger's traced pass.

The ledger attributes time to layers without touching ``src/``:
:func:`install` replaces the public functions at each layer boundary
with timing wrappers, *from this file*.  Each wrapper keeps a per-thread
stack, so a layer's **self time** is its call's duration minus the part
covered by wrapped calls beneath it; the remainder of
``Database.ingest_batch`` / ``insert_stream`` that no wrapper claims is
reported, not hidden, as ``core.ingest_self_us_per_event``.

Three kinds of wrapper, chosen by call frequency:

* ``span``  — per frame / batch / window functions.  Self time is
  accumulated *and* a span ``(name, start, end, id, parent, trace)`` is
  kept in memory; the root span of a stack (one ingest frame, one
  query, one engine job) lends its id to everything beneath it.
* ``timer`` — per-row functions that do real work (``on_tuple``).  Self
  time and call count only; a span per row would cost more than the row.
* ``count`` — per-row functions too cheap to time (``BaseStream.insert``,
  ``Schema.coerce_row``): a call counter, nothing else.  Their time stays
  in the caller's self time (``streaming.ingest_self``).

Spans are written to ``results/trace_<label>.jsonl`` only when the
process ends (:meth:`Recorder.write`); nothing is written while timing.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional

_pc = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "totals", "spans", "thread")

    def __init__(self, thread: str):
        self.stack: list = []        # frames: [span_id, trace_id, child_time]
        self.totals: Dict[str, list] = {}   # name -> [self_s, incl_s, calls]
        self.spans: list = []
        self.thread = thread

    def total(self, name: str) -> list:
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0.0, 0.0, 0]
        return total


class Recorder:
    """In-memory span store shared by every wrapper in this process."""

    def __init__(self):
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._next_id = 0
        #: free-form per-process samples (queue waits, byte counts ...)
        self.samples: Dict[str, list] = {}
        self._originals: list = []   # (owner, attr, original) for uninstall

    # -- per-thread state ---------------------------------------------------

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def new_id(self) -> int:
        # a lost increment under a thread switch would only duplicate an
        # id across threads; ids are disambiguated by thread in the file
        self._next_id += 1
        return self._next_id

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """The ``span`` kind: self time, and a span kept in memory.
        ``on_result(args, result)`` runs after the timed region (byte
        counters and the like)."""
        recorder = self

        def wrapper(*args, **kwargs):
            state = recorder.state()
            stack = state.stack
            span_id = recorder.new_id()
            if stack:
                parent = stack[-1]
                frame = [span_id, parent[1], 0.0]
            else:
                parent = None
                frame = [span_id, span_id, 0.0]
            stack.append(frame)
            start = _pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _pc()
                stack.pop()
                elapsed = end - start
                total = state.total(name)
                total[0] += elapsed - frame[2]
                total[1] += elapsed
                total[2] += 1
                if parent is not None:
                    parent[2] += elapsed
                state.spans.append(
                    (name, start, end, span_id,
                     parent[0] if parent is not None else None, frame[1]))
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def timer(self, name: str, fn: Callable) -> Callable:
        """The ``timer`` kind: self time and call count, no span and no
        id of its own — spans beneath it hang from the span above it.
        Called once per row, so it calls nothing but ``fn`` and the
        clock."""
        local = self._local
        first_state = self.state
        new_id = self.new_id

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = first_state()
            stack = state.stack
            if stack:
                parent = stack[-1]
                frame = [parent[0], parent[1], 0.0]
            else:
                parent = None
                root = new_id()
                frame = [root, root, 0.0]
            stack.append(frame)
            start = _pc()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _pc() - start
                stack.pop()
                try:
                    total = state.totals[name]
                except KeyError:
                    total = state.totals[name] = [0.0, 0.0, 0]
                total[0] += elapsed - frame[2]
                total[1] += elapsed
                total[2] += 1
                if parent is not None:
                    parent[2] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        """The ``count`` kind: a call counter, nothing else."""
        local = self._local
        first_state = self.state

        def wrapper(*args, **kwargs):
            try:
                totals = local.state.totals
            except AttributeError:
                totals = first_state().totals
            try:
                totals[name][2] += 1
            except KeyError:
                totals[name] = [0.0, 0.0, 1]
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def bump(self, name: str) -> None:
        """Count one occurrence of ``name`` without wrapping anything."""
        self.state().total(name)[2] += 1

    def patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original)``; remembered so
        :meth:`uninstall` can put the original back."""
        try:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
        except (KeyError, AttributeError):
            raise RuntimeError(
                f"ledger: {owner.__name__}.{attr} no longer exists; "
                "install() wraps public functions only, so a layer's "
                "public surface changed") from None
        raw = original
        if isinstance(raw, (staticmethod, classmethod)):
            inner = raw.__func__
            wrapped = type(raw)(make(inner))
        else:
            wrapped = make(raw)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def add_sample(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    # -- read-out -----------------------------------------------------------

    def reset_totals(self) -> None:
        """Zero the per-function totals (between two phases of one
        process); spans and samples are kept for the file."""
        with self._lock:
            for state in self._states:
                state.totals.clear()

    def reset(self) -> None:
        """Forget everything recorded so far."""
        self.reset_totals()
        with self._lock:
            for state in self._states:
                state.spans.clear()
        self.samples.clear()

    def totals(self) -> Dict[str, dict]:
        """``{name: {"self_s", "incl_s", "calls"}}`` over all threads."""
        out: Dict[str, dict] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (self_s, incl_s, calls) in list(state.totals.items()):
                entry = out.setdefault(
                    name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
                entry["self_s"] += self_s
                entry["incl_s"] += incl_s
                entry["calls"] += calls
        return out

    def write(self, path: str) -> int:
        """Append every kept span to ``path`` as JSON lines."""
        written = 0
        with self._lock:
            states = list(self._states)
        with open(path, "a", encoding="utf-8") as handle:
            for state in states:
                for name, start, end, span_id, parent, trace in state.spans:
                    handle.write(json.dumps(
                        {"name": name, "start": start, "end": end,
                         "id": span_id, "parent": parent, "trace": trace,
                         "thread": state.thread},
                        separators=(",", ":")) + "\n")
                    written += 1
        return written


#: the one recorder of this process; :func:`install` wires wrappers to it
RECORDER = Recorder()


# ---------------------------------------------------------------------------
# the wrapped set: layer boundary -> span name.  Names are
# ``<layer>.<function>``; layers.py maps them to metrics.  Only public
# functions are wrapped — the ROADMAP's refactors rename internals, and a
# change that claims a gain may not edit the benchmark — and counts
# (windows, late rows, WAL records) are read from the engine's system
# views by the workloads, not from here.
# ---------------------------------------------------------------------------

def install(recorder: Recorder = RECORDER,
            late_bound: Optional[float] = None) -> Recorder:
    """Wrap every layer boundary the ledger reports on.  Idempotent per
    recorder; :meth:`Recorder.uninstall` reverses it.  ``late_bound`` is
    the stream's ``WATERMARK`` bound in seconds: with it the event-time
    operator's ``on_tuple`` is timed apart for rows below the watermark."""
    if recorder._originals:
        return recorder
    span = lambda name: (lambda fn: recorder.wrap(name, fn))           # noqa: E731
    timer = lambda name: (lambda fn: recorder.timer(name, fn))         # noqa: E731
    count = lambda name: (lambda fn: recorder.count(name, fn))         # noqa: E731

    from repro.admission.controller import AdmissionController
    from repro.catalog.schema import Schema
    from repro.core import database as database_module
    from repro.core.database import Database
    from repro.eventtime.operator import EventTimeWindowOperator
    from repro.exec.batch_ops import BatchAggregate
    from repro.exec.columnar import ColumnBatch
    from repro.exec.planner import Planner
    from repro import client as client_module
    from repro.server import protocol
    from repro.server.engine import SingleWriterExecutor
    from repro.storage.table import Table
    from repro.storage.wal import WriteAheadLog
    from repro.streaming.channels import Channel
    from repro.streaming.streams import BaseStream, DerivedStream
    from repro.streaming.windows import (
        SlicedTimeWindowOperator,
        TimeWindowOperator,
    )

    # core: the facade's ingest entry points (self time = remainder)
    recorder.patch(Database, "ingest_batch", span("core.ingest_batch"))
    recorder.patch(Database, "insert_stream", span("core.insert_stream"))
    # catalog
    recorder.patch(Schema, "coerce_rows", span("catalog.coerce_rows"))
    recorder.patch(Schema, "coerce_row", count("catalog.coerce_row"))
    # streaming: ingest, window operators, channels.  A window's close
    # runs inside the consumer call that triggers it, so the four
    # consumer entry points cover the operator's whole time.
    recorder.patch(BaseStream, "insert_many_counted",
                   span("streaming.insert_many_counted"))
    recorder.patch(BaseStream, "insert", count("streaming.insert"))
    recorder.patch(BaseStream, "advance_to", span("streaming.advance_to"))
    recorder.patch(BaseStream, "flush", span("streaming.flush"))
    for cls in (TimeWindowOperator, SlicedTimeWindowOperator,
                EventTimeWindowOperator):
        for attr, make in (("on_tuples", span("streaming.window.on_tuples")),
                           ("on_tuple", timer("streaming.window.on_tuple")),
                           ("on_heartbeat",
                            timer("streaming.window.on_heartbeat")),
                           ("on_flush", span("streaming.window.on_flush"))):
            if attr not in cls.__dict__:    # inherited: wrapped above
                continue
            if (late_bound is not None and attr == "on_tuple"
                    and cls is EventTimeWindowOperator):
                make = _late_timer(recorder, late_bound)
            recorder.patch(cls, attr, make)
    recorder.patch(Channel, "on_batch", span("streaming.channel.on_batch"))
    recorder.patch(Channel, "on_correction",
                   span("streaming.channel.on_correction"))
    recorder.patch(DerivedStream, "publish_correction",
                   _correction_counter(recorder))
    # exec: columnar batches and the mergeable aggregate
    recorder.patch(ColumnBatch, "from_rows", span("exec.from_rows"))
    for attr in ("partial_for_rows", "merge_partials", "finalize"):
        recorder.patch(BatchAggregate, attr, span(f"exec.aggregate.{attr}"))
    # storage
    recorder.patch(WriteAheadLog, "append", timer("storage.wal.append"))
    recorder.patch(WriteAheadLog, "flush", span("storage.wal.flush"))
    recorder.patch(Table, "insert", timer("storage.table.insert"))
    # sql + snapshot execution: ``execute`` minus its parse and plan
    # children is the dispatch and the result drain
    recorder.patch(database_module, "parse_statement", span("sql.parse"))
    recorder.patch(Planner, "plan_query", span("sql.plan"))
    recorder.patch(Database, "execute", span("exec.sq_execute"))
    # server: decode, admission, the engine queue, push encoding
    recorder.patch(protocol.FrameDecoder, "feed", span("server.decoder_feed"))
    recorder.patch(protocol, "decode_body", span("server.decode_body"))
    recorder.patch(protocol, "window_push", span("server.window_push"))
    recorder.patch(protocol, "encode_frame", _encode_wrapper(recorder))
    recorder.patch(AdmissionController, "admit", span("admission.admit"))
    recorder.patch(SingleWriterExecutor, "submit", _queue_wrapper(recorder))
    recorder.patch(SingleWriterExecutor, "submit_fair",
                   _queue_wrapper(recorder, fair=True))
    # client: the generator process's own encode (its name was bound
    # by ``from ... import`` so the server-side patch does not reach it)
    recorder.patch(client_module, "encode_frame", lambda fn: recorder.wrap(
        "client.encode", fn, on_result=lambda _a, data: recorder.add_sample(
            "client.wire_bytes", len(data))))
    _install_partition(recorder, span)
    return recorder


def _late_timer(recorder: Recorder, bound: float):
    """``EventTimeWindowOperator.on_tuple`` timed under its own name for
    rows below the watermark.  The wrapper judges lateness the way the
    stream does — against the highest event time delivered *before* this
    row, less the watermark bound — from the arguments alone, per
    operator; the workload checks its count against
    ``repro_watermarks.late_rows``."""
    def make(fn):
        late = recorder.timer("eventtime.late_on_tuple", fn)
        on_time = recorder.timer("streaming.window.on_tuple", fn)
        highest = weakref.WeakKeyDictionary()

        def wrapper(self, row, event_time):
            seen = highest.get(self)
            if seen is None or event_time > seen:
                highest[self] = event_time
            elif event_time < seen - bound:
                return late(self, row, event_time)
            return on_time(self, row, event_time)
        wrapper.__wrapped__ = fn
        return wrapper
    return make


def _correction_counter(recorder: Recorder):
    """``DerivedStream.publish_correction(kind, ...)``: count retracts."""
    def make(fn):
        def wrapper(self, kind, *args, **kwargs):
            if kind == "retract":
                recorder.bump("eventtime.retract")
            return fn(self, kind, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper
    return make


def _encode_wrapper(recorder: Recorder):
    """``protocol.encode_frame`` serves acks, results and pushes; window
    pushes are timed under their own name so ``push_encode`` is theirs
    alone."""
    def make(fn):
        push = recorder.wrap("server.encode_push", fn)
        other = recorder.wrap("server.encode_other", fn)

        def wrapper(payload):
            if isinstance(payload, dict) and payload.get("push") == "window":
                return push(payload)
            return other(payload)
        wrapper.__wrapped__ = fn
        return wrapper
    return make


def _queue_wrapper(recorder: Recorder, fair: bool = False):
    """Engine-queue wait and busy time: the submitted job is wrapped so
    its start (on the engine thread) can be set against its submission
    (on the event loop), and it becomes the root span of everything the
    engine does for it."""
    def make(submit):
        def run(fn, *args, **kwargs):
            return fn(*args, **kwargs)
        run = recorder.wrap("server.engine_job", run)

        def job_wrapper(fn):
            submitted = _pc()

            def job(*args, **kwargs):
                started = _pc()
                try:
                    return run(fn, *args, **kwargs)
                finally:
                    recorder.add_sample("server.queue_wait",
                                        (started, started - submitted))
                    recorder.add_sample("server.engine_jobs",
                                        (started, _pc()))
            return job

        if fair:
            def wrapper(self, lane, weight, fn, *args, **kwargs):
                return submit(self, lane, weight, job_wrapper(fn),
                              *args, **kwargs)
        else:
            def wrapper(self, fn, *args, **kwargs):
                return submit(self, job_wrapper(fn), *args, **kwargs)
        wrapper.__wrapped__ = submit
        return wrapper
    return make


def _install_partition(recorder: Recorder, span) -> None:
    from repro.partition import wire
    from repro.partition.coordinator import PartitionedEngine

    def sized(name):
        def on_result(args, result):
            recorder.add_sample(name, len(result))
        return on_result

    recorder.patch(wire, "encode_frame", lambda fn: recorder.wrap(
        "partition.wire.encode", fn,
        on_result=sized("partition.wire_bytes_out")))
    recorder.patch(wire, "decode_body", lambda fn: recorder.wrap(
        "partition.wire.decode", fn,
        on_result=lambda args, _r: recorder.add_sample(
            "partition.wire_bytes_in", len(args[0]))))
    recorder.patch(wire, "recv_frame", span("partition.wire.recv"))
    recorder.patch(wire, "send_frame", span("partition.wire.send"))
    recorder.patch(PartitionedEngine, "ingest", span("partition.ingest"))
    recorder.patch(PartitionedEngine, "advance", span("partition.advance"))
