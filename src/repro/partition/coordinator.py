"""The partition coordinator: N workers, one merged answer stream.

:class:`PartitionedEngine` wraps a regular :class:`Database` and shards
every ``PARTITION BY`` stream's rows across N workers by consistent
hash of the declared key (NULL keys take the spill lane).  Each worker
runs the full engine on its shard with partition-eligible CQs rewired
to ship mergeable window partials (see :mod:`repro.partition.worker`);
the coordinator mirrors the global window boundary grid, gates each
close on the **minimum acked worker watermark** (min-of-inputs merge,
:class:`~repro.eventtime.watermark.WatermarkMerge`), merges the shard
partials, and runs the CQ's unchanged post-aggregate plan with the
aggregate pinned to the merged rows — output is the single-engine
output, bit for bit.

Unpartitioned streams (and their CQs) pass straight through to the
local database.  Partitioned streams keep a **silent** local twin for
the catalog and the system views: no rows are ever delivered to it and
the coordinator CQ's window operator is detached, so only the merge
stage can emit.

Worker lifecycle: a worker that dies (socket drop, injected
``partition.worker_crash``, SIGKILL) is respawned and replayed from the
coordinator's per-worker log of acked frames, then synced to the
current watermark — stale finals for already-merged boundaries are
ignored and re-sent corrections converge via compare-and-skip, so a
crash is invisible in the output.  Crashpoints ``partition.route`` (the
router dies before any shard is sent: batch refused atomically) and
``partition.merge`` (the merge stage dies before emitting: partials
retained, boundary stays pending) cover the coordinator's own hot path.
"""

from __future__ import annotations

import math
import os
import socket
import subprocess
import sys
from typing import Dict, List, Optional

from repro.core.database import Database
from repro.core.results import Subscription
from repro.errors import (
    FaultInjected,
    OutOfOrderError,
    PartitionError,
    StreamingError,
    WorkerDiedError,
)
from repro.eventtime.lateness import RETRACT
from repro.eventtime.watermark import WatermarkMerge
from repro.partition import wire
from repro.partition.hashring import HashRing
from repro.partition.planner import partition_plan
from repro.partition.worker import WorkerEngine
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.streaming.streams import DROP

NEG_INF = float("-inf")

#: key→worker memo cap per stream (beyond it, hash every row)
_MEMO_LIMIT = 1 << 16
#: replay-log prune cadence, in ingest batches per stream
_PRUNE_EVERY = 64


# -- worker transports --------------------------------------------------------


class _InlineHandle:
    """In-process worker.  Every frame still round-trips through the
    wire encoding, so serialization is exercised identically to the
    subprocess transport — and an injected worker crash kills the
    handle exactly as a SIGKILL kills a subprocess: state gone, no
    error frame, only a :class:`WorkerDiedError` on use."""

    kind = "inline"

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.engine = WorkerEngine(worker_id)
        self.alive = True

    @property
    def pid(self) -> int:
        return os.getpid()

    def request(self, msg: dict) -> list:
        if not self.alive:
            raise WorkerDiedError(f"worker {self.worker_id} is down")
        try:
            frames = self.engine.handle(wire.roundtrip(msg))
        except FaultInjected as exc:
            self.alive = False
            raise WorkerDiedError(
                f"worker {self.worker_id} crashed "
                f"({getattr(exc, 'crashpoint', 'fault')})") from exc
        return [wire.roundtrip(frame) for frame in frames]

    def kill(self) -> None:
        self.alive = False

    def close(self) -> None:
        if self.alive:
            try:
                self.request({"op": "stop"})
            except (WorkerDiedError, PartitionError):
                pass
        self.alive = False


class _ProcessHandle:
    """Subprocess worker connected over a loopback socket.

    The coordinator listens, the worker connects back and authenticates
    with a nonce handed over argv — nothing outside the process tree
    can impersonate a worker, which is what makes the pickle wire
    format safe."""

    kind = "process"

    def __init__(self, worker_id: int, listener: socket.socket,
                 host: str, port: int, timeout: float = 30.0):
        self.worker_id = worker_id
        self.alive = True
        nonce = os.urandom(16).hex()
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_root if not existing
                             else src_root + os.pathsep + existing)
        # start_new_session detaches the worker from the terminal's
        # process group: a Ctrl-C aimed at the coordinator must not
        # SIGINT the shards — they shut down via stop frame or socket
        # close, and a mid-frame signal would look like a crash
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.partition.worker",
             host, str(port), str(worker_id), nonce],
            env=env, start_new_session=True)
        listener.settimeout(timeout)
        try:
            conn, _addr = listener.accept()
        except socket.timeout:
            self.proc.kill()
            raise PartitionError(
                f"worker {worker_id} did not connect back within "
                f"{timeout}s")
        hello = wire.recv_frame(conn)
        if (hello.get("type") != "hello"
                or hello.get("worker") != worker_id
                or hello.get("nonce") != nonce):
            conn.close()
            self.proc.kill()
            raise PartitionError(
                f"worker {worker_id}: bad hello handshake")
        conn.settimeout(timeout)
        self.sock = conn

    @property
    def pid(self) -> int:
        return self.proc.pid

    def request(self, msg: dict) -> list:
        if not self.alive:
            raise WorkerDiedError(f"worker {self.worker_id} is down")
        try:
            wire.send_frame(self.sock, msg)
            frames = []
            while True:
                frame = wire.recv_frame(self.sock)
                frames.append(frame)
                if frame.get("type") in ("ack", "error"):
                    return frames
        except (WorkerDiedError, socket.timeout) as exc:
            self.alive = False
            try:
                self.sock.close()
            except OSError:
                pass
            if isinstance(exc, socket.timeout):
                raise WorkerDiedError(
                    f"worker {self.worker_id} timed out") from exc
            raise

    def kill(self) -> None:
        self.alive = False
        try:
            self.proc.kill()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def close(self) -> None:
        if self.alive:
            try:
                self.request({"op": "stop"})
            except (WorkerDiedError, PartitionError):
                pass
        self.alive = False
        try:
            self.sock.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def reap(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover
            pass


# -- per-stream router --------------------------------------------------------


class _StreamRoute:
    """Routing + clock state for one partitioned stream.

    The router is the stream's single point of order: for arrival-order
    streams it enforces global monotonicity itself (so every shard sees
    a monotone sub-sequence and workers never drop), and for event-time
    streams it mirrors the global watermark tracker and interleaves
    ``("wm", t)`` sync segments so each worker judges lateness against
    exactly the watermark the single engine would have used."""

    def __init__(self, stream, ring: HashRing, n_workers: int):
        self.stream = stream            # the silent local twin
        self.name = stream.name
        self.ring = ring
        self.n = n_workers
        self.key_index = stream.schema.index_of(stream.partition_by)
        self.cqtime_index = stream.cqtime_index
        self.system_time = stream.cqtime_mode == "system"
        self.tracker = stream.tracker   # event-time mirror (None = arrival)
        self.clock = NEG_INF            # arrival-order delivered clock
        self.max_time = NEG_INF         # max event time ever routed
        self.wm_merge = WatermarkMerge(range(n_workers))
        #: watermark as of the last fully-acked batch — the respawn
        #: fast-forward may only sync this far, or the retried
        #: in-flight frame's rows would arrive below the fresh
        #: worker's watermark
        self.completed_wm = NEG_INF
        self._sent_wm = [NEG_INF] * n_workers
        self._memo: Dict[object, int] = {}
        self.rows_routed = [0] * n_workers
        self.spill_rows = [0] * n_workers
        self.batches = 0
        self.cqs: List["_PartitionedCQ"] = []

    def worker_for(self, key) -> int:
        if key is None:
            return self.ring.spill_worker
        memo = self._memo
        try:
            return memo[key]
        except KeyError:
            worker = self.ring.worker_for(key)
            if len(memo) < _MEMO_LIMIT:
                memo[key] = worker
            return worker
        except TypeError:                 # unhashable key value
            return self.ring.worker_for(key)

    def current_watermark(self) -> float:
        return self.tracker.watermark if self.tracker is not None \
            else self.clock

    def route_batch(self, rows, at, watermark):
        """Split one ingest batch into per-worker segment lists.

        Returns ``({worker: segments}, counts)``.  Segments are
        ``("rows", [row, ...], at)`` runs interleaved with ``("wm", t)``
        watermark syncs, in exact delivery order."""
        n = self.n
        segs: List[list] = [[] for _ in range(n)]
        runs: List[Optional[list]] = [None] * n
        accepted = dropped = 0
        tracker = self.tracker
        key_index = self.key_index
        time_index = self.cqtime_index
        if self.system_time:
            t_sys = float(at) if at is not None else max(self.clock, 0.0)
            seg_at = t_sys
        else:
            seg_at = at
        # grid-mirror updates are only needed while some CQ's boundary
        # grid is still starting (or, event-time, still rebase-able: no
        # heartbeat has closed its first boundary yet)
        watch_grid = any(
            pcq.base is None
            or (pcq.event_time
                and pcq.heartbeat_wm < pcq.base + pcq.advance)
            for pcq in self.cqs)
        for row in rows:
            if self.system_time:
                t = t_sys
            else:
                t = row[time_index]
                if t is None:
                    raise StreamingError(
                        f"stream {self.name!r}: CQTIME value is NULL")
            if tracker is None:
                # the router is the disorder gate; refusal is atomic
                # (nothing has been sent yet), unlike the single
                # engine's row-at-a-time raise — see docs/PARTITION.md
                if t < self.clock:
                    if self.stream.disorder_policy == DROP:
                        dropped += 1
                        continue
                    raise OutOfOrderError(
                        f"stream {self.name!r}: event time {t} is before "
                        f"watermark {self.clock}")
                if t > self.clock:
                    self.clock = t
                pre = t
            else:
                pre = tracker.watermark
            key = row[key_index]
            worker = self.worker_for(key)
            if tracker is not None and self._sent_wm[worker] < pre:
                # the worker must judge this row's lateness against the
                # same watermark the single engine would have
                runs[worker] = None
                segs[worker].append(("wm", pre))
                self._sent_wm[worker] = pre
            run = runs[worker]
            if run is None:
                run = []
                runs[worker] = run
                segs[worker].append(("rows", run, seg_at))
            run.append(tuple(row))
            self.rows_routed[worker] += 1
            if key is None:
                self.spill_rows[worker] += 1
            accepted += 1
            if watch_grid:
                for pcq in self.cqs:
                    if pcq.base is None:
                        pcq.start_at(t)
                    elif (pcq.event_time and t < pcq.base
                          and pcq.heartbeat_wm < pcq.base + pcq.advance):
                        # mirror of the event-time operator's rebase: an
                        # earlier row pulls the first close back while
                        # no heartbeat has closed anything yet (late
                        # rows rebase too — the operator checks the
                        # grid before judging lateness)
                        pcq.start_at(t)
                watch_grid = any(
                    pcq.event_time
                    and pcq.heartbeat_wm < pcq.base + pcq.advance
                    for pcq in self.cqs)
            if tracker is not None:
                advanced = tracker.observe(t)
                if advanced is not None:
                    self._heartbeat(advanced)
            if t > self.max_time:
                self.max_time = t
        if tracker is not None:
            if watermark is not None:
                advanced = tracker.inject(watermark)
                if advanced is not None:
                    self._heartbeat(advanced)
            wm_now = tracker.watermark
        else:
            if watermark is not None and watermark > self.clock:
                self.clock = watermark
            wm_now = self.clock
        # trailing sync: every worker reaches the global watermark so
        # shard windows close and partials ship with this batch's acks
        for worker in range(n):
            if self._sent_wm[worker] < wm_now:
                segs[worker].append(("wm", wm_now))
                self._sent_wm[worker] = wm_now
        self.batches += 1
        self._mirror_local(accepted, dropped, wm_now)
        out = {worker: segs[worker] for worker in range(n) if segs[worker]}
        return out, {"accepted": accepted, "shed": 0, "dropped": dropped}

    def _heartbeat(self, wm: float) -> None:
        """Mirror of the event-time stream's heartbeat broadcast: each
        watermark *advance* licenses closes up to the new value for
        every CQ whose grid existed at that moment."""
        for pcq in self.cqs:
            if pcq.event_time and pcq.base is not None \
                    and wm > pcq.heartbeat_wm:
                pcq.heartbeat_wm = wm

    def sync_segments(self, t: float) -> dict:
        """Watermark-only segments (explicit advance / injection)."""
        if self.tracker is not None:
            advanced = self.tracker.inject(t)
            if advanced is not None:
                self._heartbeat(advanced)
            wm_now = self.tracker.watermark
        else:
            if t > self.clock:
                self.clock = t
            wm_now = self.clock
        out = {}
        for worker in range(self.n):
            if self._sent_wm[worker] < wm_now:
                out[worker] = [("wm", wm_now)]
                self._sent_wm[worker] = wm_now
        self._mirror_local(0, 0, wm_now)
        return out

    def _mirror_local(self, accepted: int, dropped: int,
                      wm_now: float) -> None:
        """Keep the silent local twin's counters honest for the system
        views (and the retract bookkeeping, which prunes remembered
        output against ``stream.watermark``).  Plain field writes — the
        twin has no consumers, so nothing can fire."""
        stream = self.stream
        stream.tuples_in += accepted
        stream.tuples_dropped += dropped
        if self.tracker is not None:
            stream.watermark = self.tracker.watermark
            stream.raw_watermark = self.tracker.max_event_time
        elif wm_now > stream.watermark:
            stream.watermark = wm_now
            stream.raw_watermark = wm_now


# -- per-CQ boundary grid -----------------------------------------------------


class _PartitionedCQ:
    """Coordinator state for one partitioned CQ: the mirror of the
    global window boundary grid plus the shard-partial store."""

    def __init__(self, cq, agg, route: _StreamRoute):
        self.cq = cq
        self.agg = agg
        self.route = route
        self.name = cq.name
        spec = cq.window_spec
        self.visible = float(spec.visible)
        self.advance = float(spec.advance)
        self.event_time = cq.is_event_time()
        self.retract = self.event_time and cq.late_policy == RETRACT
        self.retain_extra = (cq.allowed_lateness + self.advance
                             if self.retract else 0.0)
        self.base: Optional[float] = None
        self.index = 1
        self.flushed = False
        # event-time closes are licensed by watermark-advance heartbeats
        # observed *after* the grid (re)started — a grid rebased below
        # the current watermark stays open until the next advance (or
        # flush), exactly like EventTimeWindowOperator.on_heartbeat
        self.heartbeat_wm = math.inf if not self.event_time else NEG_INF
        #: close boundary -> {worker: (groups, shard_row_count)}
        self.store: Dict[float, Dict[int, tuple]] = {}
        self.merged = set()

    def start_at(self, event_time: float) -> None:
        # identical arithmetic to TimeWindowOperator._start_at
        self.base = math.floor(event_time / self.advance) * self.advance
        self.index = 1
        if self.event_time:
            self.heartbeat_wm = NEG_INF

    def next_boundary(self) -> Optional[float]:
        if self.base is None:
            return None
        return self.base + self.index * self.advance

    def prune_horizon(self) -> float:
        """Rows below this event time can no longer contribute to any
        unmerged window or in-bound recomputation of this CQ."""
        boundary = self.next_boundary()
        if boundary is None:
            return NEG_INF
        return boundary - self.visible - self.retain_extra


# -- the engine ---------------------------------------------------------------


class PartitionedEngine:
    """N-worker partitioned execution behind the one-database API.

    ``transport="inline"`` hosts workers in-process (every frame still
    round-trips the wire encoding); ``transport="process"`` spawns one
    subprocess per worker over loopback sockets.
    """

    def __init__(self, partitions: int = 2, transport: str = "inline",
                 db: Optional[Database] = None, replicas: int = 64,
                 spawn_timeout: float = 30.0):
        if partitions < 1:
            raise PartitionError("need at least one partition")
        if transport not in ("inline", "process"):
            raise PartitionError(f"unknown transport {transport!r}")
        self.partitions = partitions
        self.transport = transport
        self.spawn_timeout = spawn_timeout
        self.db = db if db is not None else Database()
        self.db.partition_registry = self.status_rows
        self.ring = HashRing(partitions, replicas=replicas)
        self.faults = None              # coordinator-side FaultInjector
        self._listener = None
        self._host = "127.0.0.1"
        self._port = 0
        if transport == "process":
            self._listener = socket.socket(socket.AF_INET,
                                           socket.SOCK_STREAM)
            self._listener.bind((self._host, 0))
            self._listener.listen(partitions + 2)
            self._port = self._listener.getsockname()[1]
        self._handles = [self._spawn(w) for w in range(partitions)]
        self._routes: Dict[str, _StreamRoute] = {}
        self._pcqs: Dict[str, _PartitionedCQ] = {}
        self._corrections: List[tuple] = []
        #: per-worker ordered log of acked frames, for restart-replay:
        #: ("ddl"|"cq"|"flush"|"stopcq", msg, None) or
        #: ("ingest", msg, max_event_time)
        self._logs: List[list] = [[] for _ in range(partitions)]
        self._broadcast_names = set()
        self.restarts = [0] * partitions
        self.replayed_batches = [0] * partitions
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, worker: int):
        if self.transport == "inline":
            return _InlineHandle(worker)
        return _ProcessHandle(worker, self._listener, self._host,
                              self._port, timeout=self.spawn_timeout)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- statement dispatch -------------------------------------------------

    def execute(self, sql: str, params=None):
        """Run one TruSQL statement, partition-aware: CQs over
        ``PARTITION BY`` streams split into per-worker aggregation plus
        a coordinator merge stage; everything else passes through to
        the local database."""
        statement = parse_statement(sql)
        self._guard_statement(statement)
        if isinstance(statement, ast.Insert) \
                and statement.table in self._routes:
            # SQL INSERT into a partitioned stream must route like
            # ingest() — the local twin is silent, so rows delivered
            # to it would vanish from every partitionized CQ
            from repro.core.database import _count
            stream = self.db.get_stream(statement.table)
            rows = self.db._insert_rows(statement, stream.schema)
            counts = self.ingest(statement.table, rows)
            return _count(counts["accepted"])
        result = self.db.execute(sql, params)
        if isinstance(statement, ast.CreateStream):
            self._register_stream(statement, sql)
        elif isinstance(statement, ast.CreateView):
            self._broadcast_ddl(statement.name, sql)
        elif isinstance(result, Subscription):
            cq = result.cq
            refs = getattr(cq, "streams", None) or [cq.stream]
            if any(s.name in self._routes for s in refs):
                try:
                    self._partitionize(cq, sql, params)
                except PartitionError:
                    result.close()
                    raise
        return result

    def query(self, sql: str, params=None):
        return self.db.query(sql, params)

    def _guard_statement(self, statement) -> None:
        if not self._routes:
            return
        if isinstance(statement, (ast.CreateDerivedStream, ast.CreateView)):
            query = statement.query
        elif isinstance(statement, ast.CreateChannel):
            if statement.source in self._routes:
                raise PartitionError(
                    f"channel {statement.name!r}: cannot source from "
                    f"partitioned stream {statement.source!r}")
            return
        else:
            return
        from repro.streaming.cq import find_stream_refs
        try:
            refs = find_stream_refs(query.from_clause, self.db.catalog)
        except Exception:
            return      # unresolvable refs fail later, in the planner
        partitioned = [r.name for r in refs if r.name in self._routes]
        if partitioned and isinstance(statement, ast.CreateDerivedStream):
            raise PartitionError(
                f"derived stream {statement.name!r}: deriving from "
                f"partitioned stream {partitioned[0]!r} is not supported "
                "(the derived CQ would run unpartitioned; see "
                "docs/PARTITION.md)")

    def _register_stream(self, statement: ast.CreateStream,
                         sql: str) -> None:
        stream = self.db.get_stream(statement.name)
        if stream.name in self._routes:
            return                      # IF NOT EXISTS re-run
        self._broadcast_ddl(stream.name, sql)
        if stream.partition_by is None:
            return
        if stream.slack > 0:
            raise PartitionError(
                f"stream {stream.name!r}: SLACK reordering is per-shard "
                "state and cannot be partitioned")
        self._routes[stream.name] = _StreamRoute(stream, self.ring,
                                                 self.partitions)

    def _broadcast_ddl(self, name: str, sql: str) -> None:
        if name in self._broadcast_names:
            return
        self._broadcast_names.add(name)
        msg = {"op": "ddl", "sql": sql}
        for worker in range(self.partitions):
            self._request(worker, msg, record=("ddl", msg, None))

    def _partitionize(self, cq, sql: str, params) -> None:
        split = partition_plan(cq)
        route = self._routes.get(split.stream_name)
        if route is None:
            raise PartitionError(
                f"CQ {cq.name!r}: stream {split.stream_name!r} is not "
                "partitioned")
        msg = {"op": "cq", "name": cq.name, "sql": sql, "params": params,
               "vectorize": self.db.runtime.vectorize}
        for worker in range(self.partitions):
            self._request(worker, msg, record=("cq", msg, None))
        # detach the coordinator CQ's window operator from the silent
        # local twin: only the merge stage may emit
        cq.detach()
        pcq = _PartitionedCQ(cq, split.agg, route)
        route.cqs.append(pcq)
        self._pcqs[cq.name] = pcq

    def _drop_pcq(self, pcq: _PartitionedCQ) -> None:
        pcq.route.cqs.remove(pcq)
        self._pcqs.pop(pcq.name, None)
        msg = {"op": "stopcq", "name": pcq.name}
        for worker in range(self.partitions):
            try:
                self._request(worker, msg, record=("stopcq", msg, None))
            except (WorkerDiedError, PartitionError):
                pass

    # -- ingest -------------------------------------------------------------

    def ingest(self, name: str, rows, at: Optional[float] = None,
               watermark: Optional[float] = None,
               sender: Optional[str] = None,
               seq: Optional[int] = None) -> dict:
        """Apply one ingest batch; same counted-ack shape as
        :meth:`Database.ingest_batch`."""
        route = self._routes.get(name)
        if route is None:
            return self.db.ingest_batch(name, rows, at=at, sender=sender,
                                        seq=seq, watermark=watermark)
        rows = [rows] if rows and not isinstance(rows[0], (tuple, list)) \
            else list(rows)
        idempotent = sender is not None and seq is not None
        if idempotent:
            sender, seq = str(sender), int(seq)
            if self.db.admission.dedup.seen(name, sender, seq):
                counts = {"accepted": 0, "shed": 0, "dropped": 0,
                          "duplicate": len(rows)}
                if route.tracker is not None:
                    counts["watermark"] = route.current_watermark()
                return counts
        if self.faults is not None and self.faults.armed:
            # before any shard send: an injected router death refuses
            # the whole batch atomically — nothing partial to undo
            self.faults.check("partition.route", name)
        segments, counts = route.route_batch(rows, at, watermark)
        for worker, segs in segments.items():
            msg = {"op": "ingest", "stream": name, "segments": segs}
            ack = self._request(worker, msg,
                                record=("ingest", msg, route.max_time))
            self._note_ack(route, worker, ack)
        if idempotent:
            self.db.admission.dedup.record(name, sender, seq)
        route.completed_wm = route.current_watermark()
        # corrections first: the single engine emits a late row's
        # retract/correct pair during delivery, before the heartbeat
        # that closes newer windows
        self._process_corrections()
        self._drive(route)
        if route.batches % _PRUNE_EVERY == 0:
            self._prune_logs(route)
        counts["duplicate"] = 0
        if route.tracker is not None:
            counts["watermark"] = route.current_watermark()
        return counts

    def insert(self, name: str, values, at: Optional[float] = None) -> dict:
        return self.ingest(name, [values], at=at)

    def advance(self, event_time: float) -> None:
        """Heartbeat every stream — local ones directly, partitioned
        ones via watermark segments to every worker."""
        self.db.advance_streams(event_time)
        for route in self._routes.values():
            self._sync_route(route, event_time)

    def inject_watermark(self, name: str, watermark: float) -> float:
        route = self._routes.get(name)
        if route is None:
            return self.db.inject_watermark(name, watermark)
        self._sync_route(route, watermark)
        return route.current_watermark()

    def _sync_route(self, route: _StreamRoute, event_time: float) -> None:
        segments = route.sync_segments(event_time)
        for worker, segs in segments.items():
            msg = {"op": "ingest", "stream": route.name, "segments": segs}
            ack = self._request(worker, msg,
                                record=("ingest", msg, route.max_time))
            self._note_ack(route, worker, ack)
        route.completed_wm = route.current_watermark()
        self._process_corrections()
        self._drive(route)

    def flush(self) -> None:
        """End-of-input: every pending window out, merged."""
        self.db.flush_streams()
        msg = {"op": "flush"}
        for worker in range(self.partitions):
            self._request(worker, msg, record=("flush", msg, None))
        for route in self._routes.values():
            self._drive_flush(route)
        self._process_corrections()

    def _note_ack(self, route: _StreamRoute, worker: int,
                  ack: dict) -> None:
        wm = ack.get("watermark")
        if wm is not None and wm > NEG_INF:
            route.wm_merge.update(worker, wm)

    # -- merge stage --------------------------------------------------------

    def _drive(self, route: _StreamRoute) -> None:
        """Close every boundary the min-of-inputs worker watermark has
        passed, in grid order, one merged emission per boundary."""
        for pcq in list(route.cqs):
            if not pcq.cq._running:
                self._drop_pcq(pcq)
                continue
            gate = route.wm_merge.merged
            if pcq.heartbeat_wm < gate:
                # the single engine has not *heard* about this watermark
                # yet (no advance since the grid last rebased), so its
                # operator has these boundaries still open
                gate = pcq.heartbeat_wm
            while True:
                boundary = pcq.next_boundary()
                if boundary is None or boundary > gate:
                    break
                self._merge_boundary(pcq, boundary)

    def _drive_flush(self, route: _StreamRoute) -> None:
        # mirror of TimeWindowOperator.on_flush: close while a routed
        # row is still visible to the next window; sticky like the op's
        # _flushed flag
        for pcq in list(route.cqs):
            if not pcq.cq._running:
                self._drop_pcq(pcq)
                continue
            if pcq.flushed:
                continue
            pcq.flushed = True
            while True:
                boundary = pcq.next_boundary()
                if boundary is None \
                        or boundary - pcq.visible > route.max_time:
                    break
                self._merge_boundary(pcq, boundary)

    def _merge_boundary(self, pcq: _PartitionedCQ,
                        boundary: float) -> None:
        if self.faults is not None and self.faults.armed:
            # before emitting: an injected merge death leaves the
            # partials stored and the boundary pending — the next
            # drive retries and emits exactly once
            self.faults.check("partition.merge", f"{pcq.name}:{boundary}")
        entry = pcq.store.get(boundary, {})
        parts = [entry.get(w) for w in range(self.partitions)]
        total = sum(p[1] for p in parts if p is not None)
        pcq.index += 1
        pcq.merged.add(boundary)
        if total or pcq.cq.emit_empty:
            groups = pcq.agg.merge_partials(
                [p[0] if p is not None else {} for p in parts])
            self._emit_merged(pcq, groups, boundary)
        self._prune_store(pcq)

    def _emit_merged(self, pcq: _PartitionedCQ, groups: dict,
                     boundary: float) -> None:
        """Finalize merged partials and run the CQ's unchanged
        post-aggregate plan with the aggregate pinned to the result —
        sinks, stats, EXPLAIN counters and retract bookkeeping all
        behave exactly as in single-engine mode."""
        agg = pcq.agg
        agg.set_merged(agg.finalize(groups))
        try:
            pcq.cq._on_window([], boundary - pcq.visible, boundary)
        finally:
            agg.set_merged(None)

    def _absorb_partial(self, worker: int, frame: dict) -> None:
        pcq = self._pcqs.get(frame["cq"])
        if pcq is None:
            return
        boundary = frame["close"]
        if frame["kind"] == "final" and boundary in pcq.merged:
            return      # stale replay of an already-merged boundary
        entry = pcq.store.setdefault(boundary, {})
        entry[worker] = (frame["groups"], frame["rows"])
        if frame["kind"] == "correct":
            # fire even when the coordinator never merged this boundary:
            # the operator's late-row recompute is grid-independent
            # (any boundary <= watermark), so it corrects windows it
            # never emitted.  Every shard holding rows in that window
            # has reported them by now (as a final or its own
            # correction), so merging the stored partials is exact.
            self._corrections.append((pcq, boundary))

    def _process_corrections(self) -> None:
        while self._corrections:
            pcq, boundary = self._corrections.pop(0)
            if not pcq.cq._running:
                continue
            entry = pcq.store.get(boundary, {})
            parts = [entry.get(w) for w in range(self.partitions)]
            groups = pcq.agg.merge_partials(
                [p[0] if p is not None else {} for p in parts])
            agg = pcq.agg
            agg.set_merged(agg.finalize(groups))
            try:
                cq = pcq.cq
                ctx = cq._make_ctx(boundary - pcq.visible, boundary)
                out = list(cq._plan.execute(ctx))
                if out == cq._emitted.get(boundary):
                    # replayed (or no-op) correction: downstream state
                    # already matches — emitting a retract/correct pair
                    # here would un-converge idempotent consumers
                    continue
                cq._on_reopened([], boundary - pcq.visible, boundary)
            finally:
                agg.set_merged(None)

    def _prune_store(self, pcq: _PartitionedCQ) -> None:
        if not pcq.retract:
            for boundary in [b for b in pcq.store if b in pcq.merged]:
                del pcq.store[boundary]
            return
        # retract: merged partials stay recomputable for the lateness
        # bound, mirroring ContinuousQuery._remember_emitted's horizon
        horizon = (pcq.route.current_watermark() - pcq.retain_extra)
        if horizon == NEG_INF:
            return
        for boundary in [b for b in pcq.store
                         if b in pcq.merged and b < horizon]:
            del pcq.store[boundary]
            pcq.merged.discard(boundary)

    # -- worker lifecycle ---------------------------------------------------

    def _request(self, worker: int, msg: dict, record=None) -> dict:
        """Send one frame; on worker death, restart-with-replay and
        retry the frame once.  Partial frames riding the response are
        absorbed; the frame is logged only after its ack."""
        frames = None
        for attempt in (0, 1):
            handle = self._handles[worker]
            try:
                frames = handle.request(msg)
                break
            except WorkerDiedError:
                if attempt:
                    raise
                self._respawn(worker)
        ack = frames[-1]
        if ack.get("type") == "error":
            raise PartitionError(
                f"worker {worker}: {ack.get('error')}: "
                f"{ack.get('message')}")
        for frame in frames[:-1]:
            if frame.get("type") == "partial":
                self._absorb_partial(worker, frame)
        if record is not None:
            self._logs[worker].append(record)
        return ack

    def _respawn(self, worker: int) -> None:
        """Restart a dead worker and replay its acked frame log, then
        sync it to the current watermarks.  Replayed partials for
        already-merged boundaries are ignored; replayed corrections
        converge via compare-and-skip — the restart is invisible."""
        old = self._handles[worker]
        reap = getattr(old, "reap", None)
        if reap is not None:
            reap()
        self.restarts[worker] += 1
        handle = self._spawn(worker)
        self._handles[worker] = handle
        for kind, msg, _max_time in self._logs[worker]:
            frames = handle.request(msg)
            ack = frames[-1]
            if ack.get("type") == "error":
                raise PartitionError(
                    f"worker {worker} replay failed: {ack.get('error')}: "
                    f"{ack.get('message')}")
            for frame in frames[:-1]:
                if frame.get("type") == "partial":
                    self._absorb_partial(worker, frame)
            if kind == "ingest":
                self.replayed_batches[worker] += 1
                ack_wm = ack.get("watermark")
                stream = msg.get("stream")
                route = self._routes.get(stream)
                if route is not None and ack_wm is not None \
                        and ack_wm > NEG_INF:
                    route.wm_merge.update(worker, ack_wm)
        # fast-forward past pruned frames — only to the last *completed*
        # batch's watermark: the in-flight frame is about to be retried
        # and its rows must not land below the fresh worker's clock
        for route in self._routes.values():
            wm_now = route.completed_wm
            if wm_now == NEG_INF:
                continue
            sync = {"op": "ingest", "stream": route.name,
                    "segments": [("wm", wm_now)]}
            frames = handle.request(sync)
            for frame in frames[:-1]:
                if frame.get("type") == "partial":
                    self._absorb_partial(worker, frame)
            ack_wm = frames[-1].get("watermark")
            if ack_wm is not None and ack_wm > NEG_INF:
                route.wm_merge.update(worker, ack_wm)

    def _prune_logs(self, route: _StreamRoute) -> None:
        """Drop replayable ingest frames no unmerged window (nor any
        in-bound recomputation) can still need."""
        if route.cqs:
            horizon = min(pcq.prune_horizon() for pcq in route.cqs)
        else:
            horizon = route.current_watermark()
        if horizon == NEG_INF:
            return
        for worker in range(self.partitions):
            self._logs[worker] = [
                entry for entry in self._logs[worker]
                if not (entry[0] == "ingest"
                        and entry[1].get("stream") == route.name
                        and entry[2] < horizon)
            ]

    def kill_worker(self, worker: int) -> None:
        """Hard-kill one worker (tests and the smoke harness); the next
        frame it owes triggers restart-with-replay."""
        self._handles[worker].kill()

    def ping(self, worker: int) -> bool:
        """Health-check one worker, restarting it if dead."""
        try:
            self._request(worker, {"op": "ping"})
            return True
        except (WorkerDiedError, PartitionError):
            return False

    # -- faults -------------------------------------------------------------

    def arm_fault(self, crashpoint: str, worker: Optional[int] = None,
                  probability: float = 1.0, count: Optional[int] = 1,
                  after: int = 0, seed: int = 0) -> None:
        """Arm a crashpoint — coordinator-side (``partition.route``,
        ``partition.merge``) when ``worker`` is None, else shipped to
        that worker (``partition.worker_crash``)."""
        if worker is None:
            if self.faults is None:
                from repro.faults.injector import FaultInjector
                self.faults = FaultInjector(seed=seed)
            self.faults.arm(crashpoint, probability=probability,
                            count=count, after=after)
            return
        self._request(worker, {
            "op": "arm_fault", "crashpoint": crashpoint, "seed": seed,
            "probability": probability, "count": count, "after": after,
        })

    # -- observability ------------------------------------------------------

    def explain(self, name: str, analyze: bool = False) -> str:
        """The coordinator plan, plus per-partition operator stats for
        a partitioned CQ (``analyze`` shows each worker's live
        counters)."""
        cq = self.db._explain_target(name)
        text = cq.explain(analyze=analyze)
        if cq.name not in self._pcqs:
            return text
        pieces = [text]
        for worker in range(self.partitions):
            try:
                ack = self._request(worker, {
                    "op": "explain", "name": cq.name, "analyze": analyze})
                pieces.append(f"-- partition worker {worker} --\n"
                              + ack["explain"])
            except (WorkerDiedError, PartitionError) as exc:
                pieces.append(f"-- partition worker {worker} --\n"
                              f"(unavailable: {exc})")
        return "\n".join(pieces)

    def status_rows(self) -> List[tuple]:
        """One row per worker for the ``repro_partitions`` view."""
        rows = []
        routes = list(self._routes.values())
        for worker in range(self.partitions):
            handle = self._handles[worker]
            worker_wm = None
            lag = None
            for route in routes:
                acked = route.wm_merge.input_watermark(worker)
                if acked == NEG_INF:
                    continue
                worker_wm = acked if worker_wm is None \
                    else min(worker_wm, acked)
                current = route.current_watermark()
                if current > NEG_INF:
                    route_lag = max(0.0, current - acked)
                    lag = route_lag if lag is None else max(lag, route_lag)
            rows.append((
                worker,
                handle.pid,
                "up" if handle.alive else "down",
                handle.kind,
                len(routes),
                sum(route.rows_routed[worker] for route in routes),
                sum(route.batches for route in routes),
                sum(route.spill_rows[worker] for route in routes),
                worker_wm,
                lag,
                self.restarts[worker],
                self.replayed_batches[worker],
            ))
        return rows
