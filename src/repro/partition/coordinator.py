"""The partition coordinator: N workers, one merged answer stream.

:class:`PartitionedEngine` wraps a regular :class:`Database` and shards
every ``PARTITION BY`` stream's rows across N workers by consistent
hash of the declared key (NULL keys take the spill lane).  Each worker
runs the full engine on its shard with partition-eligible CQs rewired
to ship mergeable window partials (see :mod:`repro.partition.worker`).

The coordinator's stream is the real one: every batch goes through
:meth:`Database.ingest_batch`, and a router subscribed to the stream
forwards what it delivers.  For each partitionized CQ the coordinator
runs the window operator the single engine would — it decides *when* a
boundary closes or a late row re-opens one — while the workers' partials
supply *what* the window holds: each recorded boundary is gated on the
**minimum acked worker watermark** (min-of-inputs merge,
:class:`~repro.eventtime.watermark.WatermarkMerge`), the shard partials
are handed, as the window, to the CQ's own window callbacks (the entry
its supervisor guards), and the CQ merges them and runs its unchanged
post-aggregate plan with the aggregate pinned to the merged rows —
output, poison windows included, is the single engine's, bit for bit.
A CQ with a :meth:`~repro.streaming.cq.ContinuousQuery.partition_refusal`,
a derived stream, a channel or a ``since=`` replay reads the same
stream and runs on the coordinator like on any single engine.

Every exchange with the workers — a pump's ingest frames, a flush, a
DDL or CQ broadcast — scatters all its frames before it gathers any
ack (``PartitionedEngine._exchange``), so the shards work at the same
time.  An ``ingest`` goes one step further and returns with its frames
unanswered (the *flight*): the next call reads those acks, so the
coordinator ingests and routes batch n+1 while the workers work on
batch n.  Visibility rule: a window an ``ingest`` closed is merged by
the next call that feeds or reads the engine, at the latest; one any
other call closed, by that call; and every one by :meth:`drain` or
``flush``.

Worker lifecycle: a worker is a thread or a subprocess serving frames
over a socket, and its death — an injected ``partition.worker_crash``
(the frame loop returns and its end is closed), ``kill_worker`` or a
SIGKILL — is the same EOF on either transport.  It is respawned and
replayed from the coordinator's per-worker log of acked frames, which
ends at the last acked watermark — a final never replaces one already
absorbed and replayed corrections only overwrite what is stored, so a
crash is invisible in the output.  Crashpoints
``partition.route`` (the router dies before the stream sees a row:
batch refused whole) and
``partition.merge`` (the merge stage dies before emitting: partials
retained, boundary stays pending) cover the coordinator's own hot path.
A boundary whose emission was *attempted* has left the pending list: an
evaluation error is the CQ's (quarantined under supervision, else
raised once to the caller of the call that merges it), never a wedge.
"""

from __future__ import annotations

import hmac
import os
import selectors
import socket
import subprocess
import sys
import threading
from collections import deque
from time import monotonic, perf_counter
from typing import Dict, List, Optional

from repro.core.database import Database
from repro.core.results import Subscription
from repro.errors import PartitionError, WorkerDiedError
from repro.eventtime.watermark import WatermarkMerge
from repro.partition import wire
from repro.partition.hashring import SPILL_WORKER, HashRing
from repro.partition.state import partial_from_wire
from repro.partition.worker import WorkerEngine, serve_frames
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.streaming.streams import StreamConsumer
from repro.streaming.windows import Partials

NEG_INF = float("-inf")

#: key→worker memo cap per stream (beyond it, hash every row)
_MEMO_LIMIT = 1 << 16
#: replay-log prune cadence, in ingest batches per stream
_PRUNE_EVERY = 64


# -- worker transports --------------------------------------------------------


def _serve_inline(engine: WorkerEngine, sock: socket.socket) -> None:
    """An inline worker's thread: the subprocess's frame loop, then its
    end of the socketpair closed — the EOF its death is to the handle."""
    with sock:
        serve_frames(engine, sock)


class _WorkerHandle:
    """One worker at the far end of a socket, whichever way it runs.

    ``"process"`` spawns ``python -m repro.partition.worker``: the
    coordinator listens, the worker connects back and opens with a raw
    greeting carrying the nonce it was handed over argv.  Any local
    process can reach the loopback listener, so nothing a connection
    sends is decoded before that greeting matched, and every connection
    is waited on at once: a stray that sends nothing delays no one, one
    that sends anything else is closed (:mod:`repro.partition.wire`,
    *Trust*).  ``"inline"`` runs the same frame loop
    (:func:`~repro.partition.worker.serve_frames`) on a thread at the
    other end of a socketpair, which nothing else can reach, so it needs
    no greeting; ``engine`` is that worker's state, for inspection.

    Either way the socket is blocking: :meth:`send` writes one frame
    whole, :meth:`collect` reads the one response it is owed (partials,
    then the ack).  A worker never writes before it has read its whole
    frame, and never has two unanswered, so a coordinator may send to
    every worker before collecting from any.  A dead worker — crashed or
    killed — is an EOF or a reset here, and a hung one the socket's
    timeout: each raised as :class:`WorkerDiedError`."""

    def __init__(self, worker_id: int, transport: str, timeout: float,
                 listener: Optional[socket.socket] = None):
        self.worker_id = worker_id
        self.kind = transport
        self.alive = True
        self.sock = self.proc = self.thread = self.engine = None
        if transport == "inline":
            self.sock, theirs = socket.socketpair()
            self.engine = WorkerEngine(worker_id)
            self.thread = threading.Thread(
                target=_serve_inline, args=(self.engine, theirs),
                name=f"repro-partition-worker-{worker_id}", daemon=True)
            self.thread.start()
        else:
            self._spawn_process(listener, timeout)
        self.sock.settimeout(timeout)

    def _spawn_process(self, listener: socket.socket,
                       timeout: float) -> None:
        host, port = listener.getsockname()
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
             host, str(port), str(self.worker_id), nonce],
            env=env, start_new_session=True)
        try:
            self.sock = self._handshake(listener, nonce, timeout)
        except BaseException:
            self.kill()     # a failed spawn must not leave a zombie
            raise

    def _handshake(self, listener, nonce: str, timeout: float):
        """Wait on the listener and on every connection still owing its
        greeting at once; the first exact greeting wins.  A wrong one or
        an EOF is closed with nothing it sent decoded, a connection that
        sends nothing holds up no one, and whatever is still waiting
        when the worker is in is closed too."""
        expected = wire.hello(self.worker_id, nonce)
        deadline = monotonic() + timeout
        refused = ""
        greetings = {}      # accepted connection -> its bytes so far
        selector = selectors.DefaultSelector()
        selector.register(listener, selectors.EVENT_READ)
        try:
            while True:
                ready = selector.select(max(0.0, deadline - monotonic()))
                if not ready:
                    raise PartitionError(
                        f"worker {self.worker_id} did not connect back "
                        f"within {timeout}s{refused}")
                for key, _events in ready:
                    conn = key.fileobj
                    if conn is listener:
                        conn, _addr = listener.accept()
                        greetings[conn] = b""
                        selector.register(conn, selectors.EVENT_READ)
                        continue
                    try:    # readable: data or EOF, without blocking
                        chunk = conn.recv(len(expected) - len(greetings[conn]))
                    except OSError:
                        chunk = b""
                    greeting = greetings[conn] = greetings[conn] + chunk
                    if chunk and len(greeting) < len(expected):
                        continue
                    selector.unregister(conn)
                    del greetings[conn]
                    if chunk and hmac.compare_digest(greeting, expected):
                        wire.no_delay(conn)
                        return conn
                    conn.close()
                    refused = " (a connection was refused: bad hello)"
        finally:
            selector.close()
            for conn in greetings:
                conn.close()

    @property
    def pid(self) -> int:
        return self.proc.pid if self.proc is not None else os.getpid()

    def send(self, msg: dict) -> None:
        if not self.alive:
            raise WorkerDiedError(f"worker {self.worker_id} is down")
        try:
            wire.send_frame(self.sock, msg)
        except WorkerDiedError:
            self._drop()
            raise

    def collect(self) -> list:
        if not self.alive:
            raise WorkerDiedError(f"worker {self.worker_id} is down")
        try:
            frames = []
            while True:
                frame = wire.recv_frame(self.sock)
                frames.append(frame)
                if frame.get("type") in ("ack", "error"):
                    return frames
        except WorkerDiedError:     # EOF, reset or the socket's timeout
            self._drop()
            raise

    def _drop(self) -> None:
        self.alive = False
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass

    def kill(self) -> None:
        """What SIGKILL does: a process is killed, a thread reads the EOF
        of the closed socket and ends, dropping its engine.  Returns once
        the worker is gone, so it also reaps a dead one."""
        self._drop()
        if self.proc is not None:
            try:
                self.proc.kill()
            except OSError:
                pass
        self._join()

    def close(self) -> None:
        if self.alive:
            try:
                self.send({"op": "stop"})
                self.collect()
            except (WorkerDiedError, PartitionError):
                pass
        self._drop()
        self._join()

    def _join(self) -> None:
        if self.thread is not None:
            self.thread.join(timeout=5)
            return
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# -- per-stream router --------------------------------------------------------


class _StreamRoute(StreamConsumer):
    """The router: the one consumer a partitioned stream has on behalf
    of its partitionized CQs.

    Every row the stream delivers is hashed into a per-worker
    ``("rows", [...], at)`` run (``at`` carries the stamped arrival time
    of a SYSTEM-time stream).  On an event-time stream a ``("wm", t)``
    sync goes in front of a row whose worker is behind the watermark the
    row is judged against, so each worker makes the single engine's
    late/on-time call; :meth:`sync` tops every worker up to the stream's
    watermark before the segments go out.  The same deliveries drive
    each partitionized CQ's boundary operator, which appends what closed
    (or re-opened) to :attr:`pending`.
    """

    def __init__(self, stream, ring: HashRing, n_workers: int):
        self.stream = stream
        self.name = stream.name
        self.ring = ring
        self.n = n_workers
        self.key_index = stream.schema.index_of(stream.partition_by)
        self.wm_merge = WatermarkMerge(range(n_workers))
        #: boundaries at or below it were closed by a flush every worker
        #: has acked: their partials are in, whatever the watermarks say
        self.flush_gate = NEG_INF
        self._sent_wm = [NEG_INF] * n_workers
        self._memo: Dict[object, int] = {}
        #: per worker, the segments collected since its last acked send
        self.segments: List[list] = [[] for _ in range(n_workers)]
        #: (pcq, "final" | "correct", close boundary, the window's rows)
        #: in the order the boundary operators decided them; merged in
        #: that order
        self.pending = deque()
        #: entries counted from the route's start: ``popped`` have left
        #: ``pending``, and those below ``proven`` were recorded before a
        #: send whose acks are all in — a late row's correction may not
        #: merge ahead of the partial its own frame brings back
        self.popped = self.proven = 0
        self.rows_routed = [0] * n_workers
        self.spill_rows = [0] * n_workers
        self.batches = 0
        self.cqs: List["_PartitionedCQ"] = []

    def worker_for(self, key) -> int:
        if key is None:
            return SPILL_WORKER
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

    # -- the stream's deliveries --------------------------------------------

    def on_tuple(self, row: tuple, event_time: float) -> None:
        stream = self.stream
        key = row[self.key_index]
        worker = self.worker_for(key)
        segs = self.segments[worker]
        if stream.tracker is not None \
                and self._sent_wm[worker] < stream.watermark:
            # delivery precedes the tracker's observation of the row:
            # this is the watermark the single engine judges it by
            segs.append(("wm", stream.watermark))
            self._sent_wm[worker] = stream.watermark
        at = event_time if stream.cqtime_mode == "system" else None
        if segs and segs[-1][0] == "rows" and segs[-1][2] == at:
            segs[-1][1].append(row)
        else:
            segs.append(("rows", [row], at))
        self.rows_routed[worker] += 1
        if key is None:
            self.spill_rows[worker] += 1
        for pcq in self.cqs:
            pcq.op.on_tuple(row, event_time)

    def on_tuples(self, rows: list, times: list) -> None:
        """A sorted batch off the stream's fast path: arrival-ordered, or
        an event-time frame in order from at or after the watermark.
        That needs no ``("wm", t)`` in front of a run: a worker's
        watermark is at most the stream's before the frame (the last
        :meth:`sync`) or its own newest row's time less the bound, so no
        row is late at its worker, and the windows the sync after the
        frame closes hold what they would have held between rows."""
        runs: List[list] = [[] for _ in range(self.n)]
        memo = self._memo
        key_index = self.key_index
        for row in rows:
            key = row[key_index]
            try:
                worker = memo[key]
            except (KeyError, TypeError):   # NULL, new or unhashable key
                worker = self.worker_for(key)
            runs[worker].append(row)
        at = times[0] if self.stream.cqtime_mode == "system" else None
        for worker, run in enumerate(runs):
            if run:
                self.segments[worker].append(("rows", run, at))
                self.rows_routed[worker] += len(run)
        self.spill_rows[SPILL_WORKER] += sum(
            1 for row in runs[SPILL_WORKER] if row[key_index] is None)
        # closes depend on times only, and on_flush on the newest row a
        # window shows: the ends of an ordered batch say everything,
        # and past a gapped window's gap the newest row before it
        last = len(rows) - 1
        for pcq in self.cqs:
            op = pcq.op
            for i in sorted({0, op.newest_shown(times), last} - {-1}):
                op.on_tuple(rows[i], times[i])

    def on_heartbeat(self, event_time: float) -> None:
        for pcq in self.cqs:
            pcq.op.on_heartbeat(event_time)

    def on_flush(self) -> None:
        for pcq in self.cqs:
            pcq.op.on_flush()

    def sync(self) -> None:
        """Top every worker up to the stream's watermark, so shard
        windows close and their partials ride this send's acks."""
        watermark = self.stream.watermark
        for worker in range(self.n):
            if self._sent_wm[worker] < watermark:
                self.segments[worker].append(("wm", watermark))
                self._sent_wm[worker] = watermark

    @property
    def recorded(self) -> int:
        return self.popped + len(self.pending)


class _Flight:
    """One route's ingest frames, sent and not yet answered: what their
    acks prove once they are all in."""

    def __init__(self, route: _StreamRoute, frames: dict, unsent: dict,
                 horizon: Optional[float]):
        self.route = route
        self.frames = frames        # worker -> (msg, log record)
        self.unsent = unsent        # worker -> the error its send raised
        self.proves = route.recorded
        #: the log-prune horizon as of this send, or None: taken now,
        #: before the next batch moves the boundary operators on
        self.horizon = horizon


# -- per-CQ merge state -------------------------------------------------------


class _PartitionedCQ:
    """Coordinator state for one partitionized CQ.  *When* a window
    closes or re-opens is decided by ``op`` — the operator the single
    engine would run for this CQ (``cq.window_operator``), fed by the
    router and recording boundaries instead of evaluating them; *what*
    the window holds comes from the workers' partials in ``store``."""

    def __init__(self, cq, route: _StreamRoute):
        self.cq = cq
        self.route = route
        self.name = cq.name
        self.visible = cq.window_spec.visible

        def record(kind, rows, _open, close):
            route.pending.append((self, kind, close, rows))

        # a shard cannot tell an empty window from an open one, so every
        # boundary is recorded (every close reaches the entry)
        self.op = cq.window_operator(record)
        #: close boundary -> {worker: partial | FailedPartial}
        self.store: Dict[float, Dict[int, object]] = {}
        self.merged_through = NEG_INF

    @property
    def stale(self) -> bool:
        """The CQ stopped: nothing is merged for it here."""
        return not self.cq._running


# -- the engine ---------------------------------------------------------------


class PartitionedEngine:
    """N-worker partitioned execution behind the one-database API.

    Every worker serves the same frame loop over a socket:
    ``transport="inline"`` runs it on a thread per worker over a
    socketpair, ``transport="process"`` in a subprocess per worker over
    loopback TCP.

    :meth:`ingest` (and :meth:`insert`) return with their frames in
    flight.  The next call that talks to a worker reads the acks they
    are owed first; the calls that feed or read the engine
    (``ingest``, ``execute``, ``advance``, ``inject_watermark``,
    ``flush``, ``query``, ``drain``, ``close``) also merge the windows
    the acks close, and may raise a window's evaluation error the way
    an ``ingest`` does.
    """

    def __init__(self, partitions: int = 2, transport: str = "inline",
                 db: Optional[Database] = None,
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
        self.ring = HashRing(partitions)
        self.faults = None              # coordinator-side FaultInjector
        self._listener = None
        if transport == "process":
            self._listener = socket.create_server(
                ("127.0.0.1", 0), backlog=partitions + 2)
            self._host, self._port = self._listener.getsockname()
        self._routes: Dict[str, _StreamRoute] = {}
        self._pcqs: Dict[str, _PartitionedCQ] = {}
        #: per worker, its acked frames in order, for restart-replay:
        #: (kind, msg, max event time or None, the ack's watermark).  It
        #: is the zero-copy replay source: the coordinator's WAL as the
        #: workers' log costs 0.95 us/event of append on partitioned_e1's
        #: 3.05 us/event path (2-vCPU Xeon).  What replaying could no
        #: longer change is pruned: the ingest frames under every CQ's
        #: horizon become one ``"wm"`` sync (`_prune_logs`), a `cq` goes
        #: with its `stopcq`, a dropped stream's frames with it.
        self._logs: List[list] = [[] for _ in range(partitions)]
        self._broadcast_names = set()
        self.restarts = [0] * partitions
        self.replayed_batches = [0] * partitions
        #: per worker, seconds it reported inside ``WorkerEngine.handle``
        #: and seconds the coordinator spent blocked collecting from it:
        #: wait far above busy is a slow hop, not a slow worker
        self.busy_seconds = [0.0] * partitions
        self.wait_seconds = [0.0] * partitions
        #: the last ingest's frames, owed their acks (at most one)
        self._flight: Optional[_Flight] = None
        self._closed = False
        self._handles: list = []
        try:
            for worker in range(partitions):
                self._handles.append(self._spawn(worker))
        except BaseException:
            self.close()    # the workers that did start, and the listener
            raise

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, worker: int) -> _WorkerHandle:
        return _WorkerHandle(worker, self.transport, self.spawn_timeout,
                             self._listener)

    def close(self) -> None:
        """Merge what the last ingest closed, then stop every worker."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._flight is not None:
                self.drain()
        finally:
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
        """Run one TruSQL statement on the local database, then place
        what it made: a ``PARTITION BY`` stream gets a router, a CQ over
        one splits into per-worker aggregation plus a coordinator merge
        stage when it has no partition refusal — and otherwise simply
        runs on the coordinator, reading the same stream."""
        statement = parse_statement(sql)
        try:
            result = self.db.execute(sql, params)
        finally:
            # an INSERT INTO a partitioned stream is a delivery like
            # any other: the router holds it until it is sent
            self._pump()
        if isinstance(statement, ast.CreateStream):
            self._register_stream(statement, sql)
        elif isinstance(statement, ast.CreateView):
            self._broadcast_ddl(statement.name, sql)
        elif isinstance(statement, ast.Drop) \
                and statement.kind in ("stream", "view"):
            self._forget(statement.name, sql)
        elif isinstance(statement, ast.CreateDerivedStream):
            cq = self.db.runtime.cqs()[f"derived:{statement.name}"]
            if self._reads_partitioned(cq):
                cq.explain_note = ("partitioned: no (a derived stream's "
                                   "CQ runs on the coordinator)")
        elif isinstance(result, Subscription) \
                and self._reads_partitioned(result.cq):
            self._partitionize(result, sql, params)
        return result

    def query(self, sql: str, params=None):
        self.drain()
        return self.db.query(sql, params)

    def _reads_partitioned(self, cq) -> bool:
        return any(stream.name in self._routes for stream in cq.streams)

    def _register_stream(self, statement: ast.CreateStream,
                         sql: str) -> None:
        stream = self.db.get_stream(statement.name)
        if stream.name in self._routes:
            return                      # IF NOT EXISTS re-run
        self._broadcast_ddl(stream.name, sql)
        if stream.partition_by is None:
            return
        route = _StreamRoute(stream, self.ring, self.partitions)
        stream.subscribe(route)
        self._routes[stream.name] = route

    def _broadcast_ddl(self, name: str, sql: str) -> None:
        if name in self._broadcast_names:
            return
        self._broadcast_names.add(name)
        self._broadcast({"op": "ddl", "sql": sql}, "ddl")

    def _forget(self, name: str, sql: str) -> None:
        """A broadcast stream or view was dropped: the workers drop it
        too (logged, so a respawn replays the drop), and a routed stream
        takes its router, its CQs' merge stages and its replayable
        frames with it — the name is free for a new ``CREATE``."""
        name = next((known for known in self._broadcast_names
                     if known.lower() == name.lower()), None)
        if name is None:
            return      # a derived stream: it only ever ran here
        self._broadcast_names.discard(name)
        route = self._routes.pop(name, None)
        if route is not None:
            route.stream.unsubscribe(route)
            for pcq in list(route.cqs):
                self._drop_pcq(pcq)
            self._unlog(lambda entry: entry[0] in ("ingest", "wm")
                        and entry[1]["stream"] == name)
        self._broadcast({"op": "ddl", "sql": sql}, "ddl")

    def _unlog(self, gone) -> None:
        """Take the acked frames ``gone(entry)`` picks out of every
        worker's replay log."""
        for log in self._logs:
            log[:] = [entry for entry in log if not gone(entry)]

    def _partitionize(self, sub: Subscription, sql: str, params) -> None:
        """Split a CQ over a partitioned stream — or, when it has a
        partition refusal, leave it running on the coordinator and say
        why in EXPLAIN."""
        cq = sub.cq
        refusal = cq.partition_refusal()
        if refusal is not None:
            cq.explain_note = f"partitioned: no ({refusal})"
            return
        msg = {"op": "cq", "name": cq.name, "sql": sql, "params": params,
               "vectorize": self.db.runtime.vectorize}
        try:
            self._broadcast(msg, "cq")
        except PartitionError:      # a worker could not set its half up
            self._stop_on_workers(cq.name)
            sub.close()
            raise
        # the CQ's own window operator leaves the stream: the router
        # feeds its stand-in, and the merge stage calls its callbacks
        cq.detach()
        cq.split_at()
        route = self._routes[cq.stream.name]
        pcq = _PartitionedCQ(cq, route)
        route.cqs.append(pcq)
        self._pcqs[cq.name] = pcq

    def _drop_pcq(self, pcq: _PartitionedCQ) -> None:
        pcq.route.cqs.remove(pcq)
        self._pcqs.pop(pcq.name, None)
        self._stop_on_workers(pcq.name)

    def _stop_on_workers(self, name: str) -> None:
        try:
            self._broadcast({"op": "stopcq", "name": name}, "stopcq")
        except (WorkerDiedError, PartitionError):
            pass
        # a respawn has nothing to build and nothing to stop
        self._unlog(lambda entry: entry[0] in ("cq", "stopcq")
                    and entry[1]["name"] == name)

    # -- ingest -------------------------------------------------------------

    def ingest(self, name: str, rows, at: Optional[float] = None,
               watermark: Optional[float] = None,
               sender: Optional[str] = None,
               seq: Optional[int] = None) -> dict:
        """Apply one ingest batch: :meth:`Database.ingest_batch`, then
        read the acks the previous call left owed, send what the router
        collected, merge what the acks closed — and return without
        waiting for this batch's acks, so the workers chew it while the
        caller makes the next.  A batch the stream refuses part way (an
        out-of-order row under the ``raise`` policy) has still delivered
        the rows before the offender — they go out too."""
        if name in self._routes \
                and self.faults is not None and self.faults.armed:
            # before the stream sees a row: an injected router death
            # refuses the whole batch — nothing partial to undo
            self.faults.check("partition.route", name)
        try:
            return self.db.ingest_batch(name, rows, at=at, sender=sender,
                                        seq=seq, watermark=watermark)
        finally:
            self._pump(hold=True)

    def insert(self, name: str, values, at: Optional[float] = None) -> dict:
        return self.ingest(name, [values], at=at)

    def advance(self, event_time: float) -> None:
        """Heartbeat every stream; the routers pass it on to the
        workers as watermark segments."""
        try:
            self.db.advance_streams(event_time)
        finally:
            self._pump()

    def inject_watermark(self, name: str, watermark: float) -> float:
        try:
            return self.db.inject_watermark(name, watermark)
        finally:
            self._pump()

    def flush(self) -> None:
        """End-of-input: every pending window out, merged."""
        try:
            self.db.flush_streams()
        finally:
            self._pump(flush=True)

    def drain(self) -> None:
        """Read every ack still owed and merge what it closed: after
        this, every window an earlier call closed is visible."""
        self._pump()

    def _pump(self, flush: bool = False, hold: bool = False) -> None:
        """Read the acks the last ingest left owed and merge what they
        proved, send what the routers collected since, absorb the
        partials riding the acks, merge what closed.  With ``hold`` the last route's frames are
        left in flight for the next call to read — unless a send already
        failed: a dead worker is respawned now, as on any exchange."""
        self._land_flight()
        routes = list(self._routes.values())
        for route in routes:
            # before this call's frames go out: one answered at once (a
            # respawn) would bring its partials into those merges
            self._merge_pending(route)
        launch = []
        for route in routes:
            route.sync()
            if any(route.segments):
                launch.append(route)
            else:
                route.proven = route.recorded   # nothing of it unanswered
        for route in launch:
            flight = self._launch(route)
            if hold and route is launch[-1] and not flight.unsent:
                self._flight = flight
            else:
                self._land(flight)
        if flush:
            self._broadcast({"op": "flush"}, "flush")
            for route in routes:
                route.flush_gate = max([route.flush_gate] + [
                    b for _p, _k, b, _r in route.pending])
        for route in routes:
            self._merge_pending(route)

    # -- merge stage --------------------------------------------------------

    def _merge_pending(self, route: _StreamRoute) -> None:
        """Merge the recorded boundaries, in recorded order, as far as
        every shard has reported: the min-of-inputs worker watermark (or
        an acked flush) reaching a boundary is the proof its partials
        are all in.  An entry leaves the list when its emission is
        attempted: an injected merge death fires before that and is
        retried; an evaluation error is the CQ's, once.  Nothing
        recorded after the frames still in flight went out is merged:
        their acks may carry a correction's partial."""
        gate = max(route.wm_merge.merged, route.flush_gate)
        pending = route.pending
        while pending and route.popped < route.proven:
            pcq, kind, boundary, rows = pending[0]
            stale = pcq.stale
            if not stale and boundary > gate:
                break
            if not stale and self.faults is not None and self.faults.armed:
                self.faults.check("partition.merge",
                                  f"{pcq.name}:{boundary}")
            pending.popleft()
            route.popped += 1
            if not stale:
                self._merge_boundary(pcq, kind, boundary, rows)
        for pcq in list(route.cqs):
            if pcq.stale:      # a closed subscription
                self._drop_pcq(pcq)

    def _merge_boundary(self, pcq: _PartitionedCQ, kind: str,
                        boundary: float, rows: list) -> None:
        """Hand the CQ one boundary's shard partials as its window,
        through the CQ's window entry, as a ``final`` or — a late row
        re-opened the window — a ``correct``: sinks, stats, EXPLAIN
        counters, retract bookkeeping and the supervisor's handler
        (which letters the window's ``rows``) all behave exactly as in
        single-engine mode."""
        entry = pcq.store.get(boundary, {})
        parts = Partials([entry.get(w, {}) for w in range(self.partitions)],
                         [rows])
        try:
            pcq.cq.window_entry(kind, parts, boundary - pcq.visible,
                                boundary)
        finally:
            if kind == "final":
                pcq.merged_through = boundary
                self._prune_store(pcq)

    def _absorb_partial(self, worker: int, frame: dict) -> None:
        pcq = self._pcqs.get(frame["cq"])
        if pcq is None:
            return
        boundary = frame["close"]
        stored = pcq.store.setdefault(boundary, {})
        if frame["kind"] == "final" and worker in stored:
            return      # a restarted worker replaying what it sent
        # a "correct" partial replaces the shard's contribution; the
        # coordinator's own boundary operator saw the same late row and
        # has the re-merge pending
        stored[worker] = partial_from_wire(frame["partial"])

    def _prune_store(self, pcq: _PartitionedCQ) -> None:
        """Drop merged partials — under retract only once the lateness
        bound has passed them too, and never a boundary a pending entry
        still names: a frame can carry a late row for a window it also
        closes, and merges under the whole frame's watermark."""
        horizon, named = pcq.merged_through, ()
        retention = pcq.op.retention
        if retention:
            horizon = min(horizon, pcq.route.stream.watermark - retention)
            named = {b for p, _kind, b, _rows in pcq.route.pending
                     if p is pcq}
        for boundary in [b for b in pcq.store
                         if b <= horizon and b not in named]:
            del pcq.store[boundary]

    # -- worker lifecycle ---------------------------------------------------

    def _exchange(self, frames: dict) -> dict:
        """Scatter, then gather: ``frames`` maps worker to ``(msg,
        record)``; every frame is written before any ack is read, and
        the acks are collected in worker order, so the workers work at
        the same time.  Per worker the contract is one round trip's: a
        death at send *or* collect respawns it, replays its log and
        re-sends its frame once; the frame is logged (``record`` is
        ``(kind, max_event_time)``, or None for an unlogged frame) only
        after its ack.  One worker's failure does not stop the gather —
        an ack left unread would answer that worker's next frame — so
        the first failure is raised once every worker has been seen.
        The acks an ingest left owed are read first: a worker has at
        most one frame unanswered."""
        self._land_flight()
        return self._gather(frames, self._scatter(frames))

    def _scatter(self, frames: dict) -> dict:
        """Send every frame; returns the workers whose send failed, with
        the error, for :meth:`_gather` to respawn."""
        unsent = {}
        for worker, (msg, _record) in frames.items():
            try:
                self._handles[worker].send(msg)
            except Exception as exc:    # noqa: BLE001 — raised in _gather
                unsent[worker] = exc
        return unsent

    def _gather(self, frames: dict, unsent: dict) -> dict:
        acks = {}
        failure = None
        for worker, (msg, record) in frames.items():
            try:
                try:
                    if worker in unsent:
                        raise unsent[worker]
                    response = self._collect(worker)
                except WorkerDiedError:
                    self._respawn(worker)
                    response = self._ask(worker, msg)
                acks[worker] = self._take(worker, msg, response)
            except Exception as exc:    # noqa: BLE001 — raised below
                failure = failure or exc
                continue
            if record is not None:
                self._logs[worker].append(
                    (record[0], msg, record[1], acks[worker].get("watermark")))
        if failure is not None:
            raise failure
        return acks

    def _launch(self, route: _StreamRoute) -> _Flight:
        """Send what the router collected; the route's queues empty."""
        frames = {
            worker: ({"op": "ingest", "stream": route.name,
                      "segments": segs},
                     ("ingest", route.stream.raw_watermark))
            for worker, segs in enumerate(route.segments) if segs}
        route.segments = [[] for _ in range(self.partitions)]
        horizon = None
        if any(seg[0] == "rows" for msg, _record in frames.values()
               for seg in msg["segments"]):
            route.batches += 1
            if route.batches % _PRUNE_EVERY == 0:
                horizon = self._horizon(route)
        return _Flight(route, frames, self._scatter(frames), horizon)

    def _land(self, flight: _Flight) -> None:
        """Read a flight's acks.  What a dead worker never answered (its
        respawn failed too) goes back to the front of its queue, for the
        next pump to send."""
        route = flight.route
        try:
            self._gather(flight.frames, flight.unsent)
        finally:
            for worker, (msg, _record) in flight.frames.items():
                if not self._handles[worker].alive:
                    route.segments[worker][:0] = msg["segments"]
        route.proven = flight.proves
        if flight.horizon is not None:
            self._prune_logs(route, flight.horizon)

    def _land_flight(self) -> None:
        flight, self._flight = self._flight, None
        if flight is not None:
            self._land(flight)

    def _broadcast(self, msg: dict, kind: str) -> None:
        """One logged frame to every worker."""
        self._exchange({worker: (msg, (kind, None))
                        for worker in range(self.partitions)})

    def _request(self, worker: int, msg: dict) -> dict:
        """One unlogged round trip with one worker."""
        return self._exchange({worker: (msg, None)})[worker]

    def _ask(self, worker: int, msg: dict) -> list:
        self._handles[worker].send(msg)
        return self._collect(worker)

    def _collect(self, worker: int) -> list:
        started = perf_counter()
        try:
            return self._handles[worker].collect()
        finally:
            self.wait_seconds[worker] += perf_counter() - started

    def _take(self, worker: int, msg: dict, frames: list,
              what: str = "") -> dict:
        """One worker response: its error frame raises, the partials
        riding it are absorbed, and the shard watermark an ingest ack
        carries moves that route's min-of-inputs merge."""
        ack = frames[-1]
        if ack.get("type") == "error":
            raise PartitionError(
                f"worker {worker}{what}: {ack.get('error')}: "
                f"{ack.get('message')}")
        for frame in frames[:-1]:
            if frame.get("type") == "partial":
                self._absorb_partial(worker, frame)
        self.busy_seconds[worker] += ack.get("busy_s", 0.0)
        wm = ack.get("watermark")
        if wm is not None and wm > NEG_INF:
            self._routes[msg["stream"]].wm_merge.update(worker, wm)
        return ack

    def _respawn(self, worker: int) -> None:
        """Restart a dead worker and replay its acked frame log, which
        ends at the last acked watermark.  Replayed finals never replace
        absorbed ones and replayed corrections overwrite what is stored
        with the same content — the restart is invisible."""
        self._handles[worker].kill()
        self.restarts[worker] += 1
        self._handles[worker] = self._spawn(worker)
        for kind, msg, _max_time, _wm in self._logs[worker]:
            self._take(worker, msg, self._ask(worker, msg),
                       " replay failed")
            if kind == "ingest":
                self.replayed_batches[worker] += 1

    @staticmethod
    def _horizon(route: _StreamRoute) -> Optional[float]:
        """The oldest event time an unmerged window (or an in-bound
        recomputation) of the route's CQs can still need — a boundary
        the merge stage has not taken yet included — or None."""
        horizons = [pcq.op.horizon for pcq in route.cqs] + [
            b - pcq.visible - pcq.op.retention
            for pcq, _k, b, _r in route.pending]
        if None in horizons:
            return None     # some CQ's boundary grid has not started yet
        horizon = min(horizons, default=route.stream.watermark)
        return None if horizon == NEG_INF else horizon

    def _prune_logs(self, route: _StreamRoute, horizon: float) -> None:
        """Replace the replayable ingest frames from below ``horizon``
        with one sync to the shard watermark the last one's ack reported
        (what the kept frames' rows were judged by), and drop every
        flush left with no ingest frame before it: it would flush a
        worker that holds no rows."""
        for worker in range(self.partitions):
            kept, holds_rows, at, wm = [], False, None, NEG_INF
            for entry in self._logs[worker]:
                if entry[0] in ("ingest", "wm"):
                    if entry[1]["stream"] == route.name \
                            and entry[2] < horizon:
                        at = len(kept) if at is None else at
                        wm = max(wm, entry[3])
                        continue
                    holds_rows = holds_rows or entry[0] == "ingest"
                elif entry[0] == "flush" and not holds_rows:
                    continue
                kept.append(entry)
            if wm > NEG_INF:
                sync = {"op": "ingest", "stream": route.name,
                        "segments": [("wm", wm)]}
                kept.insert(at, ("wm", sync, NEG_INF, wm))
            self._logs[worker] = kept

    def kill_worker(self, worker: int) -> None:
        """Hard-kill one worker (tests and the smoke harness) once the
        acks it owes are read; its next frame triggers
        restart-with-replay."""
        self._land_flight()
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
        """One row per worker for the ``repro_partitions`` view, as of
        the last ack (the owed ones are read first)."""
        self._land_flight()
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
                current = route.stream.watermark
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
                self.busy_seconds[worker],
                self.wait_seconds[worker],
            ))
        return rows
