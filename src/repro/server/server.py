"""The asyncio TCP server: accept loop, dispatch, graceful shutdown.

One :class:`TruSQLServer` owns one embedded
:class:`~repro.core.database.Database`, one single-writer engine
executor, and any number of client sessions.  The event loop only ever
parses frames and shuttles bytes; every engine touch crosses into the
engine thread through :meth:`TruSQLServer.on_engine`.

Run standalone::

    python -m repro.server --host 127.0.0.1 --port 5433

or embed in tests with :class:`ServerThread`, which runs the whole
server (loop included) on a background thread and blocks until it is
accepting connections.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
import time
from typing import Dict, Optional, Tuple

from repro.core.database import Database
from repro.errors import ExecutionError, ProtocolError, TruvisoError
from repro.server import protocol
from repro.server.engine import SingleWriterExecutor
from repro.server.session import Session
from repro.sql import ast, parse_statement, split_script

_BANNER = "repro-server listening on {host}:{port}"

#: statement types a standby will execute (reads and session options);
#: anything that mutates state must wait for promotion
_STANDBY_SAFE = (ast.Select, ast.SetOp, ast.Explain,
                 ast.ShowOption, ast.SetOption)


def _parse_hostport(value: str) -> Tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


class TruSQLServer:
    """A TruSQL server bound to one embedded Database.

    ``data_dir`` makes the server crash-consistent: the WAL lives in a
    file there, and a restart (even after ``kill -9``) rebuilds tables,
    streams, CQ windows, and channels from it before accepting traffic.
    ``standby_of`` starts the server as a warm standby of another
    server: read-only, continuously applying the primary's shipped WAL,
    promoting itself when the primary goes quiet (or on the ``promote``
    op).
    """

    def __init__(self, db: Optional[Database] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 data_dir: Optional[str] = None,
                 standby_of: Optional[str] = None,
                 auto_promote: bool = True,
                 heartbeat_interval: float = 1.0,
                 miss_limit: int = 3,
                 idle_timeout: Optional[float] = None,
                 reap_interval: Optional[float] = None,
                 compact_interval: Optional[float] = None,
                 scrub_interval: Optional[float] = None,
                 backup_to: Optional[str] = None,
                 backup_interval: Optional[float] = None,
                 partitions: Optional[int] = None,
                 clock=None,
                 **db_options):
        from repro.clock import SYSTEM_CLOCK
        from repro.replication.bootstrap import open_database
        if partitions and (data_dir is not None or standby_of is not None):
            # worker shards are volatile: a log replay (boot, or a
            # standby's) would bypass the partition router
            raise ValueError("partitions are incompatible with a data dir "
                             "and with standby mode")
        if standby_of is not None and db is not None:
            raise ValueError("a standby opens its own database: standby_of "
                             "takes no db")
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        if clock is not None and db is None:
            db_options.setdefault("clock", clock)
        self.role = "standby" if standby_of else "primary"
        if db is None:
            db = open_database(data_dir=data_dir,
                               standby=standby_of is not None, **db_options)
        self.db = db
        # the four verbs a session runs on the engine thread, bound
        # once.  Partitioned execution: a PartitionedEngine wrapping
        # this database answers them (and fans clock advances and
        # flushes out to its shards)
        self.partition_engine = None
        if partitions:
            from repro.partition import PartitionedEngine
            engine = self.partition_engine = PartitionedEngine(
                partitions=partitions, transport="process", db=self.db)
            self.ingest_entry = engine.ingest
            self.advance_entry, self.flush_entry = engine.advance, engine.flush
        else:
            engine = self.db
            self.ingest_entry = engine.ingest_batch
            self.advance_entry = engine.advance_streams
            self.flush_entry = engine.flush_streams
        self.execute_entry = engine.execute
        self.requested_host = host
        self.requested_port = port
        self.standby_of = (_parse_hostport(standby_of)
                           if standby_of else None)
        self.auto_promote = auto_promote
        self.heartbeat_interval = heartbeat_interval
        self.miss_limit = miss_limit
        self.idle_timeout = idle_timeout
        self.reap_interval = reap_interval
        self.compact_interval = compact_interval
        self.scrub_interval = scrub_interval
        self.backup_to = backup_to
        self.backup_interval = backup_interval
        self.standby = None            # StandbyController when following
        self._replication = None       # ReplicationManager, created lazily
        self._reaper_task: Optional[asyncio.Task] = None
        self._maintenance_task: Optional[asyncio.Task] = None
        self.executor = SingleWriterExecutor()
        self.sessions: Dict[int, Session] = {}
        self._session_counter = 0
        self._handlers = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._stopped = False
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.db.connection_registry = self.connection_rows
        # admission control reads the engine queue depth as its pressure
        # signal; sessions feed it through handle_ingest
        self.db.admission.depth_probe = self.executor.depth
        # observability: frame counters + session gauge (null-safe)
        self._c_frames_in = None
        self._c_frames_out = None
        obs = getattr(self.db, "obs", None)
        if obs is not None:
            obs.bind_server(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.requested_host, self.requested_port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        if self.standby_of is not None:
            from repro.replication.standby import StandbyController
            self.standby = StandbyController(
                self, self.standby_of[0], self.standby_of[1],
                heartbeat_interval=self.heartbeat_interval,
                miss_limit=self.miss_limit,
                auto_promote=self.auto_promote)
            self.standby.start()
        if self.idle_timeout is not None:
            self._reaper_task = asyncio.ensure_future(self._reap_idle())
        if (self.compact_interval is not None
                or self.scrub_interval is not None
                or self.backup_to is not None):
            self._maintenance_task = asyncio.ensure_future(
                self._run_maintenance())

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (safe from any thread)."""
        if self._loop is None or self._shutdown_event is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._shutdown_event.set)
        except RuntimeError:
            pass  # loop already closed: nothing left to stop

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown`, then shut down cleanly."""
        await self._shutdown_event.wait()
        await self.shutdown()

    async def shutdown(self, drain: bool = True) -> None:
        """Graceful stop: no new connections, drain in-flight windows
        (a final engine flush pushes pending windows through derived
        streams and channels to every subscriber), flush each session's
        outbound buffer, say goodbye, then close sockets and the engine.
        """
        if self._stopped:
            return
        self._stopped = True
        for task in (self._reaper_task, self._maintenance_task):
            if task is None:
                continue
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        if self.standby is not None:
            self.standby.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self.sessions:
            try:
                await self.on_engine(self.flush_entry)
            except Exception:
                pass  # a poisoned stream must not wedge shutdown
        for session in list(self.sessions.values()):
            session.state = "closing"
            writer = getattr(session, "_writer", None)
            if writer is None:
                continue
            try:
                for frame in session.drain_frames():
                    writer.write(protocol.encode_frame(frame))
                writer.write(protocol.encode_frame(
                    protocol.goodbye_push("server shutdown")))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
            writer.close()
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self.executor.shutdown()
        if self.partition_engine is not None:
            self.partition_engine.close()

    # ------------------------------------------------------------------
    # engine bridge
    # ------------------------------------------------------------------

    def run_script(self, source: str) -> None:
        """Engine thread: run a ``;``-separated script (``--init``)
        statement by statement through ``execute_entry``, so a
        ``PARTITION BY`` stream it creates gets its router."""
        for statement in split_script(source):
            self.execute_entry(statement)

    async def on_engine(self, fn, *args, **kwargs):
        """Run ``fn`` on the single-writer engine thread and await it.

        System-lane: replication, promotion, shutdown and other
        infrastructure work that must never queue behind client load.
        """
        return await asyncio.wrap_future(
            self.executor.submit(fn, *args, **kwargs))

    async def on_engine_fair(self, session, fn, *args, **kwargs):
        """Run ``fn`` on the engine thread via the session's tenant lane.

        Tenant lanes are stride-scheduled by weight, so concurrent
        tenants share the engine thread proportionally instead of FIFO.
        """
        tenant = getattr(session, "tenant_name", None)
        weight = self.db.admission.tenant_weight(tenant)
        return await asyncio.wrap_future(
            self.executor.submit_fair(tenant, weight, fn, *args, **kwargs))

    def quarantine_shed_batch(self, session, stream_name, rows) -> None:
        """Dead-letter accounting for a tier-2 shed ingest batch.

        Fire-and-forget on the system lane: the whole point of shedding
        is that the batch skips the engine queue, so only this one small
        bookkeeping job crosses over, and the caller never waits on it.
        """
        supervisor = self.db.supervisor
        if supervisor is None:
            return

        def quarantine():
            from repro.streaming.supervisor import SLOW_CONSUMER
            supervisor.quarantine(
                stream_name, SLOW_CONSUMER,
                f"admission shed: tenant {session.tenant_name!r} batch "
                f"dropped under overload", [tuple(r) for r in rows],
                None, None)
        try:
            self.executor.submit(quarantine)
        except Exception:
            pass

    def schedule_detach(self, session: Session, entries) -> None:
        """Fire-and-forget detach of broken subscriptions (raise policy).
        Submitted, not awaited: callers sit on the writer path."""
        def detach_all():
            for entry in entries:
                session.subs.pop(entry.sub_id, None)
                if entry.detach is not None:
                    try:
                        entry.detach()
                    except Exception:
                        pass
        try:
            self.executor.submit(detach_all)
        except Exception:
            pass

    def connection_rows(self):
        """Rows of the ``repro_connections`` system view."""
        return [s.connection_row() for s in list(self.sessions.values())]

    def _delivery_histogram(self, tenant: str):
        """Per-tenant push-delivery latency histogram (how long frames
        sit in outbound buffers) — what the X5 overload benchmark reads
        to prove an in-quota tenant's p99 survives a noisy neighbour."""
        obs = getattr(self.db, "obs", None)
        if obs is None or not obs.enabled:
            return None
        return obs.registry.histogram(f"server.delivery_seconds.{tenant}")

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------

    def replication_manager(self):
        """The primary-side WAL shipper, created on first use (engine
        thread).  Lazy so a server with no standbys pays nothing."""
        if self._replication is None:
            from repro.replication.primary import ReplicationManager
            self._replication = ReplicationManager(self.db)
        return self._replication

    def become_primary(self, reason: str = "") -> None:
        """Flip a promoted standby into a serving primary (engine
        thread, called by StandbyController.promote_on_engine)."""
        self.role = "primary"
        # from here the WAL grows locally again; future standbys of this
        # (now) primary attach through the lazy replication manager

    async def _reap_idle(self) -> None:
        """Close sessions that have been silent past ``idle_timeout``.

        A client that pings (or does anything else) within the timeout
        is never touched; a vanished one gets a goodbye frame and its
        socket closed, which releases its subscriptions and buffers.
        """
        interval = self.reap_interval
        if interval is None:
            interval = max(self.idle_timeout / 4.0, 0.05)
        while not self._stopped:
            await asyncio.sleep(interval)
            # idle ages come from the injectable clock: a test advances
            # a ManualClock instead of actually going silent for minutes
            now = self.clock.monotonic()
            for session in list(self.sessions.values()):
                if session.state != "active" \
                        or now - session.last_seen < self.idle_timeout:
                    continue
                session.state = "reaped"
                writer = getattr(session, "_writer", None)
                if writer is None:
                    continue
                try:
                    writer.write(protocol.encode_frame(
                        protocol.goodbye_push(
                            f"idle for {round(now - session.last_seen, 1)}s "
                            f"(idle_timeout={self.idle_timeout}s)")))
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    pass
                try:
                    writer.close()
                except Exception:
                    pass

    async def _run_maintenance(self) -> None:
        """WAL lifecycle chores on the engine thread's system lane.

        Same shape as the idle reaper: an asyncio timer that crosses
        into the engine through :meth:`on_engine`, so compaction,
        scrubbing and periodic backups serialize with normal traffic
        instead of racing it.  Each chore runs on its own cadence; a
        failing chore is recorded on the lifecycle and retried next
        tick rather than killing the task.
        """
        lifecycle = self.db.wal_lifecycle
        jobs = []
        if self.compact_interval is not None:
            jobs.append(["compact", self.compact_interval,
                         lifecycle.compact, ()])
        if self.scrub_interval is not None:
            jobs.append(["scrub", self.scrub_interval,
                         lifecycle.scrub, ()])
        if self.backup_to is not None:
            interval = self.backup_interval
            if interval is None:
                interval = 60.0
            jobs.append(["backup", interval,
                         lifecycle.backup, (self.backup_to,)])
        if not jobs:
            return
        tick = max(0.05, min(interval for _, interval, _fn, _a in jobs))
        last = {name: 0.0 for name, _i, _fn, _a in jobs}
        while not self._stopped:
            await asyncio.sleep(tick)
            now = time.monotonic()
            for name, interval, fn, fn_args in jobs:
                if now - last[name] < interval:
                    continue
                last[name] = now
                try:
                    await self.on_engine(fn, *fn_args)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    lifecycle.last_error = f"{name}: {exc}"

    def crash(self) -> None:
        """Abrupt death for failover tests: abort every socket — no
        goodbye, no drain, no final flush.  Safe from any thread.  The
        engine thread is left to die with the process; durable state is
        whatever already reached the WAL file."""
        loop = self._loop
        if loop is None:
            return

        def _die():
            self._stopped = True
            if self._server is not None:
                self._server.close()
            for session in list(self.sessions.values()):
                session.state = "closed"
                writer = getattr(session, "_writer", None)
                transport = getattr(writer, "transport", None)
                if transport is not None:
                    try:
                        transport.abort()
                    except Exception:
                        pass
            if self.standby is not None:
                self.standby._stop.set()
            if self._shutdown_event is not None:
                self._shutdown_event.set()

        try:
            loop.call_soon_threadsafe(_die)
        except RuntimeError:
            pass

    # ------------------------------------------------------------------
    # per-connection handling
    # ------------------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._handlers.discard(task)

    async def _serve_connection(self, reader, writer) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        self._session_counter += 1
        session = Session(self._session_counter, self, peer)
        session._writer = writer
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        session.notify = lambda: loop.call_soon_threadsafe(wake.set)
        writer_task = asyncio.ensure_future(
            self._writer_loop(session, writer, wake))
        self.sessions[session.session_id] = session
        try:
            while True:
                received = await protocol.read_frame(reader)
                if received is None:
                    break
                frame, nbytes = received
                session.last_seen = self.clock.monotonic()
                session.last_seen_wall = time.time()
                if self._c_frames_in is not None:
                    self._c_frames_in.inc()
                response = await self._dispatch(session, frame, nbytes)
                if response is not None:
                    writer.write(protocol.encode_frame(response))
                    await writer.drain()
                    if self._c_frames_out is not None:
                        self._c_frames_out.inc()
                op = frame.get("op")
                if op == "goodbye" or self._stopped:
                    break
                if op == "shutdown":
                    # keep this connection open: the graceful shutdown
                    # path drains its subscriptions and says goodbye
                    self.request_shutdown()
        except (asyncio.CancelledError, ConnectionError):
            pass
        except ProtocolError as exc:
            try:
                writer.write(protocol.encode_frame(
                    protocol.error_response(None, exc)))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        finally:
            session.state = "closed"
            self.sessions.pop(session.session_id, None)
            if session._tenant_bound:
                self.db.admission.release_session(session.tenant_name)
            writer_task.cancel()
            try:
                await writer_task
            except (asyncio.CancelledError, ConnectionError):
                pass
            try:
                self.executor.submit(session.detach_all_on_engine)
            except Exception:
                pass
            with session._space:
                session._space.notify_all()  # unblock a waiting engine
            try:
                writer.close()
            except Exception:
                pass

    async def _dispatch(self, session: Session, frame: dict, nbytes: int):
        request_id = frame.get("id")
        op = frame.get("op")
        try:
            if self.role == "standby" \
                    and op in ("ingest", "advance", "flush"):
                raise ExecutionError(
                    f"{op!r} rejected: this server is a standby "
                    "(read-only until promoted)")
            if op == "execute":
                if self.role == "standby":
                    self._check_standby_sql(frame.get("sql"))
                return await session.handle_execute(frame)
            if op == "subscribe":
                return await session.handle_subscribe(frame)
            if op == "unsubscribe":
                return await session.handle_unsubscribe(frame)
            if op == "ingest":
                return await session.handle_ingest(frame, nbytes)
            if op == "advance":
                return await session.handle_advance(frame)
            if op == "flush":
                return await session.handle_flush(frame)
            if op == "replicate":
                return await session.handle_replicate(frame)
            if op == "replicate_ack":
                return await session.handle_replicate_ack(frame)
            if op == "promote":
                return await self._handle_promote(request_id, frame)
            if op == "backup":
                dest = frame.get("dest")
                if not isinstance(dest, str) or not dest:
                    raise ExecutionError(
                        "backup: 'dest' must be a non-empty path")
                info = await self.on_engine(
                    self.db.wal_lifecycle.backup, dest)
                return protocol.ok_response(request_id, backup=info)
            if op == "metrics":
                return await self._handle_metrics(request_id)
            if op == "hello":
                tenant = frame.get("tenant")
                if tenant is not None \
                        and (not isinstance(tenant, str) or not tenant):
                    raise ExecutionError(
                        "'tenant' must be a non-empty string")
                if session._tenant_bound:
                    # a second hello moves the session between tenants
                    self.db.admission.release_session(session.tenant_name)
                if tenant is not None:
                    session.tenant_name = tenant
                self.db.admission.bind_session(session.tenant_name)
                session._tenant_bound = True
                session._h_delivery = self._delivery_histogram(
                    session.tenant_name)
                return protocol.ok_response(
                    request_id, server="repro",
                    protocol=protocol.PROTOCOL_VERSION,
                    session=session.session_id,
                    role=self.role,
                    tenant=session.tenant_name)
            if op in ("ping", "goodbye"):
                return protocol.ok_response(request_id)
            if op == "shutdown":
                return protocol.ok_response(request_id, stopping=True)
            raise ProtocolError(f"unknown op {op!r}")
        except TruvisoError as exc:
            return protocol.error_response(request_id, exc)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # engine bug: report, keep serving
            return protocol.error_response(request_id, exc)

    def _check_standby_sql(self, sql) -> None:
        """Reject mutating statements while in standby role.  Anything
        unparsable falls through so the engine reports the real error."""
        if not isinstance(sql, str):
            return
        try:
            statement = parse_statement(sql)
        except Exception:
            return
        if not isinstance(statement, _STANDBY_SAFE):
            raise ExecutionError(
                f"{type(statement).__name__} rejected: this server is a "
                "standby (read-only until promoted)")

    async def _handle_promote(self, request_id, frame: dict):
        if self.standby is None:
            raise ExecutionError(
                "promote: this server is not a standby"
                if self.role == "primary"
                else "promote: no standby controller attached")
        reason = frame.get("reason") or "requested by client"
        stats = await self.on_engine(
            self.standby.promote_on_engine, reason)
        return protocol.ok_response(request_id, role=self.role,
                                    promotion=stats)

    async def _handle_metrics(self, request_id):
        """Scrape the observability surfaces in one engine round trip."""
        def gather():
            out = {}
            for view in ("repro_metrics", "repro_cq_stats",
                         "repro_operator_stats", "repro_traces"):
                rs = self.db.query(f"SELECT * FROM {view}")
                out[view] = {"columns": list(rs.columns),
                             "rows": [list(r) for r in rs.rows]}
            return out
        payload = await self.on_engine(gather)
        return protocol.ok_response(request_id, metrics=payload)

    async def _writer_loop(self, session: Session, writer, wake) -> None:
        """Drains the session's outbound push buffer to the socket.
        ``writer.drain()`` is where a slow client's TCP window pushes
        back; while this coroutine waits there, the engine-side buffer
        fills and the session's slow-client policy kicks in."""
        try:
            while True:
                await wake.wait()
                wake.clear()
                frames = session.drain_frames()
                if not frames:
                    continue
                for frame in frames:
                    writer.write(protocol.encode_frame(frame))
                if self._c_frames_out is not None:
                    self._c_frames_out.inc(len(frames))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            for entry in session.subs.values():
                entry.broken = True
            raise


class ServerThread:
    """A server on a background thread, for tests and benchmarks.

    Starts the whole asyncio world off-thread and blocks until the
    socket is listening::

        with ServerThread() as server:
            conn = repro.client.connect(server.host, server.port)
    """

    def __init__(self, db: Optional[Database] = None,
                 host: str = "127.0.0.1", port: int = 0, **db_options):
        self._db = db
        self._db_options = db_options
        self._requested = (host, port)
        self.server: Optional[TruSQLServer] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def db(self) -> Database:
        return self.server.db

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not start in time")
        if self._error is not None:
            raise self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # startup failures surface in start()
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        host, port = self._requested
        self.server = TruSQLServer(
            db=self._db, host=host, port=port, **self._db_options)
        await self.server.start()
        self.host, self.port = self.server.host, self.server.port
        self._ready.set()
        await self.server.serve_until_shutdown()

    def stop(self, timeout: float = 10.0) -> None:
        if self.server is not None:
            self.server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout)

    def kill(self, timeout: float = 10.0) -> None:
        """Simulate ``kill -9``: abort every socket, skip all draining.

        Clients see a reset connection, not a goodbye; unflushed windows
        are lost.  What survives is exactly the WAL file — which is the
        point for crash-consistency and failover tests."""
        if self.server is not None:
            self.server.crash()
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


def main(argv=None) -> int:
    """Entry point of the ``repro-server`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="TruSQL network server (Continuous Analytics repro)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5433,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--init", metavar="FILE",
                        help="TruSQL script to execute before serving")
    parser.add_argument("--supervised", action="store_true",
                        help="enable the supervised runtime at boot")
    parser.add_argument("--retention", type=float, default=None,
                        help="default stream retention seconds "
                             "(enables late-subscriber replay)")
    parser.add_argument("--data-dir", default=None,
                        help="directory for the file-backed WAL; a "
                             "restart recovers all state from it")
    parser.add_argument("--standby-of", metavar="HOST:PORT", default=None,
                        help="start as a warm standby of that primary")
    parser.add_argument("--no-auto-promote", action="store_true",
                        help="standby only promotes on an explicit "
                             "'promote' op, never on missed heartbeats")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0,
                        help="standby heartbeat cadence, seconds")
    parser.add_argument("--miss-limit", type=int, default=3,
                        help="consecutive failed contacts before a "
                             "standby promotes itself")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="reap client sessions silent this long")
    parser.add_argument("--wal-segment-bytes", type=int, default=None,
                        help="roll WAL segments at this size (data-dir "
                             "mode; default 4 MiB)")
    parser.add_argument("--archive-dir", default=None,
                        help="where compaction parks sealed segments "
                             "(default: wal_archive beside the data dir)")
    parser.add_argument("--compact-interval", type=float, default=30.0,
                        help="seconds between WAL compaction passes "
                             "(0 disables)")
    parser.add_argument("--scrub-interval", type=float, default=None,
                        help="seconds between integrity scrub passes")
    parser.add_argument("--backup-to", metavar="DIR", default=None,
                        help="take periodic online backups into DIR")
    parser.add_argument("--backup-interval", type=float, default=60.0,
                        help="seconds between online backups "
                             "(with --backup-to)")
    parser.add_argument("--restore-from", metavar="DIR", default=None,
                        help="before serving, rebuild --data-dir from "
                             "this backup plus any surviving WAL")
    parser.add_argument("--until-lsn", type=int, default=None,
                        help="with --restore-from: point-in-time limit "
                             "(discard records past this LSN)")
    parser.add_argument("--partitions", type=int, default=None,
                        help="hash-partition PARTITION BY streams "
                             "across N worker subprocesses")
    args = parser.parse_args(argv)

    if args.restore_from is not None:
        if args.data_dir is None:
            parser.error("--restore-from requires --data-dir")
        from repro.storage.lifecycle import restore_backup
        stats = restore_backup(args.restore_from, args.data_dir,
                               until_lsn=args.until_lsn)
        print(f"restored {stats['records']} records "
              f"(lsn {stats['first_lsn']}..{stats['head_lsn']}) "
              f"into {args.data_dir}", flush=True)

    try:
        # the server's refusals (option combinations) are usage errors
        server = TruSQLServer(
            host=args.host, port=args.port,
            data_dir=args.data_dir, standby_of=args.standby_of,
            auto_promote=not args.no_auto_promote,
            heartbeat_interval=args.heartbeat_interval,
            miss_limit=args.miss_limit, idle_timeout=args.idle_timeout,
            compact_interval=(args.compact_interval
                              if args.data_dir is not None
                              and args.compact_interval else None),
            scrub_interval=args.scrub_interval,
            backup_to=args.backup_to,
            backup_interval=args.backup_interval,
            wal_segment_bytes=args.wal_segment_bytes,
            wal_archive_dir=args.archive_dir,
            supervised=args.supervised,
            partitions=args.partitions,
            stream_retention=args.retention)
    except ValueError as exc:
        parser.error(str(exc))

    async def amain() -> None:
        if args.init and server.role == "primary":
            with open(args.init, "r", encoding="utf-8") as handle:
                await server.on_engine(server.run_script, handle.read())
        await server.start()
        for name, rung in server.db.recovery_stats["cqs"]:
            if rung.startswith("cold:"):
                # its open window was lost: say so where an operator
                # looks (stderr: the banner stays stdout's first line)
                print(f"recovery: CQ {name!r} restarted cold "
                      f"({rung[len('cold:'):]})", file=sys.stderr, flush=True)
        print(_BANNER.format(host=server.host, port=server.port),
              flush=True)
        loop = asyncio.get_running_loop()
        try:
            import signal
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, server.request_shutdown)
        except (ImportError, NotImplementedError):  # pragma: no cover
            pass
        await server.serve_until_shutdown()

    asyncio.run(amain())
    return 0


if __name__ == "__main__":
    sys.exit(main())
