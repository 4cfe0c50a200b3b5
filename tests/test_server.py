"""Tests for the network service layer: protocol, sessions, server.

The end-to-end tests run a real server (own thread, own event loop, a
loopback TCP socket) and drive it with the synchronous client — the
same path a deployment uses.
"""

import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.client as client
from repro.core.database import Database
from repro.errors import ProtocolError, RemoteError
from repro.server import ServerThread
from repro.server import protocol
from repro.server.engine import EngineClosed, SingleWriterExecutor
from repro.server.session import Session, SessionSink, SubscriptionEntry

STREAM_DDL = "CREATE STREAM s (v integer, ts timestamp CQTIME USER)"
DERIVED_DDL = ("CREATE STREAM agg AS SELECT sum(v) total, cq_close(*) "
               "FROM s <VISIBLE '10 seconds'>")


# ---------------------------------------------------------------------------
# protocol framing
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_roundtrip(self):
        frame = {"id": 1, "op": "execute", "sql": "SELECT 1"}
        decoder = protocol.FrameDecoder()
        assert decoder.feed(protocol.encode_frame(frame)) == [frame]

    def test_partial_feed_buffers(self):
        data = protocol.encode_frame({"id": 7, "op": "ping"})
        decoder = protocol.FrameDecoder()
        assert decoder.feed(data[:3]) == []
        assert decoder.feed(data[3:10]) == []
        assert decoder.feed(data[10:]) == [{"id": 7, "op": "ping"}]

    def test_many_frames_one_feed(self):
        frames = [{"id": i, "op": "ping"} for i in range(5)]
        blob = b"".join(protocol.encode_frame(f) for f in frames)
        assert protocol.FrameDecoder().feed(blob) == frames

    def test_oversized_length_prefix_rejected(self):
        bogus = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            protocol.FrameDecoder().feed(bogus + b"x")

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_body(b"[1, 2, 3]")

    def test_unjsonable_values_degrade_to_text(self):
        class Odd:
            def __str__(self):
                return "odd"
        frames = protocol.FrameDecoder().feed(
            protocol.encode_frame({"id": 1, "v": Odd()}))
        assert frames[0]["v"] == "odd"


# ---------------------------------------------------------------------------
# single-writer executor
# ---------------------------------------------------------------------------


class TestSingleWriter:
    def test_serializes_and_returns(self):
        ex = SingleWriterExecutor()
        try:
            seen = []
            futures = [ex.submit(seen.append, i) for i in range(50)]
            for f in futures:
                f.result(5)
            assert seen == list(range(50))
        finally:
            ex.shutdown()

    def test_exceptions_travel(self):
        ex = SingleWriterExecutor()
        try:
            def boom():
                raise ValueError("nope")
            with pytest.raises(ValueError):
                ex.submit(boom).result(5)
        finally:
            ex.shutdown()

    def test_shutdown_drains_queued_jobs(self):
        ex = SingleWriterExecutor()
        ran = []
        for i in range(10):
            ex.submit(lambda i=i: (time.sleep(0.005), ran.append(i)))
        ex.shutdown()
        assert ran == list(range(10))

    def test_submit_after_shutdown_raises(self):
        ex = SingleWriterExecutor()
        ex.shutdown()
        with pytest.raises(EngineClosed):
            ex.submit(lambda: None)


# ---------------------------------------------------------------------------
# session backpressure policies (engine-thread side, no sockets)
# ---------------------------------------------------------------------------


class _StubServer:
    def __init__(self):
        self.db = Database()
        self.detached = []

    def schedule_detach(self, session, entries):
        self.detached.extend(entries)


def _session(policy, high_water, block_timeout=0.05):
    server = _StubServer()
    session = Session(1, server, "test:0")
    session.options.update({
        "subscribe_policy": policy,
        "subscribe_high_water": high_water,
        "block_timeout": block_timeout,
    })
    entry = SubscriptionEntry(1, "s", "stream", ["v", "ts"])
    sink = SessionSink(session, entry)
    entry.sink = sink
    session.subs[1] = entry
    return server, session, entry, sink


class TestSlowClientPolicies:
    def test_shed_oldest_drops_oldest_push(self):
        _server, session, entry, sink = _session("shed-oldest", 2)
        for t in (1.0, 2.0, 3.0):
            sink.on_tuple((1, t), t)
        frames = session.drain_frames()
        times = [f["time"] for f in frames if f["push"] == "tuple"]
        assert times == [2.0, 3.0]   # t=1.0 was shed
        assert entry.sheds == 1
        sheds = [f for f in frames if f["push"] == "shed"]
        assert sheds and sheds[0]["count"] == 1

    def test_shed_reported_once(self):
        _server, session, entry, sink = _session("shed-oldest", 1)
        for t in (1.0, 2.0, 3.0):
            sink.on_tuple((1, t), t)
        session.drain_frames()
        again = session.drain_frames()
        assert not [f for f in again if f["push"] == "shed"]

    def test_block_waits_for_drain(self):
        _server, session, entry, sink = _session("block", 1,
                                                 block_timeout=5.0)
        sink.on_tuple((1, 1.0), 1.0)
        drained = []

        def drain_later():
            time.sleep(0.05)
            drained.extend(session.drain_frames())

        helper = threading.Thread(target=drain_later)
        helper.start()
        started = time.monotonic()
        sink.on_tuple((2, 2.0), 2.0)   # blocks until the drain
        waited = time.monotonic() - started
        helper.join()
        assert waited >= 0.03
        assert entry.sheds == 0
        assert [f["time"] for f in drained] == [1.0]
        assert [f["time"] for f in session.drain_frames()] == [2.0]

    def test_block_timeout_degrades_to_shed(self):
        _server, session, entry, sink = _session("block", 1,
                                                 block_timeout=0.02)
        sink.on_tuple((1, 1.0), 1.0)
        sink.on_tuple((2, 2.0), 2.0)   # nobody drains: times out, sheds
        assert entry.sheds == 1
        frames = session.drain_frames()
        times = [f["time"] for f in frames if f["push"] == "tuple"]
        assert times == [2.0]

    def test_raise_policy_breaks_subscription(self):
        server, session, entry, sink = _session("raise", 1)
        sink.on_tuple((1, 1.0), 1.0)
        sink.on_tuple((2, 2.0), 2.0)
        assert entry.broken
        frames = session.drain_frames()
        closed = [f for f in frames if f["push"] == "sub_closed"]
        assert closed and "slow" in closed[0]["reason"]
        assert server.detached == [entry]
        # a broken subscription stops producing
        sink.on_tuple((3, 3.0), 3.0)
        assert not [f for f in session.drain_frames()
                    if f["push"] == "tuple" and f["time"] == 3.0]

    def test_shed_quarantined_under_supervision(self):
        server, session, entry, sink = _session("shed-oldest", 1)
        server.db.enable_supervision()
        sink.on_tuple((1, 1.0), 1.0)
        sink.on_tuple((2, 2.0), 2.0)
        letters = server.db.supervisor.dead_letter_log
        assert any(l.kind == "slow-consumer" for l in letters)


# ---------------------------------------------------------------------------
# end to end over loopback
# ---------------------------------------------------------------------------


@pytest.fixture
def server():
    with ServerThread(stream_retention=1000.0) as st:
        yield st


@pytest.fixture
def conn(server):
    connection = client.connect(server.host, server.port)
    yield connection
    connection.close()


class TestEndToEnd:
    def test_snapshot_roundtrip(self, conn):
        conn.execute("CREATE TABLE t (a integer, b varchar(10))")
        conn.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        result = conn.query("SELECT a, b FROM t ORDER BY a")
        assert result.columns == ["a", "b"]
        assert result.rows == [(1, "x"), (2, "y")]

    def test_parameters_travel(self, conn):
        conn.execute("CREATE TABLE t (a integer)")
        conn.execute("INSERT INTO t VALUES (1), (2), (3)")
        result = conn.query("SELECT a FROM t WHERE a > ?", (1,))
        assert sorted(result.rows) == [(2,), (3,)]

    def test_full_pipeline_two_connections(self, server, conn):
        """The acceptance scenario: create a stream, start a derived-
        stream CQ, SUBSCRIBE, ingest micro-batches from a second
        connection, receive the correct window results."""
        conn.execute(STREAM_DDL)
        conn.execute(DERIVED_DDL)
        sub = conn.subscribe("agg")
        assert sub.kind == "derived"
        assert sub.columns == ["total", "cq_close"]

        feeder = client.connect(server.host, server.port)
        try:
            accepted = feeder.ingest(
                "s", [(i, float(i)) for i in range(1, 9)])
            assert accepted == 8
            feeder.advance(10.0)
            windows = sub.wait_windows(1, timeout=5.0)
        finally:
            feeder.close()
        assert len(windows) == 1
        # tuples with ts in [0, 10): v = 1..8 except none dropped => 36
        assert windows[0].rows == [(36, 10.0)]
        assert windows[0].close_time == 10.0

    def test_execute_select_becomes_subscription(self, conn):
        conn.execute(STREAM_DDL)
        sub = conn.execute("SELECT count(*) c FROM s <VISIBLE '1 minute'>")
        assert isinstance(sub, client.RemoteSubscription)
        assert sub.kind == "query"
        conn.ingest("s", [(7, 5.0), (8, 6.0)])
        conn.advance(60.0)
        windows = sub.wait_windows(1, timeout=5.0)
        assert windows[0].rows == [(2,)]

    def test_subscribe_base_stream_live(self, conn):
        conn.execute(STREAM_DDL)
        sub = conn.subscribe("s")
        conn.ingest("s", [(1, 1.0), (2, 2.0)])
        tuples = sub.tuples(timeout=2.0)
        assert [t.row for t in tuples] == [(1, 1.0), (2, 2.0)]
        assert not any(t.replayed for t in tuples)

    def test_late_subscriber_replays_then_goes_live(self, conn):
        conn.execute(STREAM_DDL)
        conn.ingest("s", [(1, 1.0), (2, 2.0), (3, 3.0)])
        sub = conn.subscribe("s", since=2.0)
        replayed = sub.tuples(timeout=2.0)
        assert [(t.time, t.replayed) for t in replayed] == \
            [(2.0, True), (3.0, True)]
        conn.ingest("s", [(4, 4.0)])
        live = sub.tuples(timeout=2.0)
        assert [(t.time, t.replayed) for t in live] == [(4.0, False)]

    def test_replay_without_retention_is_an_error(self):
        with ServerThread() as st:   # no retention configured
            with client.connect(st.host, st.port) as c:
                c.execute(STREAM_DDL)
                with pytest.raises(RemoteError) as info:
                    c.subscribe("s", since=0.0)
                assert info.value.remote_type == "StreamingError"

    def test_unsubscribe_stops_delivery(self, conn):
        conn.execute(STREAM_DDL)
        sub = conn.subscribe("s")
        conn.ingest("s", [(1, 1.0)])
        assert sub.tuples(timeout=2.0)
        sub.unsubscribe()
        conn.ingest("s", [(2, 2.0)])
        assert sub.tuples(timeout=0.3) == []

    def test_unsubscribing_after_poison_windows_stops_the_cq(self, conn):
        # two poison windows are dead letters and the ad-hoc CQ runs on:
        # the next window is pushed, and unsubscribing takes it off the
        # stream
        conn.execute("SET supervision = on")
        conn.execute(STREAM_DDL)
        consumers = "SELECT consumers FROM repro_streams WHERE name = 's'"
        before = conn.query(consumers).rows
        sub = conn.execute("SELECT 10 / sum(v) AS r FROM s "
                           "<VISIBLE '1 minute'>")
        for close in (60.0, 120.0):
            conn.ingest("s", [(0, close - 5.0)])
            conn.advance(close)
        assert conn.query("SELECT kind, close_time FROM repro_dead_letters "
                          "WHERE source = ?", (sub.name,)).rows == [
            ("poison-window", 60.0), ("poison-window", 120.0)]
        conn.ingest("s", [(5, 125.0)])
        conn.advance(180.0)
        assert [w.rows for w in sub.wait_windows(1, timeout=5.0)] == \
            [[(2.0,)]]
        sub.unsubscribe()
        assert conn.query(consumers).rows == before

    def test_engine_errors_map_to_remote_errors(self, conn):
        with pytest.raises(RemoteError) as info:
            conn.execute("SELECT * FROM missing")
        assert info.value.remote_type == "BindError"
        with pytest.raises(RemoteError) as info:
            conn.subscribe("missing")
        assert info.value.remote_type == "UnknownObjectError"
        with pytest.raises(RemoteError) as info:
            conn.execute("SELEKT 1")
        assert info.value.remote_type == "ParseError"

    def test_engine_keeps_serving_after_errors(self, conn):
        for _ in range(3):
            with pytest.raises(RemoteError):
                conn.execute("SELECT * FROM missing")
        assert conn.query("SELECT 1 + 1").scalar() == 2

    def test_session_options_are_per_connection(self, server, conn):
        conn.execute("SET subscribe_high_water = 7")
        assert conn.query("SHOW subscribe_high_water").scalar() == "7"
        other = client.connect(server.host, server.port)
        try:
            assert other.query("SHOW subscribe_high_water").scalar() == "256"
        finally:
            other.close()

    def test_leading_comment_still_sets_session_option(self, conn):
        conn.execute("-- policy for this dashboard\n"
                     "SET subscribe_policy = 'shed-oldest'")
        assert conn.query("/* which? */ SHOW subscribe_policy").scalar() \
            == "shed-oldest"

    def test_show_all_includes_session_options(self, conn):
        rows = dict(conn.query("SHOW all").rows)
        assert rows["subscribe_policy"] == "block"
        assert "supervision" in rows    # engine rows merged in

    def test_connections_view(self, server, conn):
        conn.execute(STREAM_DDL)
        conn.subscribe("s")
        conn.ingest("s", [(1, 1.0)])
        rows = conn.query(
            "SELECT session_id, statements, rows_ingested, subscriptions "
            "FROM repro_connections").rows
        assert len(rows) == 1
        session_id, statements, ingested, subs = rows[0]
        assert statements >= 1 and ingested == 1 and subs == 1

    def test_disconnect_detaches_subscriptions(self, server, conn):
        conn.execute(STREAM_DDL)
        feeder = client.connect(server.host, server.port)
        feeder.subscribe("s")
        feeder.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            count = server.db.connection_registry()
            stream_consumers = conn.query(
                "SELECT consumers FROM repro_streams").scalar()
            if len(count) == 1 and stream_consumers == 0:
                break
            time.sleep(0.02)
        assert stream_consumers == 0

    def test_micro_batch_equivalence(self, server, conn):
        """Framed micro-batches land in insert_many: same totals as
        embedded ingest of the same rows."""
        conn.execute(STREAM_DDL)
        conn.execute(DERIVED_DDL)
        sub = conn.subscribe("agg")
        for start in range(0, 100, 25):
            conn.ingest("s", [(1, float(t)) for t in range(start,
                                                           start + 25)])
        conn.advance(100.0)
        windows = sub.wait_windows(10, timeout=5.0)
        assert sum(w.rows[0][0] for w in windows if w.rows) == 100

    def test_a_version_1_client_and_the_block_client_feed_one_stream(
            self, server, conn):
        """A raw socket that never says ``hello`` and sends JSON ``rows``
        (a version 1 or non-Python client) and the version 2 client's
        row-block frames land in the same windows: each window holds
        both halves, and the rows the stream retained are identical —
        values and types — whichever way they came."""
        conn.execute("CREATE STREAM e (k varchar(8), v integer, "
                     "x double precision, ts timestamp CQTIME USER)")
        conn.execute("CREATE STREAM totals AS SELECT k, count(*) c, "
                     "sum(v) total, cq_close(*) FROM e "
                     "<VISIBLE '10 seconds'> GROUP BY k")
        sub = conn.subscribe("totals")
        assert conn.protocol_version >= 2

        def batch(start):
            return [(("é" if i % 3 else None), i, (i / 4 if i % 5 else None),
                     start + i / 8) for i in range(40)]
        raw = socket.create_connection((server.host, server.port))
        try:
            decoder = protocol.FrameDecoder()
            for step, start in enumerate((0.0, 10.0, 20.0)):
                # the first half of each window as a block, the second
                # half — the same values, 5 s on — as JSON
                blocked, plain = batch(start), batch(start + 5.0)
                frame = protocol.encode_frame(
                    {"id": step + 1, "op": "ingest", "stream": "e"}, blocked)
                assert frame[4:5] == protocol.BLOCK_BODY
                assert conn.ingest("e", blocked) == 40
                raw.sendall(protocol.encode_frame(
                    {"id": step + 1, "op": "ingest", "stream": "e",
                     "rows": [list(row) for row in plain]}))
                answer = []
                while not answer:
                    answer = decoder.feed(raw.recv(65536))
                assert answer[0]["ok"] and answer[0]["accepted"] == 40
        finally:
            raw.close()
        conn.advance(40.0)
        windows = sub.wait_windows(3, timeout=5.0)
        for window in windows[:3]:
            assert sorted(row[:3] for row in window.rows
                          if row[0] is not None) \
                == [("é", 52, 2 * sum(i for i in range(40) if i % 3))]
            assert [row[1:3] for row in window.rows if row[0] is None] \
                == [(28, 2 * sum(range(0, 40, 3)))]
        tail = [row for _t, row in
                server.db.get_stream("e").replay_since(float("-inf"))]
        assert len(tail) == 240
        halves = {who: [row[:3] for row in tail if (row[3] % 10 < 5) == first]
                  for who, first in (("v2", True), ("v1", False))}
        assert halves["v1"] == halves["v2"]
        assert [[type(v) for v in row] for row in halves["v1"]] \
            == [[type(v) for v in row] for row in halves["v2"]]

    def test_graceful_shutdown_drains_windows(self, server, conn):
        conn.execute(STREAM_DDL)
        conn.execute(DERIVED_DDL)
        sub = conn.subscribe("agg")
        conn.ingest("s", [(5, 15.0)])   # window still open
        conn.shutdown_server()
        windows = sub.poll(timeout=5.0)
        assert [w.rows for w in windows] == [[(5, 20.0)]]
        deadline = time.monotonic() + 5.0
        while conn.server_goodbye is None and time.monotonic() < deadline:
            sub.poll(timeout=0.1)
        assert conn.server_goodbye == "server shutdown"

    def test_slow_client_sheds_over_loopback(self, server, conn):
        conn.execute("CREATE STREAM wide "
                     "(v varchar(9000), ts timestamp CQTIME USER)")
        conn.execute("SET subscribe_policy = 'shed-oldest'")
        conn.execute("SET subscribe_high_water = 4")
        sub = conn.subscribe("wide")
        feeder = client.connect(server.host, server.port)
        try:
            big = "x" * 8000
            t = 1.0
            for _batch in range(40):   # ~6.4 MB >> socket buffering
                feeder.ingest("wide", [(big, t + i) for i in range(20)])
                t += 20
        finally:
            feeder.close()
        received = sub.tuples(timeout=2.0)
        time.sleep(0.1)
        received += sub.tuples(timeout=1.0)
        assert sub.sheds > 0
        assert len(received) + sub.sheds <= 800
        # delivery stayed ordered despite the shedding
        times = [t.time for t in received]
        assert times == sorted(times)


class TestServerMisc:
    def test_hello_reports_session_and_protocol(self, conn):
        assert conn.session_id == 1
        assert conn.protocol_version == protocol.PROTOCOL_VERSION

    def test_ping(self, conn):
        assert conn.ping()

    def test_unknown_op_is_reported_not_fatal(self, server):
        raw = socket.create_connection((server.host, server.port))
        try:
            raw.sendall(protocol.encode_frame({"id": 1, "op": "dance"}))
            decoder = protocol.FrameDecoder()
            frames = []
            while not frames:
                frames = decoder.feed(raw.recv(65536))
            assert frames[0]["ok"] is False
            assert "dance" in frames[0]["error"]["message"]
        finally:
            raw.close()

    def test_preexisting_database_is_served(self):
        db = Database()
        db.execute("CREATE TABLE boot (a integer)")
        db.execute("INSERT INTO boot VALUES (41)")
        with ServerThread(db=db) as st:
            with client.connect(st.host, st.port) as c:
                assert c.query("SELECT a FROM boot").scalar() == 41

    def test_many_concurrent_connections(self, server):
        connections = [client.connect(server.host, server.port)
                       for _ in range(8)]
        try:
            connections[0].execute("CREATE TABLE counters (a integer)")

            def hammer(c, i):
                for _ in range(5):
                    c.execute("INSERT INTO counters VALUES (?)", (i,))

            threads = [threading.Thread(target=hammer, args=(c, i))
                       for i, c in enumerate(connections)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            total = connections[0].query(
                "SELECT count(*) FROM counters").scalar()
            assert total == 40
        finally:
            for c in connections:
                c.close()


class TestRefusals:
    """A combination the server cannot honour is refused before it
    serves, instead of being run on something else."""

    def test_log_options_need_a_log_directory(self, tmp_path):
        """They used to be ignored: the server ran on an in-memory log."""
        from repro.server import TruSQLServer
        with pytest.raises(ValueError, match="log directory"):
            TruSQLServer(wal_archive_dir=str(tmp_path / "archive"),
                         wal_segment_bytes=1024)
        assert not os.listdir(tmp_path)

    def test_a_standby_opens_its_own_database(self):
        from repro.server import TruSQLServer
        with pytest.raises(ValueError, match="standby"):
            TruSQLServer(db=Database(), standby_of="127.0.0.1:1")

    def test_cli_exits_before_the_banner(self, tmp_path):
        """``repro-server --archive-dir X`` without ``--data-dir`` is a
        usage error (it used to serve)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--archive-dir", str(tmp_path / "archive")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 2 and out == ""
        assert "log directory" in err
