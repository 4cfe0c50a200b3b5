"""Tests for client failover and standby auto-promotion.

The headline scenario from the HA work: kill the primary mid-window,
let the standby promote itself on missed heartbeats, and check a
subscribed client fails over and receives exactly the windows an
uninterrupted run would have produced — no gap, no duplicate.
"""

import socket
import threading
import time

import pytest

import repro.client as client
from repro.errors import ConnectionTimeoutError, ProtocolError, RemoteError
from repro.server import ServerThread

STREAM_DDL = "CREATE STREAM s (v integer, ts timestamp CQTIME USER)"
TOTALS_DDL = ("CREATE STREAM totals AS SELECT count(*) c, cq_close(*) "
              "FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'>")


def wait_until(probe, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    error = None
    while time.monotonic() < deadline:
        try:
            value = probe()
        except (RemoteError, ConnectionError, OSError) as exc:
            error = exc
            value = None
        if value:
            return value
        time.sleep(interval)
    raise TimeoutError(f"condition not reached (last error: {error})")


# ---------------------------------------------------------------------------
# connection hardening (satellite: handshake leak + connect timeout)
# ---------------------------------------------------------------------------


class TestConnectHardening:
    def test_connect_timeout_raises_typed_error(self, monkeypatch):
        def hang(address, timeout=None):
            raise socket.timeout("timed out")

        monkeypatch.setattr(client.socket, "create_connection", hang)
        with pytest.raises(ConnectionTimeoutError) as info:
            client.connect("192.0.2.1", 9999, connect_timeout=0.2)
        assert info.value.host == "192.0.2.1"
        assert info.value.port == 9999
        assert "0.2" in str(info.value)

    def test_handshake_failure_closes_socket(self):
        """A server that accepts TCP but never answers hello must not
        leak the socket when the handshake times out."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        accepted = []

        def accept():
            try:
                sock, _ = listener.accept()
                accepted.append(sock)
            except OSError:
                pass

        thread = threading.Thread(target=accept, daemon=True)
        thread.start()
        port = listener.getsockname()[1]
        try:
            with pytest.raises((ConnectionTimeoutError, ProtocolError,
                                ConnectionError)):
                client.connect("127.0.0.1", port, timeout=0.3,
                               connect_timeout=0.3)
            thread.join(timeout=2.0)
            assert accepted, "server never saw the connection"
            # the failed handshake must close the client socket: drain
            # the hello bytes, then expect EOF rather than a blocked recv
            accepted[0].settimeout(3.0)
            while accepted[0].recv(65536):
                pass
        finally:
            listener.close()
            for sock in accepted:
                sock.close()

    def test_bad_failover_target_spec_rejected(self):
        with pytest.raises(ProtocolError):
            client._parse_targets("not-a-hostport")
        assert client._parse_targets("h1:1, h2:2") == [("h1", 1), ("h2", 2)]
        assert client._parse_targets([("h", 5)]) == [("h", 5)]


class TestClientOptions:
    def test_set_and_show_failover_options(self):
        with ServerThread() as st:
            with client.connect(st.host, st.port) as c:
                c.execute("SET failover_targets = 'h1:7001,h2:7002'")
                shown = c.query("SHOW failover_targets").scalar()
                assert "h1:7001" in shown
                assert c.failover_targets == [("h1", 7001), ("h2", 7002)]
                c.execute("SET reconnect_max_backoff = 0.25")
                assert c.reconnect_max_backoff == 0.25
                assert float(
                    c.query("SHOW reconnect_max_backoff").scalar()) == 0.25


# ---------------------------------------------------------------------------
# the headline failover scenario
# ---------------------------------------------------------------------------


class TestFailover:
    def run_pipeline(self, tmp_path, crash):
        """Run the reference workload; when ``crash`` is true, kill the
        primary between window 2 and window 3 and continue against the
        auto-promoted standby.  Returns the windows the watcher saw."""
        prim = ServerThread(data_dir=str(tmp_path / f"prim-{crash}"),
                            stream_retention=600.0)
        prim.start()
        stby = None
        try:
            pconn = client.connect(prim.host, prim.port)
            pconn.execute(STREAM_DDL)
            pconn.execute(TOTALS_DDL)
            # the archive is the CQ's Active Table: promotion rebuilds
            # the in-flight window from it (the paper's strategy), which
            # is what makes the post-crash windows exact
            pconn.execute("CREATE TABLE archive (c bigint, ts timestamp)")
            pconn.execute("CREATE CHANNEL arch FROM totals "
                          "INTO archive APPEND")

            stby = ServerThread(
                data_dir=str(tmp_path / f"stby-{crash}"),
                standby_of=f"{prim.host}:{prim.port}",
                heartbeat_interval=0.1, miss_limit=3, auto_promote=True,
                stream_retention=600.0)
            stby.start()

            watcher = client.connect(
                prim.host, prim.port,
                failover_targets=[(stby.host, stby.port)],
                reconnect_max_backoff=0.3)
            sub = watcher.subscribe("totals")

            pconn.ingest("s", [(i, float(i)) for i in range(1, 10)])
            pconn.ingest("s", [(i, 10.0 + i) for i in range(1, 6)])
            pconn.ingest("s", [(0, 21.0)])   # closes (10,20]
            got = []
            wait_until(lambda: got.extend(sub.poll(timeout=0.2))
                       or len(got) >= 2)

            # standby fully caught up before any crash
            sconn = client.connect(stby.host, stby.port)
            wait_until(lambda: sconn.query(
                "SELECT lag FROM repro_replication_status")
                .scalar() == 0)

            if crash:
                prim.kill()
                wait_until(lambda: sconn.query(
                    "SELECT role FROM repro_replication_status")
                    .scalar() == "primary", timeout=20.0)
                driver = client.connect(stby.host, stby.port)
            else:
                driver = pconn
            driver.ingest("s", [(i, 20.0 + i) for i in range(1, 8)])
            driver.ingest("s", [(0, 31.0)])  # closes (20,30]
            wait_until(lambda: got.extend(sub.poll(timeout=0.2))
                       or len(got) >= 3, timeout=20.0)
            failovers = watcher.failovers
            watcher.close()
            sconn.close()
            if crash:
                driver.close()
            else:
                pconn.close()
            return [(w.open_time, w.close_time, sorted(w.rows))
                    for w in got], failovers
        finally:
            if stby is not None:
                stby.stop()
            prim.stop()

    def test_windows_identical_to_uninterrupted_run(self, tmp_path):
        reference, _ = self.run_pipeline(tmp_path, crash=False)
        survived, failovers = self.run_pipeline(tmp_path, crash=True)
        assert failovers >= 1, "client never failed over"
        assert survived == reference
        closes = [close for _open, close, _rows in survived]
        assert closes == sorted(set(closes)), "duplicate or reordered"

    def test_nonresumable_subscription_closed_on_failover(self, tmp_path):
        prim = ServerThread(data_dir=str(tmp_path / "p2"),
                            stream_retention=600.0)
        prim.start()
        stby = None
        try:
            pconn = client.connect(prim.host, prim.port)
            pconn.execute(STREAM_DDL)
            stby = ServerThread(
                data_dir=str(tmp_path / "s2"),
                standby_of=f"{prim.host}:{prim.port}",
                heartbeat_interval=0.1, miss_limit=3, auto_promote=True,
                stream_retention=600.0)
            stby.start()
            watcher = client.connect(
                prim.host, prim.port,
                failover_targets=[(stby.host, stby.port)],
                reconnect_max_backoff=0.3)
            # an ad-hoc CQ subscription has no durable name to re-attach
            adhoc = watcher.execute(
                "SELECT count(*) c, cq_close(*) FROM s "
                "<VISIBLE '10 seconds' ADVANCE '10 seconds'>")
            assert adhoc.kind == "query"
            durable = watcher.subscribe("s")

            sconn = client.connect(stby.host, stby.port)
            # lag == 0 also holds before the standby has received
            # anything; wait for it to have applied the primary's head
            # (which carries stream s) instead
            head = pconn.query("SELECT head_lsn FROM repro_storage").scalar()
            wait_until(lambda: sconn.query(
                "SELECT applied_lsn FROM repro_replication_status")
                .scalar() >= head)
            prim.kill()
            wait_until(lambda: sconn.query(
                "SELECT role FROM repro_replication_status")
                .scalar() == "primary", timeout=20.0)

            # drive traffic so the watcher notices the dead socket
            npconn = client.connect(stby.host, stby.port)
            npconn.ingest("s", [(1, 1.0)])
            wait_until(lambda: durable.tuples(timeout=0.2)
                       or watcher.failovers >= 1, timeout=20.0)
            assert watcher.failovers >= 1
            assert adhoc.closed
            assert adhoc.close_reason == "failover"
            assert not durable.closed
            watcher.close()
            sconn.close()
            npconn.close()
        finally:
            if stby is not None:
                stby.stop()
            prim.stop()

    def test_promotion_rejected_on_plain_primary(self, tmp_path):
        with ServerThread(data_dir=str(tmp_path / "p3")) as st:
            with client.connect(st.host, st.port) as c:
                with pytest.raises(RemoteError):
                    c.promote("nope")


# ---------------------------------------------------------------------------
# retraction-pair sequencing across failover replay (event-time satellite)
# ---------------------------------------------------------------------------


class _StubConnection:
    """Just enough of a Connection for RemoteSubscription unit tests."""

    def _pump_until(self, ready, timeout):
        pass


def _sub():
    return client.RemoteSubscription(_StubConnection(), 1, "counts",
                                     ["c"], "derived")


def _frame(seq, kind, open_time, close, rows=((1,),)):
    frame = {"push": "window", "sub": 1, "seq": seq,
             "open": open_time, "close": close,
             "rows": [list(r) for r in rows]}
    if kind != "window":
        frame["kind"] = kind
    return frame


class TestRetractionPairSequencing:
    def test_ordered_pair_is_delivered(self):
        sub = _sub()
        sub._on_push(_frame(1, "window", 0.0, 10.0))
        sub._on_push(_frame(2, "retract", 0.0, 10.0))
        sub._on_push(_frame(3, "correct", 0.0, 10.0, rows=((2,),)))
        kinds = [w.kind for w in sub.poll()]
        assert kinds == ["window", "retract", "correct"]
        # corrections never advance the resume cursor
        assert sub.last_close == 10.0

    def test_unpaired_retraction_is_an_error(self):
        sub = _sub()
        sub._on_push(_frame(1, "retract", 0.0, 10.0))
        with pytest.raises(ProtocolError):
            sub._on_push(_frame(2, "window", 10.0, 20.0))

    def test_double_retraction_is_an_error(self):
        sub = _sub()
        sub._on_push(_frame(1, "retract", 0.0, 10.0))
        with pytest.raises(ProtocolError):
            sub._on_push(_frame(2, "retract", 10.0, 20.0))

    def test_mismatched_correction_is_an_error(self):
        sub = _sub()
        sub._on_push(_frame(1, "retract", 0.0, 10.0))
        with pytest.raises(ProtocolError):
            sub._on_push(_frame(2, "correct", 10.0, 20.0))

    def test_replayed_frames_are_dropped_not_reordered(self):
        """Failover replay overlap: the server re-delivers frames the
        client already has.  They carry stale seqs and must be dropped
        whole — replaying half a retract/correct pair must not trip
        the pairing assertion or re-apply a correction."""
        sub = _sub()
        sub._on_push(_frame(1, "window", 0.0, 10.0))
        sub._on_push(_frame(2, "retract", 0.0, 10.0))
        sub._on_push(_frame(3, "correct", 0.0, 10.0, rows=((2,),)))
        sub.poll()
        # overlap: same frames again — including a lone retract
        sub._on_push(_frame(2, "retract", 0.0, 10.0))
        sub._on_push(_frame(3, "correct", 0.0, 10.0, rows=((2,),)))
        assert sub.poll() == []
        assert sub._pending_retract is None
        # and delivery continues cleanly after the overlap
        sub._on_push(_frame(4, "window", 10.0, 20.0))
        assert [w.kind for w in sub.poll()] == ["window"]

    def test_shed_gap_invalidates_pending_pair(self):
        """A seq gap proves frames were shed (slow-client policy): a
        half-open retraction can no longer pair and must be forgotten
        rather than raising on the next frame."""
        sub = _sub()
        sub._on_push(_frame(1, "retract", 0.0, 10.0))
        assert sub._pending_retract == (0.0, 10.0)
        sub._on_push(_frame(4, "window", 20.0, 30.0))  # 2, 3 shed
        assert sub._pending_retract is None
        assert [w.kind for w in sub.poll()] == ["retract", "window"]

    def test_failover_resets_seq_space(self):
        """After failover the new primary numbers pushes from 1 again;
        the reset must let those frames through."""
        sub = _sub()
        sub._on_push(_frame(7, "window", 0.0, 10.0))
        assert sub.last_seq == 7
        # what Connection._resume_subscriptions does on reconnect
        sub.last_seq = None
        sub._pending_retract = None
        sub._on_push(_frame(1, "window", 10.0, 20.0))
        assert sub.last_seq == 1
        assert len(sub.poll()) == 2
