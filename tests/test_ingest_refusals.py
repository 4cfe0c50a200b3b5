"""Input the engine refuses at the door, embedded and over a socket.

A non-finite event time used to hang the single engine thread
(``TimeWindowOperator._close_through`` never finishes closing "through"
``nan`` or ``inf``), and Python's ``json.loads`` reads the literals
``NaN`` / ``Infinity`` — one frame from any client took the writer away
from every tenant.  Each call here runs under a 5 s thread timeout; the
refusal is typed, leaves nothing in the WAL, and the next well-formed
batch is accepted.
"""

import socket
import threading

import pytest

import repro.client as client
from repro.errors import (
    ConstraintError,
    ProtocolError,
    RemoteError,
    StreamingError,
)
from repro.replication import open_database
from repro.server import ServerThread
from repro.server import protocol
from repro.storage.wal import stream_points

USER_DDL = "CREATE STREAM s (v integer, ts timestamp CQTIME USER)"
WINDOWED = "SELECT count(*) AS n FROM s <VISIBLE '1 second'>"
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def within(seconds, fn, *args, **kwargs):
    """``fn(...)`` on its own thread: its result, or its exception
    re-raised here; fails when it has not returned after ``seconds``."""
    box = {}

    def call():
        try:
            box["result"] = fn(*args, **kwargs)
        except BaseException as exc:       # handed to the caller below
            box["error"] = exc
    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), \
        f"{getattr(fn, '__name__', fn)} still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["result"]


def windowed_db(ddl=USER_DDL, **options):
    db = open_database(stream_retention=3600.0, **options)
    db.execute(ddl)
    return db, db.subscribe(WINDOWED)


class TestNonFiniteTimeEmbedded:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("lead", [0, 1, 40])
    def test_row_time_is_refused_and_the_stream_goes_on(self, bad, lead,
                                                        tmp_path):
        db, sub = windowed_db(wal_path=str(tmp_path / "wal"))
        rows = [(i, float(i) / 100) for i in range(lead)] + [(99, bad)]
        logged = len(db.storage.wal)
        with pytest.raises(ConstraintError, match=f"row {lead}: .*finite"):
            within(5, db.ingest_batch, "s", rows)
        stream = db.get_stream("s")
        assert stream.tuples_in == lead       # rows before it stay applied
        batch = db.storage.wal.records[logged:]     # and logged, as one
        assert [len(stream_points(r)) for r in batch] == [lead][:lead]
        assert within(5, db.ingest_batch, "s",
                      [(1, 1.5), (2, 2.5)])["accepted"] == 2
        within(5, db.flush_streams)
        assert sum(w.rows[0][0] for w in sub.poll()) == lead + 2
        db.close()

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_single_row_insert_and_event_time_stream(self, bad):
        db, _sub = windowed_db(USER_DDL + " WATERMARK '2 seconds'")
        with pytest.raises(ConstraintError, match="finite"):
            within(5, db.get_stream("s").insert, (1, bad))
        with pytest.raises(ConstraintError, match="row 1: .*finite"):
            within(5, db.insert_stream, "s", [(1, 1.0), (2, bad)])
        assert within(5, db.insert_stream, "s", [(3, 3.0)]) == 1

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_arrival_clock_of_a_system_time_stream(self, bad):
        db, _sub = windowed_db(
            "CREATE STREAM s (v integer, ts timestamp CQTIME SYSTEM)")
        for rows in ([(1, None)], [(i, None) for i in range(30)]):
            with pytest.raises(ConstraintError, match="row 0: .*finite"):
                within(5, db.ingest_batch, "s", rows, at=bad)
        assert within(5, db.ingest_batch, "s", [(1, None)],
                      at=4.0)["accepted"] == 1

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_advance_and_watermark_are_refused_before_the_log(self, bad,
                                                              tmp_path):
        db, _sub = windowed_db(USER_DDL + " WATERMARK '2 seconds'",
                               wal_path=str(tmp_path / "wal"))
        db.ingest_batch("s", [(1, 1.0)])
        logged = len(db.storage.wal)
        with pytest.raises(StreamingError, match="finite"):
            within(5, db.advance_streams, bad)
        with pytest.raises(StreamingError, match="finite"):
            within(5, db.inject_watermark, "s", bad)
        with pytest.raises(StreamingError, match="finite"):
            within(5, db.ingest_batch, "s", [(2, 2.0)], sender="c", seq=1,
                   watermark=bad)
        # the batch whose watermark was refused applied nothing at all
        assert len(db.storage.wal) == logged
        assert db.get_stream("s").tuples_in == 1
        assert within(5, db.ingest_batch, "s", [(2, 2.0)], sender="c",
                      seq=1, watermark=9.0)["accepted"] == 1
        within(5, db.advance_streams, 20.0)
        db.close()


class TestRowsThatAreNotRows:
    def test_embedded_names_the_row(self):
        db, _sub = windowed_db()
        with pytest.raises(ConstraintError, match="row 0: .*sequence"):
            db.ingest_batch("s", [5])
        with pytest.raises(ConstraintError, match="row 2: .*sequence"):
            db.ingest_batch("s", [(1, 1.0), (2, 2.0), None])
        with pytest.raises(ConstraintError, match="row 1: row has 3 values"):
            db.ingest_batch("s", [(3, 3.0), (4, 4.0, 4)])
        assert db.get_stream("s").tuples_in == 3
        with pytest.raises(ConstraintError, match="sequence"):
            db.get_stream("s").insert(5)

    def test_the_client_refuses_before_anything_is_sent(self):
        with ServerThread(stream_retention=1000.0) as st, \
                client.connect(st.host, st.port) as conn:
            conn.execute(USER_DDL)
            sent = conn._request_counter
            good = [(i, float(i)) for i in range(3)]
            for bad in (5, (1,), "ab"):
                with pytest.raises(ProtocolError, match="row 3 "):
                    conn.ingest("s", good + [bad])
            # nothing reached the socket, so the connection is in step
            assert conn.ingest("s", good + [(99, 99.0)]) == 4
            assert conn._request_counter == sent + 4
            assert conn.query("SELECT count(*) FROM repro_connections"
                              ).scalar() == 1

    def test_a_json_client_gets_the_typed_error(self):
        with ServerThread(stream_retention=1000.0) as st:
            with client.connect(st.host, st.port) as conn:
                conn.execute(USER_DDL)
            answers = raw_exchange(st, [
                {"id": 1, "op": "ingest", "stream": "s", "rows": [5]},
                {"id": 2, "op": "ingest", "stream": "s",
                 "rows": [[1, 1.0], [2]]},
                {"id": 3, "op": "ingest", "stream": "s", "rows": [[3, 3.0]]}])
            assert [a["ok"] for a in answers] == [False, False, True]
            assert [a["error"]["type"] for a in answers[:2]] \
                == ["ConstraintError", "ConstraintError"]
            assert "row 0" in answers[0]["error"]["message"]
            assert "row 1" in answers[1]["error"]["message"]


def raw_exchange(st, frames, timeout=5.0):
    """Send ``frames`` (dicts, or ready bytes) one at a time over a bare
    socket — no ``hello``, a version 1 client — and return the answer to
    each."""
    raw = socket.create_connection((st.host, st.port), timeout=timeout)
    try:
        decoder = protocol.FrameDecoder()
        answers = []
        for frame in frames:
            raw.sendall(frame if isinstance(frame, bytes)
                        else protocol.encode_frame(frame))
            got = []
            while not got:
                data = raw.recv(65536)
                assert data, "server closed the connection"
                got = [f for f in decoder.feed(data) if "id" in f]
            answers.extend(got)
        return answers
    finally:
        raw.close()


def json_frame(text: str) -> bytes:
    """A frame whose body is ``text`` verbatim (``json.dumps`` would
    never be asked to write these by a well-meaning client)."""
    body = text.encode("utf-8")
    return len(body).to_bytes(4, "big") + body


class TestNonFiniteTimeOverTheWire:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_raw_json_frames_cannot_take_the_engine_away(self, literal):
        with ServerThread(stream_retention=1000.0) as st:
            with client.connect(st.host, st.port, timeout=5.0) as conn:
                conn.execute(USER_DDL)
                sub = conn.execute(WINDOWED)
                answers = raw_exchange(st, [
                    json_frame('{"id":1,"op":"ingest","stream":"s",'
                               f'"rows":[[1,0.5],[2,{literal}]]}}'),
                    json_frame(f'{{"id":2,"op":"advance","time":{literal}}}'),
                    json_frame('{"id":3,"op":"ingest","stream":"s",'
                               f'"rows":[[3,0.7]],"watermark":{literal}}}'),
                    {"id": 4, "op": "ingest", "stream": "s",
                     "rows": [[4, 0.9]]}])
                assert [a["ok"] for a in answers] \
                    == [False, False, False, True]
                assert [a["error"]["type"] for a in answers[:3]] == [
                    "ConstraintError", "StreamingError", "StreamingError"]
                # every other session still has its engine
                assert conn.ingest("s", [(5, 1.5)]) == 1
                conn.flush()
                windows = sub.wait_windows(2, timeout=5.0)
                assert [w.rows for w in windows] == [[(2,)], [(1,)]]

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_a_block_frames_f8_column_carries_them_too(self, bad):
        with ServerThread(stream_retention=1000.0) as st, \
                client.connect(st.host, st.port, timeout=5.0) as conn:
            conn.execute(USER_DDL)
            conn.execute(WINDOWED)
            rows = [(i, i / 100) for i in range(4)] + [(99, bad)]
            with pytest.raises(RemoteError, match="row 4: .*finite"
                               ) as caught:
                conn.ingest("s", rows)
            assert caught.value.remote_type == "ConstraintError"
            with pytest.raises(RemoteError, match="finite"):
                conn.advance(bad)
            assert conn.ingest("s", [(1, 5.0)]) == 1
