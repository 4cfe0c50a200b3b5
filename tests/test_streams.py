"""Tests for base/derived streams: ordering, retention, heartbeats."""

import pytest

from repro.catalog.schema import Column, Schema
from repro.errors import OutOfOrderError, StreamingError
from repro.streaming.streams import BaseStream, DerivedStream, StreamConsumer
from repro.types.datatypes import IntegerType, TimestampType, VarcharType


def click_schema(mode="user"):
    return Schema([
        Column("url", VarcharType(100)),
        Column("ts", TimestampType(), cqtime=mode),
    ])


class Recorder(StreamConsumer):
    def __init__(self):
        self.tuples = []
        self.heartbeats = []
        self.flushed = False

    def on_tuple(self, row, event_time):
        self.tuples.append((event_time, row))

    def on_heartbeat(self, event_time):
        self.heartbeats.append(event_time)

    def on_flush(self):
        self.flushed = True


class TestBaseStream:
    def test_requires_cqtime(self):
        schema = Schema([Column("v", IntegerType())])
        with pytest.raises(StreamingError):
            BaseStream("s", schema)

    def test_insert_delivers_to_consumers(self):
        stream = BaseStream("s", click_schema())
        sink = Recorder()
        stream.subscribe(sink)
        stream.insert(("/a", 10.0))
        assert sink.tuples == [(10.0, ("/a", 10.0))]

    def test_coercion_applied(self):
        stream = BaseStream("s", click_schema())
        sink = Recorder()
        stream.subscribe(sink)
        stream.insert(("/a", "1970-01-01 00:01:00"))
        assert sink.tuples[0][0] == 60.0

    def test_watermark_advances(self):
        stream = BaseStream("s", click_schema())
        stream.insert(("/a", 5.0))
        stream.insert(("/b", 9.0))
        assert stream.watermark == 9.0

    def test_out_of_order_raises(self):
        stream = BaseStream("s", click_schema())
        stream.insert(("/a", 10.0))
        with pytest.raises(OutOfOrderError):
            stream.insert(("/b", 5.0))

    def test_out_of_order_drop_policy(self):
        stream = BaseStream("s", click_schema(), disorder_policy="drop")
        stream.insert(("/a", 10.0))
        assert stream.insert(("/b", 5.0)) is False
        assert stream.tuples_dropped == 1
        assert stream.tuples_in == 1

    def test_equal_timestamps_allowed(self):
        stream = BaseStream("s", click_schema())
        stream.insert(("/a", 10.0))
        stream.insert(("/b", 10.0))
        assert stream.tuples_in == 2

    def test_null_cqtime_rejected(self):
        stream = BaseStream("s", click_schema())
        with pytest.raises(StreamingError):
            stream.insert(("/a", None))

    def test_system_time_stamped(self):
        stream = BaseStream("s", click_schema(mode="system"))
        sink = Recorder()
        stream.subscribe(sink)
        stream.insert(("/a", None), at=42.0)
        assert sink.tuples[0][1] == ("/a", 42.0)

    def test_heartbeat_broadcast(self):
        stream = BaseStream("s", click_schema())
        sink = Recorder()
        stream.subscribe(sink)
        stream.advance_to(99.0)
        assert sink.heartbeats == [99.0]
        assert stream.watermark == 99.0

    def test_stale_heartbeat_ignored(self):
        stream = BaseStream("s", click_schema())
        stream.insert(("/a", 50.0))
        sink = Recorder()
        stream.subscribe(sink)
        stream.advance_to(10.0)
        assert sink.heartbeats == []

    def test_flush_broadcast(self):
        stream = BaseStream("s", click_schema())
        sink = Recorder()
        stream.subscribe(sink)
        stream.flush()
        assert sink.flushed

    def test_unsubscribe(self):
        stream = BaseStream("s", click_schema())
        sink = Recorder()
        stream.subscribe(sink)
        stream.unsubscribe(sink)
        stream.insert(("/a", 1.0))
        assert sink.tuples == []

    def test_insert_many_counts(self):
        stream = BaseStream("s", click_schema(), disorder_policy="drop")
        accepted = stream.insert_many(
            [("/a", 1.0), ("/b", 5.0), ("/late", 2.0)])
        assert accepted == 2

    def test_insert_many_counts_late_drops_once(self):
        # a dropped-late row is counted once, as dropped, and the
        # ledger adds up to the batch
        stream = BaseStream("s", click_schema(), disorder_policy="drop")
        stream.insert(("/head", 50.0))
        counted = stream.insert_many_counted([("/late", 1.0), ("/ok", 60.0)])
        assert counted == {"accepted": 1, "shed": 0, "dropped": 1}
        assert stream.tuples_dropped == 1


class TestRetention:
    def test_replay_since(self):
        stream = BaseStream("s", click_schema(), retention=100.0)
        for t in (1.0, 2.0, 3.0):
            stream.insert((f"/p{t}", t))
        replayed = list(stream.replay_since(2.0))
        assert [when for when, _row in replayed] == [2.0, 3.0]

    def test_tail_trimmed_past_retention(self):
        stream = BaseStream("s", click_schema(), retention=10.0)
        stream.insert(("/a", 0.0))
        stream.insert(("/b", 100.0))
        assert stream.replay_horizon() >= 90.0

    def test_no_retention_raises_on_replay(self):
        stream = BaseStream("s", click_schema())
        stream.insert(("/a", 1.0))
        with pytest.raises(StreamingError):
            list(stream.replay_since(0.0))

    def test_replay_horizon_empty(self):
        stream = BaseStream("s", click_schema(), retention=10.0)
        assert stream.replay_horizon() == float("inf")

    def test_mid_stream_subscriber_catches_up(self):
        """A consumer arriving mid-stream replays the retained tail,
        then sees live tuples exactly once — no gap, no overlap."""
        stream = BaseStream("s", click_schema(), retention=100.0)
        for t in (1.0, 2.0, 3.0):
            stream.insert((f"/p{t}", t))
        sink = Recorder()
        # the late-subscriber protocol: replay, then attach
        replayed = [(when, row)
                    for when, row in stream.replay_since(2.0)]
        stream.subscribe(sink)
        stream.insert(("/live", 4.0))
        assert [when for when, _ in replayed] == [2.0, 3.0]
        assert sink.tuples == [(4.0, ("/live", 4.0))]
        seen = [when for when, _ in replayed] + \
            [when for when, _ in sink.tuples]
        assert seen == sorted(set(seen))   # once each, in order

    def test_replay_horizon_tracks_trim(self):
        stream = BaseStream("s", click_schema(), retention=10.0)
        stream.insert(("/a", 0.0))
        assert stream.replay_horizon() <= 0.0
        stream.insert(("/b", 50.0))
        horizon = stream.replay_horizon()
        assert horizon >= 40.0
        # asking for earlier than the horizon yields only what is kept
        assert [when for when, _ in stream.replay_since(0.0)] == [50.0]

    def test_replay_since_boundary_inclusive(self):
        stream = BaseStream("s", click_schema(), retention=100.0)
        stream.insert(("/a", 5.0))
        stream.insert(("/b", 6.0))
        assert [when for when, _ in stream.replay_since(5.0)] == [5.0, 6.0]
        assert [when for when, _ in stream.replay_since(5.5)] == [6.0]


class BatchRecorder:
    def __init__(self):
        self.batches = []

    def on_batch(self, rows, open_time, close_time):
        self.batches.append((list(rows), open_time, close_time))

    def on_flush(self):
        pass


class TestDerivedStream:
    def make(self):
        schema = Schema([Column("c", IntegerType()),
                         Column("ts", TimestampType())])
        return DerivedStream("d", schema)

    def test_batch_consumers_get_batches(self):
        derived = self.make()
        sink = BatchRecorder()
        derived.subscribe(sink)
        derived.publish([(1, 60.0)], 0.0, 60.0)
        assert sink.batches == [([(1, 60.0)], 0.0, 60.0)]

    def test_tuple_consumers_get_flattened(self):
        derived = self.make()
        sink = Recorder()
        derived.subscribe(sink)
        derived.publish([(1, 60.0), (2, 60.0)], 0.0, 60.0)
        assert [row for _t, row in sink.tuples] == [(1, 60.0), (2, 60.0)]
        # event time is the window close
        assert all(t == 60.0 for t, _row in sink.tuples)

    def test_empty_batch_still_heartbeats_tuple_consumers(self):
        derived = self.make()
        sink = Recorder()
        derived.subscribe(sink)
        derived.publish([], 0.0, 60.0)
        assert sink.tuples == []
        assert sink.heartbeats == [60.0]

    @pytest.mark.parametrize("deliver", [
        lambda d: d.publish([(1, 60.0)], 0.0, 60.0),
        lambda d: d.publish_correction("correct", [(1, 60.0)], 0.0, 60.0),
        lambda d: d.flush(),
    ], ids=["publish", "correction", "flush"])
    def test_a_consumer_leaving_mid_delivery_skips_no_other(self, deliver):
        derived = self.make()
        seen = []

        class Leaver(StreamConsumer):
            def __init__(self, name):
                self.name = name

            def on_tuple(self, row, event_time):
                self.on_flush()

            def on_correction(self, *record):
                self.on_flush()

            def on_flush(self):
                seen.append(self.name)
                derived.unsubscribe(self)

        for name in ("a", "b"):
            derived.subscribe(Leaver(name))
        deliver(derived)
        assert seen == ["a", "b"]

    def test_a_subscription_closed_by_its_listener_skips_no_other(self):
        from repro.core.database import Database
        db = Database()
        db.execute("CREATE STREAM s (k integer, ts timestamp CQTIME USER)")
        db.execute("CREATE STREAM d AS SELECT count(*) AS n, cq_close(*) "
                   "AS t FROM s <VISIBLE '10 seconds'>")
        a, b = (db.subscribe("SELECT n, t FROM d") for _ in range(2))
        closes = []
        a.listen(lambda window: a.close())
        b.listen(lambda window: closes.append(window.close_time))
        for ts in (1.0, 12.0, 25.0, 37.0):
            db.insert_stream("s", [(1, ts)])
        assert closes == [10.0, 20.0, 30.0]

    def test_stats(self):
        derived = self.make()
        derived.publish([(1, 1.0)], 0.0, 60.0)
        derived.publish([(2, 2.0), (3, 3.0)], 60.0, 120.0)
        assert derived.batches_out == 2
        assert derived.tuples_out == 3


class TestRowsFromAnIterator:
    """A batch handed over as a generator lands whole.  The batch fast
    path reads its rows more than once, and used to exhaust the
    iterator on the first pass: the batch "succeeded" with nothing in
    it."""

    @pytest.mark.parametrize("call", ["insert_stream", "ingest_batch"])
    def test_every_row_lands(self, call):
        from repro.core.database import Database
        db = Database()
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        sub = db.subscribe("SELECT count(*) AS n FROM s <VISIBLE '1 second'>")
        rows = [(i, i / 10) for i in range(5)]
        result = getattr(db, call)("s", (row for row in rows))
        accepted = result if call == "insert_stream" else result["accepted"]
        assert accepted == 5
        assert db.get_stream("s").tuples_in == 5
        db.flush_streams()
        assert [w.rows for w in sub.poll()] == [[(5,)]]
