"""Soak/invariant tests: runtime state must stay bounded under load.

A continuous system that leaks window-buffer or slice state dies in
production; these tests drive moderate volumes and assert the in-memory
structures stay at their theoretical bounds.
"""

from repro import Database


class TestWindowBufferBounds:
    def test_sliding_window_buffer_bounded(self):
        db = Database()
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        sub = db.subscribe(
            "SELECT count(*) FROM s <VISIBLE '5 minutes' ADVANCE '1 minute'>")
        op = sub.cq._window_op
        rate = 20  # per minute
        for minute in range(60):
            db.insert_stream("s", [
                (i, minute * 60.0 + i * (60.0 / rate)) for i in range(rate)])
            # buffer may never exceed one VISIBLE of rows plus in-flight
            assert op.buffered <= 5 * rate + rate
        assert sub.stats.windows_evaluated >= 59

    def test_event_time_buffer_bounded_by_window_not_arrival_order(self):
        """Eviction is by slice, so a fresh row that arrived first does
        not pin the stale rows that arrived behind it."""
        db = Database()
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER) "
                   "WATERMARK '50 seconds'")
        sub = db.subscribe(
            "SELECT count(*) FROM s <VISIBLE '10 seconds' ADVANCE '5 seconds'>")
        op = sub.cq._window_op
        db.insert_stream("s", [(50, 50.0)])
        db.insert_stream("s", [(i, float(i)) for i in range(50)])
        assert op.buffered == 51 and op.late_rows == 0
        db.inject_watermark("s", 45.0)
        assert [w.close_time for w in sub.poll()][-1] == 45.0
        # what a future window can still see: [40, 50) and the head row
        assert op.buffered == 11

    def test_slack_buffer_drains(self):
        db = Database(stream_slack=30.0)
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        stream = db.get_stream("s")
        for i in range(5000):
            stream.insert((i, float(i)))
            assert len(stream._pending) <= 32  # ~slack x 1 event/second
        assert stream.watermark >= 4969.0

    def test_retention_tail_bounded(self):
        db = Database(stream_retention=60.0)
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        stream = db.get_stream("s")
        for i in range(5000):
            stream.insert((i, float(i)))
        assert len(stream._tail) <= 62


class TestSharedSliceBounds:
    CQ = ("SELECT k, count(*) FROM s <VISIBLE '{} minutes' "
          "ADVANCE '1 minute'> GROUP BY k")

    def drive(self, db, minute):
        db.insert_stream("s", [("a", minute * 60.0 + i) for i in range(10)])
        db.advance_streams((minute + 1) * 60.0)

    def test_slice_store_bounded_by_max_window(self):
        """16 readers on one store: it keeps what the widest window can
        still see, however many readers there are."""
        db = Database()
        db.execute("CREATE STREAM s (k varchar(5), ts timestamp CQTIME USER)")
        subs = [db.subscribe(self.CQ.format(minutes))
                for minutes in range(1, 17)]
        (store,) = db.get_stream("s").slice_stores
        assert len(store.readers) == 16
        for minute in range(120):
            self.drive(db, minute)
            # at most max-visible-slices slices retained
            assert len(store) <= 16
            assert all(len(sub.cq._window_op._slices) <= 16 for sub in subs)
        assert store.rows_reduced == 1200

    def test_consumer_detach_shrinks_retention(self):
        db = Database()
        db.execute("CREATE STREAM s (k varchar(5), ts timestamp CQTIME USER)")
        wide = db.subscribe(self.CQ.format(30))
        db.subscribe(self.CQ.format(2))
        (store,) = db.get_stream("s").slice_stores
        for minute in range(40):
            self.drive(db, minute)
        assert len(store) == 29     # slices 11..39: the wide horizon
        wide.close()
        self.drive(db, 40)
        assert len(store) <= 2


class TestTwoStreamPendingBounds:
    def test_pending_pairs_drained(self):
        db = Database()
        db.execute("CREATE STREAM a (v integer, ts timestamp CQTIME USER)")
        db.execute("CREATE STREAM b (v integer, ts timestamp CQTIME USER)")
        sub = db.subscribe(
            "SELECT count(*) FROM a <VISIBLE '1 minute'> x, "
            "b <VISIBLE '1 minute'> y WHERE x.v = y.v")
        cq = sub.cq
        for minute in range(100):
            t = minute * 60.0 + 1.0
            db.insert_stream("a", [(minute, t)])
            db.insert_stream("b", [(minute, t + 0.5)])
            db.advance_streams((minute + 1) * 60.0)
            assert len(cq._pending[0]) <= 1
            assert len(cq._pending[1]) <= 1
        assert cq.stats.windows_evaluated == 100


class TestVersionChurnBounded:
    def test_vacuumed_replace_table_stays_small(self):
        db = Database()
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        db.execute_script("""
            CREATE STREAM latest AS SELECT count(*) c, cq_close(*)
                FROM s <VISIBLE '1 minute'>;
            CREATE TABLE board (c bigint, ts timestamp);
            CREATE CHANNEL ch FROM latest INTO board REPLACE;
        """)
        table = db.get_table("board")
        for minute in range(200):
            db.insert_stream("s", [(1, minute * 60.0 + 1)])
            db.advance_streams((minute + 1) * 60.0)
            if minute % 10 == 9:
                db.vacuum("board")
                assert table.heap.row_count <= 11
        assert len(db.table_rows("board")) == 1
