"""A window reaches its CQ through one entry.

Every callback of a CQ's window operator — a close (``sink``), an
event-time re-open (``on_correction``), an early emit (``on_early``) —
is ``ContinuousQuery.window_entry`` bound to its kind when the operator
is built.  Supervision, a replay, a stop and a partition worker's split
change what the entry does, never the callbacks.  Pinned here:

* **the callbacks stay as built** — after ``enable_supervision()``, a
  ``replay_tail`` and ``stop()``, in the iterator, sliced and
  event-time gears and on a partition worker;
* **a stop** — a close already under way when its CQ stops emits
  nothing more;
* **a replay** — a window at or before the archive's close is not
  emitted again, a late row's correction of it included.
"""

import math

import pytest

from repro import Database
from repro.partition.worker import WorkerEngine
from repro.sql import parse_statement
from repro.streaming.cq import ContinuousQuery
from repro.streaming.recovery import recover_from_active_table, replay_tail

DDL = "CREATE STREAM s (k varchar(10), v integer, ts timestamp CQTIME USER)"
EVENT_DDL = DDL + " WATERMARK '2 seconds'"
QUERY = ("SELECT k, sum(v) total FROM s "
         "<VISIBLE '10 seconds' ADVANCE '5 seconds'> GROUP BY k")
RETRACT = " EMIT ON WATERMARK ALLOW LATENESS '10 seconds' RETRACT"
#: gear -> (stream DDL, Database options, CQ)
GEARS = {"iterator": (DDL, {"vectorize": False}, QUERY),
         "sliced": (DDL, {}, QUERY),
         "event time": (EVENT_DDL, {}, QUERY + RETRACT)}
ROWS = [("a", 1, 1.0), ("b", 2, 4.0), ("a", 3, 7.0), ("b", 4, 12.0),
        ("a", 5, 16.0), ("a", 7, 23.0)]
#: late at an event-time stream whose watermark has passed 10
LATE = ("b", 6, 9.0)
CALLBACKS = {"sink": "final", "on_correction": "correct",
             "on_early": "early"}


def callbacks(op) -> dict:
    return {name: getattr(op, name) for name in CALLBACKS
            if getattr(op, name, None) is not None}


def assert_built_by(cq, op, built: dict) -> None:
    """Every callback is the CQ's entry bound to its kind, and is the
    very object the operator was built with."""
    assert cq._window_op is op
    assert {name: (cb.func, cb.args) for name, cb in callbacks(op).items()} \
        == {name: (cq.window_entry, (CALLBACKS[name],)) for name in built}
    assert all(getattr(op, name) is cb for name, cb in built.items())


@pytest.mark.parametrize("gear", sorted(GEARS))
def test_supervision_replay_and_stop_leave_the_callbacks_as_built(gear):
    ddl, options, query = GEARS[gear]
    db = Database(stream_retention=600.0, **options)
    db.execute(ddl)
    sub = db.subscribe(query)
    cq = sub.cq
    op = cq._window_op
    built = callbacks(op)
    assert set(built) == ({"sink", "on_correction", "on_early"}
                          if gear == "event time" else {"sink"})
    assert cq.is_sliced() == (gear != "iterator")
    db.insert_stream("s", ROWS)
    if gear == "event time":
        db.insert_stream("s", [LATE])
    db.enable_supervision()
    assert cq.failure_handler is not None
    assert_built_by(cq, op, built)
    replay_tail(cq, -math.inf, through=math.inf)
    assert cq.replay_through is None
    assert_built_by(cq, op, built)
    sub.close()
    assert not cq._running
    assert_built_by(cq, op, built)
    db.close()


def test_a_partition_worker_ships_through_the_entry():
    engine = WorkerEngine(0)
    ack = engine.handle({"op": "ddl", "sql": EVENT_DDL})
    assert ack[-1]["type"] == "ack"
    engine.handle({"op": "cq", "name": "q", "sql": QUERY + RETRACT})
    cq = engine._cqs["q"]
    op = cq._window_op
    built = callbacks(op)
    assert set(built) == {"sink", "on_correction", "on_early"}

    def ingest(rows):
        frames = engine.handle({"op": "ingest", "stream": "s",
                                "segments": [("rows", rows, None)]})
        assert frames[-1]["type"] == "ack"
        return [(f["kind"], f["close"]) for f in frames[:-1]]

    # 12 moves the watermark to 10: closes 5 and 10 ship as partials,
    # and the late 9 ships the recomputed partial of 10
    assert ingest(ROWS[:4]) == [("final", 5.0), ("final", 10.0)]
    assert ingest([LATE]) == [("correct", 10.0)]
    assert_built_by(cq, op, built)
    engine.handle({"op": "stopcq", "name": "q"})
    assert ingest([("a", 1, 40.0)]) == []
    assert_built_by(cq, op, built)
    engine.db.close()


def test_a_close_under_way_when_its_cq_stops_emits_nothing_more():
    """One advance closes 30, 40, 50 and 60; a sink stops the CQ at 30,
    and the operator's loop goes on closing into a stopped entry."""
    db = Database()
    db.execute(DDL)
    sub = db.subscribe("SELECT count(*) c FROM s <VISIBLE '10 seconds'>")
    seen = []

    def stopper(_kind, _rows, _open, close_time):
        seen.append(close_time)
        if close_time == 30.0:
            db.runtime.stop_cq(sub.cq)

    sub.cq.add_sink(stopper)
    db.insert_stream("s", [("a", 1, 1.0), ("a", 1, 12.0), ("a", 1, 25.0)])
    db.advance_streams(60.0)
    assert seen == [10.0, 20.0, 30.0]
    assert [w.close_time for w in sub.poll()] == [10.0, 20.0, 30.0]
    assert sub.cq._window_op.windows_closed == 6
    db.close()


class TestReplayThroughTheArchive:
    """An event-time RETRACT CQ archives window 10, then a late row
    corrects it.  A CQ recovered from that archive replays the tail
    through its window entry and emits neither window 10 nor its
    correction again."""

    SELECT = ("SELECT k, count(*) n, cq_close(*) AS stime FROM s "
              "<VISIBLE '10 seconds'> GROUP BY k "
              "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")

    def archived(self):
        db = Database(stream_retention=600.0)
        db.execute(DDL + " WATERMARK '5 seconds'")
        db.execute(f"CREATE STREAM r AS {self.SELECT}")
        db.execute("CREATE TABLE arch (k varchar(10), n bigint, "
                   "stime timestamp)")
        db.execute("CREATE CHANNEL ch FROM r INTO arch REPLACE")
        for row in [("a", 1, 1.0), ("b", 1, 2.0), ("a", 1, 12.0),
                    ("a", 1, 16.0), ("b", 1, 3.0)]:
            db.insert_stream("s", [row])        # 16 closes 10; 3 is late
        assert sorted(db.table_rows("arch")) == [("a", 1, 10.0),
                                                 ("b", 2, 10.0)]
        return db

    def fresh(self, db):
        cq = ContinuousQuery("fresh", parse_statement(self.SELECT),
                             db.catalog, db.txn_manager)
        records = []
        cq.add_sink(lambda kind, rows, _open, close:
                    records.append((kind, close, sorted(rows))))
        return cq, records

    def test_a_window_at_or_before_the_close_is_not_emitted_again(self):
        db = self.archived()
        cq, records = self.fresh(db)
        start = recover_from_active_table(cq, db.get_table("arch"),
                                          db.txn_manager, "stime")
        assert start is not None and records == []
        assert cq.replay_through is None
        db.get_stream("s").advance_to(40.0)
        cq._window_op.on_heartbeat(40.0)
        assert records == [("window", 20.0, [("a", 2, 20.0)]),
                           ("window", 30.0, []), ("window", 40.0, [])]
        db.close()

    def test_without_the_close_the_replay_emits_them(self):
        db = self.archived()
        cq, records = self.fresh(db)
        replay_tail(cq, -math.inf)
        assert [(kind, close) for kind, close, _rows in records] == [
            ("window", 10.0), ("retract", 10.0), ("correct", 10.0)]
        db.close()
