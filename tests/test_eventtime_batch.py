"""An in-order frame on a ``WATERMARK`` stream takes the batch path.

A frame whose rows are in event-time order from at or after the
stream's watermark holds no late row.  ``BaseStream._insert_fast_batch``
coerces it once, logs it once, hands it to every consumer's
``on_tuples`` and then advances the watermark once, with one heartbeat.
What is pinned here:

* **parity** — the frame gives the records, the replay tail's
  ``(time, row, watermark)``, the late-row count and the watermark that
  row-at-a-time delivery gives (``_insert_fast_batch`` switched off), in
  both gears, for tumbling, sliding and gapped windows under ``DROP``
  and ``RETRACT`` with a straggler frame after the ordered ones; a
  reopened data dir and sampled traces agree too;
* **the path taken** — an in-order frame makes no ``BaseStream.insert``
  call and one heartbeat, a gapped window's too; a disordered frame, a
  frame starting behind the watermark, an ``EMIT ON CHANGE`` reader and
  a supervised stream keep one ``insert`` per row;
* **the gap** — a row in no window (``ADVANCE`` wider than ``VISIBLE``)
  is dropped when it is filed, so a flush closes no extra empty window,
  in arrival and event time;
* **the partition router** — in-order frames at two workers, then a
  straggler under ``RETRACT``, answer what one ``Database`` answers.
"""

import math
from collections import Counter

import pytest

from repro import Database, rowblock
from repro.partition import PartitionedEngine, coordinator
from repro.replication import open_database
from repro.streaming.streams import BaseStream

DDL = ("CREATE STREAM s (k varchar(10), v integer, ts timestamp CQTIME USER) "
       "WATERMARK '5 seconds'")
SELECT = "SELECT k, count(*) c, sum(v) total, min(v) lo, max(v) hi FROM s "
WINDOWS = {"tumbling": "<VISIBLE '10 seconds' ADVANCE '10 seconds'>",
           "sliding": "<VISIBLE '10 seconds' ADVANCE '2 seconds'>",
           "gapped": "<VISIBLE '4 seconds' ADVANCE '10 seconds'>"}
POLICIES = {policy: f"EMIT ON WATERMARK ALLOW LATENESS '30 seconds' {policy}"
            for policy in ("DROP", "RETRACT")}

#: a row every 0.75 s over five keys (ties every fourth row), 7 a frame
ORDERED = [("abcde"[i % 5], i % 9 - 4, float(i * 3 // 4)) for i in range(84)]
FRAMES = [ORDERED[i:i + 7] for i in range(0, len(ORDERED), 7)]
#: a row 13 s behind the last frame's newest, then the frontier moves on
STRAGGLER = [[("z", 5, ORDERED[-1][2] - 13.0)],
             [("a", 1, ORDERED[-1][2] + 1.0), ("b", 2, ORDERED[-1][2] + 30.0)]]
#: its first row's watermark (90) closes 90; the second lands in no window
#: (the gapped one's [96, 100) opens after it), filed after that close
GAP_END = [[("c", 3, 95.0), ("d", 4, 95.5)]]


def sql(window, policy):
    return f"{SELECT}{WINDOWS[window]} GROUP BY k {POLICIES[policy]}"


def per_row(stream):
    """Deliver ``stream``'s frames a row at a time: the reference."""
    stream._insert_fast_batch = lambda rows, at: None


def records(sub):
    return [(w.kind, w.open_time, w.close_time, tuple(w.rows))
            for w in sub.poll()]


def feed(query, frames, row_at_a_time=False, **options):
    """Records, replay tail, late rows, watermark and held rows of one
    engine fed ``frames``."""
    db = Database(stream_retention=600.0, **options)
    db.execute(DDL)
    sub = db.subscribe(query)
    stream = db.runtime.get_stream("s")
    if row_at_a_time:
        per_row(stream)
    for frame in frames:
        db.insert_stream("s", frame)
    tail = list(stream.replay_entries(-math.inf))
    held = sub.cq._window_op.buffered
    db.flush_streams()
    late = db.query("SELECT late_rows FROM repro_watermarks "
                    "WHERE stream = 's'").scalar()
    out = records(sub), tail, late, stream.watermark, held
    db.close()
    return out


@pytest.fixture
def calls(monkeypatch):
    """``BaseStream.insert`` (the per-row path) and heartbeat calls."""
    seen = Counter()
    for name in ("insert", "_broadcast_heartbeat"):
        def counted(self, *args, _fn=getattr(BaseStream, name), _name=name,
                    **kwargs):
            seen[_name] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(BaseStream, name, counted)
    return seen


# -- parity ---------------------------------------------------------------------


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_a_frame_answers_what_its_rows_one_at_a_time_answer(window, policy):
    query = sql(window, policy)
    frames = FRAMES + STRAGGLER + GAP_END
    want = feed(query, frames, row_at_a_time=True)
    assert feed(query, frames) == want
    assert feed(query, frames, vectorize=False) == want
    kinds = Counter(kind for kind, *_rest in want[0])
    assert kinds["window"] > 3 and want[2] == 1
    if policy == "RETRACT" and window != "gapped":
        assert kinds["retract"] == kinds["correct"] > 0


def test_the_replay_tail_keeps_each_rows_own_watermark():
    """PR 32's rule: a row is judged by the watermark it was logged
    under — its predecessor's time less the bound, never below the
    watermark before the frame."""
    _records, tail, *_ = feed(sql("sliding", "RETRACT"), FRAMES[:2])
    times = [when for _k, _v, when in ORDERED[:14]]
    assert [when for when, _row, _wm in tail] == times
    assert [wm for _when, _row, wm in tail] == [-math.inf] + [
        max(-math.inf, when - 5.0) for when in times[:-1]]


def test_sampled_traces_are_the_row_at_a_time_ones():
    def traced(row_at_a_time):
        db = Database(trace_sample_rate=0.25)
        db.execute(DDL)
        sub = db.subscribe(sql("sliding", "RETRACT"))
        if row_at_a_time:
            per_row(db.runtime.get_stream("s"))
        for frame in FRAMES:
            db.insert_stream("s", frame)
        db.flush_streams()
        spans = db.query("SELECT trace_id, span_id, parent_id, name "
                         "FROM repro_traces").rows
        out = records(sub), sorted(map(tuple, spans))
        db.close()
        return out

    want = traced(row_at_a_time=True)
    assert want[1] and traced(row_at_a_time=False) == want


class TestReopenedDataDir:
    ARCHIVED = (SELECT.replace(" FROM", ", cq_close(*) AS stime FROM")
                + WINDOWS["sliding"] + " GROUP BY k " + POLICIES["RETRACT"])

    def run(self, data_dir, row_at_a_time):
        db = open_database(data_dir=str(data_dir), stream_retention=3600.0)
        db.execute(DDL)
        db.execute(f"CREATE STREAM r AS {self.ARCHIVED}")
        db.execute("CREATE TABLE active (k varchar(10), c bigint, "
                   "total bigint, lo integer, hi integer, stime timestamp)")
        db.execute("CREATE CHANNEL ch FROM r INTO active APPEND")
        if row_at_a_time:
            per_row(db.runtime.get_stream("s"))
        for frame in FRAMES:
            db.insert_stream("s", frame)
        before = self.state(db)
        db.close()
        db = open_database(data_dir=str(data_dir), stream_retention=3600.0)
        after = self.state(db)
        db.close()
        return before, after

    @staticmethod
    def state(db):
        stream = db.runtime.get_stream("s")
        return (list(stream.replay_entries(-math.inf)), stream.watermark,
                sorted(map(tuple, db.query("SELECT * FROM active").rows)))

    def test_same_tail_and_active_table_after_a_reopen(self, tmp_path):
        want_before, want_after = self.run(tmp_path / "rows", True)
        before, after = self.run(tmp_path / "frames", False)
        assert before == want_before and after == want_after
        assert after == before and after[2]


# -- the path taken -------------------------------------------------------------


def ingest(frames, query=sql("sliding", "RETRACT"), **options):
    db = Database(**options)
    db.execute(DDL)
    db.subscribe(query)
    for frame in frames:
        db.insert_stream("s", frame)
    return db


@pytest.mark.parametrize("form", ["rows", "row block",
                                  "a gapped DROP window"])
def test_an_in_order_frame_makes_no_insert_call_and_one_heartbeat(calls,
                                                                  form):
    gapped = form == "a gapped DROP window"
    db = ingest(FRAMES[:1], sql("gapped", "DROP")) if gapped \
        else ingest(FRAMES[:1])
    frame = rowblock.decode(rowblock.encode(FRAMES[1]))[0] \
        if form == "row block" else FRAMES[1]
    calls.clear()
    db.insert_stream("s", frame)
    assert calls == {"_broadcast_heartbeat": 1}


@pytest.mark.parametrize("case", [
    "a row behind its predecessor", "a row behind the watermark",
    "an EMIT ON CHANGE reader", "a supervised stream"])
def test_every_other_frame_goes_a_row_at_a_time(calls, case):
    frame = list(FRAMES[1])
    query, options = sql("sliding", "RETRACT"), {}
    if case == "a row behind its predecessor":
        frame[3], frame[4] = frame[4], frame[3]
        assert frame[3][2] > frame[4][2]
    elif case == "a row behind the watermark":
        frame[0] = (frame[0][0], frame[0][1], -3.0)   # the watermark is -1
    elif case == "an EMIT ON CHANGE reader":
        query = query.replace("ON WATERMARK", "ON CHANGE")
    else:
        options["supervised"] = True
    db = ingest(FRAMES[:1], query, **options)
    calls.clear()
    db.insert_stream("s", frame)
    assert calls["insert"] == len(frame)


# -- the gap -------------------------------------------------------------------


@pytest.mark.parametrize("event_time", [False, True],
                         ids=["arrival time", "event time"])
@pytest.mark.parametrize("row_at_a_time", [False, True],
                         ids=["frame", "row at a time"])
def test_a_row_in_the_gap_is_in_no_window_and_flush_adds_none(
        event_time, row_at_a_time):
    """Windows [6, 10), [16, 20), [26, 30): 12 and 21 lie in a gap.  The
    window over 17 closes at 20 with a row; nothing is held after it,
    so the flush closes no empty window at 30."""
    ddl = DDL if event_time else DDL.replace(" WATERMARK '5 seconds'", "")
    db = Database()
    db.execute(ddl)
    sub = db.subscribe(f"SELECT count(*) c FROM s {WINDOWS['gapped']}")
    if row_at_a_time:
        per_row(db.runtime.get_stream("s"))
    db.insert_stream("s", [("a", 1, 7.0), ("b", 1, 12.0), ("c", 1, 17.0),
                           ("d", 1, 21.0)])
    assert sub.cq._window_op.buffered == (1 if event_time else 0)
    db.flush_streams()
    assert [(w.close_time, w.rows) for w in sub.poll()] == [
        (10.0, [(1,)]), (20.0, [(1,)])]
    db.close()


def test_the_router_flushes_the_window_between_two_gap_rows():
    """A frame whose first and last rows lie in gaps: the router hands
    its boundary operator the newest row a window shows (17), so the
    flush closes 20 as the single engine does."""
    ddl = DDL + " PARTITION BY k"
    query = f"SELECT k, count(*) c FROM s {WINDOWS['gapped']} GROUP BY k"

    def answers(ingest, flush, sub):
        ingest("s", [("a", 1, 7.0)])
        ingest("s", [("b", 1, 12.0), ("c", 1, 17.0), ("d", 1, 21.0)])
        flush()
        return [(w.close_time, sorted(w.rows)) for w in sub.poll()]

    db = Database()
    db.execute(ddl)
    want = answers(db.insert_stream, db.flush_streams, db.subscribe(query))
    db.close()
    assert want == [(10.0, [("a", 1)]), (20.0, [("c", 1)])]
    with PartitionedEngine(partitions=2) as eng:
        eng.execute(ddl)
        assert answers(eng.ingest, eng.flush, eng.execute(query)) == want


# -- the partition router -------------------------------------------------------


def test_partition_router_under_event_time_frames(monkeypatch):
    """In-order frames reach the router whole, and no ``("wm", t)``
    segment rides in front of a worker's run: no row is late at its
    worker, and the sync after the frame tops every worker up."""
    batches = []
    on_tuples = coordinator._StreamRoute.on_tuples

    def counted(self, rows, times):
        batches.append(len(rows))
        return on_tuples(self, rows, times)

    monkeypatch.setattr(coordinator._StreamRoute, "on_tuples", counted)
    ddl = DDL + " PARTITION BY k"
    cq = sql("sliding", "RETRACT")

    def answers(ingest, flush, query, sub):
        for frame in FRAMES + STRAGGLER:
            ingest("s", frame)
        flush()
        late = query("SELECT late_rows FROM repro_watermarks "
                     "WHERE stream = 's'").scalar()
        return [(kind, o, c, sorted(rows)) for kind, o, c, rows
                in records(sub)], late

    db = Database()
    db.execute(ddl)
    want = answers(db.insert_stream, db.flush_streams, db.query,
                   db.subscribe(cq))
    db.close()
    with PartitionedEngine(partitions=2) as eng:
        eng.execute(ddl)
        got = answers(eng.ingest, eng.flush, eng.query, eng.execute(cq))
    assert got == want
    kinds = Counter(kind for kind, *_rest in want[0])
    assert kinds["retract"] == kinds["correct"] > 0 and want[1] == 1
    # every ordered frame and the straggler's successor went whole
    assert batches == [len(frame) for frame in FRAMES + STRAGGLER[1:]]
