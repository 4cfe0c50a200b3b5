"""Event-time windows over slice partials.

An event-time CQ whose plan vectorizes reads its windows as per-slice
aggregate partials, exactly as an arrival-time one does: the final
close, a late row's re-open and an early emit all gather through the
one ``TimeWindowOperator._window``.  What is pinned here:

* **gear parity** — the sliced gear and the iterator gear
  (``Database(vectorize=False)``, windows as rows) emit the identical
  typed record sequence under every lateness policy, emit mode and
  window shape.  Aggregate values stay integral so float addition order
  cannot manufacture spurious diffs; every comparison is exact equality;
* **work** — each accepted row is converted once, and a late row costs
  one more conversion of the one slice it was filed into (counts, not
  wall time);
* the store stays **private** to an event-time reader and holds one
  partial per held slice however often a slice is sealed again;
* a retraction finds its rows from the newest end of the active table;
* a checkpoint carries no partials: a rebuilt CQ seals its slices again.
"""

from hypothesis import given, settings, strategies as st

from repro import Database
from repro.sql import parse_statement
from repro.streaming.cq import ContinuousQuery
from repro.streaming.recovery import (
    capture_window_state,
    recover_cq,
    restore_window_state,
)

DDL = ("CREATE STREAM s (k varchar(10), v integer, ts timestamp CQTIME USER) "
       "WATERMARK '5 seconds'")
SELECT = "SELECT k, count(*) c, sum(v) total, min(v) lo, max(v) hi FROM s "


def make_db(**kwargs):
    db = Database(**kwargs)
    db.execute(DDL)
    return db


def records(sub):
    """The typed record sequence: finals, retract/correct pairs, earlies."""
    return [(w.kind, w.open_time, w.close_time, tuple(w.rows))
            for w in sub.poll()]


def run(sql, batches, **kwargs):
    db = make_db(supervised=True, **kwargs)
    sub = db.subscribe(sql)
    for rows in batches:
        db.insert_stream("s", rows)
    db.flush_streams()
    late = [(letter.kind, letter.reason)
            for letter in db.supervisor.dead_letter_log]
    return sub.cq, records(sub), late


# -- gear parity ----------------------------------------------------------------

#: arrival delay past the event time: under the 5 s watermark bound a
#: row is on time, up to the 20 s lateness allowance it is an in-bound
#: straggler, beyond it an expired one
DELAYS = st.sampled_from([0, 0, 0, 1, 4, 9, 17, 60])
#: (seconds since the previous event, key, value, delay): a dense feed,
#: so a straggler finds closed windows to re-open
EVENTS = st.lists(
    st.tuples(st.integers(0, 4), st.sampled_from("abc"),
              st.integers(-3, 9), DELAYS),
    min_size=8, max_size=40)
WINDOWS = st.sampled_from([
    "<VISIBLE '10 seconds' ADVANCE '2 seconds'>",     # hopping
    "<VISIBLE '6 seconds'>",                          # tumbling
    "<VISIBLE '4 seconds' ADVANCE '10 seconds'>",     # gap
])
EMITS = st.sampled_from(["ON WATERMARK", "ON CHANGE", "EVERY '3 seconds'"])
POLICIES = st.sampled_from(["DROP", "DEAD LETTER", "RETRACT"])


@given(events=EVENTS, window=WINDOWS, emit=EMITS, policy=POLICIES,
       chunk=st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_sliced_gear_matches_iterator_gear(events, window, emit, policy,
                                           chunk):
    timed = [(sum(e[0] for e in events[:i + 1]), k, v, delay)
             for i, (_gap, k, v, delay) in enumerate(events)]
    arrivals = [(k, v, float(t)) for t, k, v, delay in
                sorted(timed, key=lambda e: e[0] + e[3])]
    batches = [arrivals[i:i + chunk] for i in range(0, len(arrivals), chunk)]
    sql = (f"{SELECT}{window} GROUP BY k "
           f"EMIT {emit} ALLOW LATENESS '20 seconds' {policy}")
    sliced, got, got_late = run(sql, batches)
    rows, want, want_late = run(sql, batches, vectorize=False)
    assert sliced.is_sliced() and not rows.is_sliced()
    assert got == want
    assert got_late == want_late


# -- work -----------------------------------------------------------------------

SLIDE = (f"{SELECT}<VISIBLE '10 seconds' ADVANCE '2 seconds'> GROUP BY k "
         "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")


class TestRowsReduced:
    def feed(self, late=()):
        """Ten rows per second for a minute, then ``late`` event times
        arriving behind the watermark."""
        db = make_db()
        sub = db.subscribe(SLIDE)
        ordered = [("abc"[i % 3], i % 7, i / 10.0) for i in range(600)]
        db.insert_stream("s", ordered)
        op = sub.cq._window_op
        # what each straggler's slice held when it was first sealed
        resealed = sum(len(op._slices[op._slice_index(when)][1])
                       for when in late)
        db.insert_stream("s", [("z", 1, when) for when in late])
        db.flush_streams()
        return sub, len(ordered) + len(late), resealed

    def test_ordered_feed_converts_each_row_once(self):
        sub, accepted, _ = self.feed()
        op = sub.cq._window_op
        assert op.tuples_in == accepted
        # VISIBLE/ADVANCE = 5 windows see each row; one conversion
        assert op.store.rows_reduced == accepted
        assert sub.cq.stats.rows_scanned > 4 * accepted

    def test_a_late_row_converts_its_own_slice_again_and_nothing_else(self):
        # three stragglers into three distinct, already sealed slices
        late = [31.0, 37.0, 43.0]
        sub, accepted, resealed = self.feed(late)
        op = sub.cq._window_op
        assert op.late_rows == 3 and op.tuples_in == accepted
        assert resealed == 3 * 20           # a 2 s slice holds 20 rows
        assert op.store.rows_reduced == accepted + resealed
        # each straggler re-opened every closed window over its slice
        pairs = [r for r in records(sub) if r[0] == "correct"]
        assert len(pairs) == op.corrections == 3 * 5


# -- the store ------------------------------------------------------------------

class TestPrivateStore:
    def test_same_key_event_time_readers_do_not_share(self):
        """Two CQs with one store key, the second attached mid-slice:
        each emits what it emits run alone.  On a shared store the
        second would be served the first one's partial: both reach two
        rows in slice [0, 2), over different rows."""
        dropping = SLIDE.replace(" RETRACT", " DROP")
        first = [("a", 1, 0.5)]
        rest = [("b", 2, 1.0), ("a", 5, 12.0),      # seals 2 rows / 1 row
                ("a", 7, 1.2),                      # straggler: 2 / 2 rows
                ("b", 8, 25.0)]
        db = make_db(supervised=True)
        early = db.subscribe(dropping)
        db.insert_stream("s", first)
        late = db.subscribe(SLIDE)
        db.insert_stream("s", rest)
        db.flush_streams()
        assert early.cq.store_key == late.cq.store_key
        assert records(early) == run(dropping, [first, rest])[1]
        assert records(late) == run(SLIDE, [rest])[1]
        assert early.cq.is_sliced() and late.cq.is_sliced()
        assert not early.cq.shared and not late.cq.shared
        assert db.runtime.get_stream("s").slice_stores == []

    def test_explain_leads_with_emit_then_slices(self):
        db = make_db()
        sub = db.subscribe(SLIDE)
        lines = sub.cq.explain().splitlines()
        assert lines[0].startswith("Emit: ON WATERMARK")
        assert lines[1] == "Slices: width 2.0s, store readers 1"
        assert db.query("SELECT shared FROM repro_cqs").scalar() is False

    def test_a_reseal_replaces_the_previous_partial(self):
        """EMIT ON CHANGE seals the open slice on every row, a late row
        seals a closed one again: the store never holds more partials
        than the operator holds slices."""
        db = make_db()
        sub = db.subscribe(
            f"{SELECT}<VISIBLE '1 minute' ADVANCE '20 seconds'> GROUP BY k "
            "EMIT ON CHANGE ALLOW LATENESS '2 minutes' RETRACT")
        op = sub.cq._window_op
        db.insert_stream("s", [("a", 1, i / 100.0) for i in range(1000)])
        assert len(op._slices) == 1 and len(op.store) == 1
        db.insert_stream("s", [("a", 1, 70.0 + i) for i in range(30)])
        db.insert_stream("s", [("z", 1, i / 2.0) for i in range(20)])
        assert op.late_rows == 20
        assert len(op.store) == len(op._slices)
        assert op.store.rows_reduced > 1000 * 1000 / 2


# -- channel retraction -----------------------------------------------------------

class TestRetractionWalk:
    WINDOWS, ROWS = 500, 10

    def archive(self):
        db = Database()
        db.execute("CREATE STREAM s (k varchar(10), v integer, "
                   "ts timestamp CQTIME USER) WATERMARK '5 seconds'")
        db.execute("CREATE STREAM rollup AS SELECT k, count(*) c, cq_close(*) "
                   "FROM s <VISIBLE '10 seconds'> GROUP BY k "
                   "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")
        db.execute("CREATE TABLE active (k varchar(10), c bigint, "
                   "stime timestamp)")
        db.execute("CREATE CHANNEL ch FROM rollup INTO active APPEND")
        channel = db.catalog.get_channel("ch")
        for w in range(self.WINDOWS):
            close = (w + 1) * 10.0
            channel.on_batch(self.window(w), close - 10.0, close)
        visited = []
        heap = channel.table.heap
        walk = heap.scan_newest_first

        def counted(pool):
            for item in walk(pool):
                visited.append(item)
                yield item
        heap.scan_newest_first = counted
        return db, channel, visited

    def window(self, w):
        return [(f"k{i}", w + i, (w + 1) * 10.0) for i in range(self.ROWS)]

    def stored(self, db):
        return sorted(db.query("SELECT k, c, stime FROM active").rows)

    def everything_but(self, w):
        return sorted(row for other in range(self.WINDOWS)
                      if other != w for row in self.window(other))

    def test_retracting_the_newest_window_does_not_scan_the_table(self):
        db, channel, visited = self.archive()
        newest = self.WINDOWS - 1
        assert len(self.stored(db)) == 5000
        channel.on_correction("retract", self.window(newest), 0.0, 0.0)
        assert len(visited) < 100
        assert [tuple(r) for r in self.stored(db)] \
            == self.everything_but(newest)
        # dead versions at the newest end are walked past, not matched
        del visited[:]
        channel.on_correction("correct", self.window(newest), 0.0, 0.0)
        channel.on_correction("retract", self.window(newest), 0.0, 0.0)
        assert len(visited) < 100
        assert [tuple(r) for r in self.stored(db)] \
            == self.everything_but(newest)

    def test_retracting_the_oldest_window_is_still_exact(self):
        db, channel, visited = self.archive()
        channel.on_correction("retract", self.window(0), 0.0, 0.0)
        assert len(visited) > 4900
        assert [tuple(r) for r in self.stored(db)] == self.everything_but(0)
        # a row that was never stored ends the walk at the oldest page
        channel.on_correction("retract", [("nobody", 1, 10.0)], 0.0, 0.0)
        assert len(self.stored(db)) == 5000 - self.ROWS


# -- checkpoint / restart ---------------------------------------------------------

class TestCheckpointRestart:
    SQL = (f"{SELECT}<VISIBLE '10 seconds' ADVANCE '5 seconds'> GROUP BY k "
           "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")
    BEFORE = [("a", 1, 1.0), ("b", 2, 3.0), ("a", 3, 6.0), ("b", 4, 8.0),
              ("a", 5, 12.0)]                   # watermark 7: [-5, 5) closed
    AFTER = [("b", 6, 14.0), ("a", 7, 27.0)]    # closes 10, 15, 20
    LATE = [("z", 8, 7.0)]                      # re-opens 10 and 15

    def run(self, restart, late=LATE):
        db = Database(stream_retention=3600.0)
        db.execute(DDL)
        cq = db.runtime.create_cq(parse_statement(self.SQL), name="r")
        out = []

        def wire(cq):
            cq.add_sink(lambda kind, rows, o, c: out.append((kind, c, rows)))
        wire(cq)
        db.insert_stream("s", self.BEFORE)
        assert [c for _kind, c, _rows in out] == [5.0]
        if restart:
            # mid-retention: the closed window's slices are still held
            assert len(cq._window_op.store) == 1
            payload = capture_window_state(cq)
            payload["close_time"] = cq.stats.last_close
            wal = db.storage.wal
            wal.append(0, "cq_checkpoint", "r", payload=payload, flush=True)
            db.runtime.stop_cq(cq)
            cq = ContinuousQuery("r", parse_statement(self.SQL),
                                 db.catalog, db.txn_manager)
            wire(cq)
            assert recover_cq(cq, db.runtime) == "checkpoint"
            # the surface is points()/load(): rows, never partials
            assert cq.is_sliced() and len(cq._window_op.store) == 0
            assert cq._window_op.buffered == len(self.BEFORE)
            cq.attach()
        db.insert_stream("s", self.AFTER)
        db.insert_stream("s", late)
        return cq, out

    def test_a_rebuilt_cq_seals_again_and_corrects_identically(self):
        _, want = self.run(restart=False)
        cq, got = self.run(restart=True)
        assert got == want
        assert [(kind, c) for kind, c, _rows in got[-4:]] == [
            ("retract", 10.0), ("correct", 10.0),
            ("retract", 15.0), ("correct", 15.0)]
        # every restored slice was reduced after the restart — [0, 5),
        # [5, 10) and [10, 15) hold two rows each — and the late row's
        # slice [5, 10) once more, at three
        assert cq._window_op.store.rows_reduced == 2 + 2 + 2 + 3

    def test_a_window_closed_before_the_restart_is_still_retracted(self):
        """The late row lands in [-5, 5), which closed — and emitted —
        *before* the checkpoint: its remembered output rides the
        checkpoint, so the rebuilt CQ retracts exactly that."""
        late = [("z", 8, 2.0)]                  # re-opens 5 and 10
        _, want = self.run(restart=False, late=late)
        _, got = self.run(restart=True, late=late)
        assert got == want
        first_close = got[0]
        assert first_close[:2] == ("window", 5.0)
        assert [(kind, c) for kind, c, _rows in got[-4:]] == [
            ("retract", 5.0), ("correct", 5.0),
            ("retract", 10.0), ("correct", 10.0)]
        assert got[-4][2] == first_close[2]     # the pre-restart output

    def test_a_checkpoint_without_the_key_restores_with_nothing_to_retract(
            self):
        db = Database(stream_retention=3600.0)
        db.execute(DDL)
        cq = db.runtime.create_cq(parse_statement(self.SQL), name="r")
        db.insert_stream("s", self.BEFORE)
        payload = capture_window_state(cq)
        assert [close for close, _rows in payload.pop("emitted")] == [5.0]
        fresh = ContinuousQuery("r", parse_statement(self.SQL),
                                db.catalog, db.txn_manager)
        fresh._emitted = {1.0: []}
        restore_window_state(fresh, payload)
        assert fresh._emitted == {}
