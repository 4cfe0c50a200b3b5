"""Event-time windows over slice partials.

An event-time CQ whose plan vectorizes reads its windows as per-slice
aggregate partials, exactly as an arrival-time one does: the final
close, a late row's re-open and an early emit all gather through the
one ``TimeWindowOperator._window``.  What is pinned here:

* **gear parity** — the sliced gear and the iterator gear
  (``Database(vectorize=False)``, windows as rows) emit the identical
  typed record sequence; ``tests/test_differential.py`` draws every
  lateness policy, emit mode and window shape, and its float rule
  covers double sums;
* **work** — each accepted row is converted once, and a late row costs
  one more conversion of the one slice it was filed into (counts, not
  wall time);
* the store stays **private** to an event-time reader and holds one
  partial per held slice however often a slice is sealed again;
* a retraction finds its rows from the newest end of the active table;
* a CQ rebuilt from its active table seals its slices again, and
  retracts what it emitted before the restart.
"""

from repro import Database
from repro.replication import open_database
from tests.test_differential import Config, run as run_program

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


def test_sliced_gear_matches_iterator_gear():
    """The sliced gear's record sequence is the iterator gear's: a step
    program per policy and emit mode (tests/test_differential.py)."""
    # a row a second, every third one 9 seconds late
    feed = [("abc"[i % 3], i % 7 - 3, float(i - 9 * (i % 3 == 1)))
            for i in range(24)]
    steps = [("send", feed[i:i + 5]) for i in range(0, len(feed), 5)]
    for policy in ("DROP", "DEAD LETTER", "RETRACT"):
        for emit in ("ON WATERMARK", "ON CHANGE", "EVERY '3 seconds'"):
            machine = run_program(Config(
                event_time=True, policy=policy, emit=emit,
                window=(10.0, 2.0), supervised=True), *steps)
            assert machine.engine.subs["early"].cq.is_sliced()
            assert not machine.reference.subs["early"].cq.is_sliced()


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
        """Two CQs with one store key and two policies, the second
        attached mid-slice: each emits what the oracle says
        (tests/test_differential.py).  On a shared store the second would
        be served the first one's partial: both reach two rows in slice
        [0, 2), over different rows."""
        machine = run_program(
            Config(event_time=True, policy="DROP", late_policy="RETRACT",
                   window=(10.0, 2.0), lateness=30.0, archive=False),
            ("send", [("a", 1, 0.5)]), ("attach_late",),
            ("send", [("b", 2, 1.0), ("a", 5, 12.0),    # seals 2 rows / 1
                      ("a", 7, 1.2),                    # straggler: 2 / 2
                      ("b", 8, 25.0)]))
        early, late = (machine.engine.subs[role].cq
                       for role in ("early", "late"))
        assert early.store_key == late.store_key
        assert early.is_sliced() and late.is_sliced()
        assert not early.shared and not late.shared
        assert machine.engine.db.get_stream("s").slice_stores == []

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


# -- restart --------------------------------------------------------------------

class TestRestart:
    """A CQ rebuilt from its active table by a boot of its data dir."""
    SQL = (SELECT.replace(" FROM", ", cq_close(*) AS stime FROM")
           + "<VISIBLE '10 seconds' ADVANCE '5 seconds'> GROUP BY k "
           "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")
    BEFORE = [("a", 1, 1.0), ("b", 2, 3.0), ("a", 3, 6.0), ("b", 4, 8.0),
              ("a", 5, 12.0)]                   # watermark 7: [-5, 5) closed
    AFTER = [("b", 6, 14.0), ("a", 7, 27.0)]    # closes 10, 15, 20
    LATE = [("z", 8, 7.0)]                      # re-opens 10 and 15

    @staticmethod
    def watch(db, out):
        cq = db.catalog.get_relation("r").cq
        cq.add_sink(lambda kind, rows, o, c: out.append((kind, c, rows)))
        return cq

    def run(self, data_dir, restart, late=LATE):
        db = open_database(data_dir=str(data_dir), stream_retention=3600.0)
        db.execute(DDL)
        db.execute(f"CREATE STREAM r AS {self.SQL}")
        db.execute("CREATE TABLE active (k varchar(10), c bigint, "
                   "total bigint, lo integer, hi integer, stime timestamp)")
        db.execute("CREATE CHANNEL ch FROM r INTO active APPEND")
        out = []
        cq = self.watch(db, out)
        db.insert_stream("s", self.BEFORE)
        assert [c for _kind, c, _rows in out] == [5.0]
        if restart:
            # mid-retention: the closed window's slices are still held
            assert len(cq._window_op.store) == 1
            db.close()
            db = open_database(data_dir=str(data_dir),
                               stream_retention=3600.0)
            assert db.recovery_stats["cqs"] == [("derived:r",
                                                 "active-table")]
            cq = self.watch(db, out)
            # the replay refiles rows, never partials
            assert cq.is_sliced() and len(cq._window_op.store) == 0
            assert cq._window_op.buffered == len(self.BEFORE)
        db.insert_stream("s", self.AFTER)
        db.insert_stream("s", late)
        return cq, out

    def test_a_rebuilt_cq_seals_again_and_corrects_identically(self,
                                                                tmp_path):
        _, want = self.run(tmp_path / "once", restart=False)
        cq, got = self.run(tmp_path / "twice", restart=True)
        assert got == want
        assert [(kind, c) for kind, c, _rows in got[-4:]] == [
            ("retract", 10.0), ("correct", 10.0),
            ("retract", 15.0), ("correct", 15.0)]
        # every restored slice was reduced after the restart — [0, 5),
        # [5, 10) and [10, 15) hold two rows each — and the late row's
        # slice [5, 10) once more, at three
        assert cq._window_op.store.rows_reduced == 2 + 2 + 2 + 3

    def test_a_window_closed_before_the_restart_is_still_retracted(
            self, tmp_path):
        """The late row lands in [-5, 5), which closed — and emitted —
        *before* the restart: the rebuilt CQ reads what it emitted back
        from the active table, so it retracts exactly that."""
        late = [("z", 8, 2.0)]                  # re-opens 5 and 10
        _, want = self.run(tmp_path / "once", restart=False, late=late)
        _, got = self.run(tmp_path / "twice", restart=True, late=late)
        assert got == want
        first_close = got[0]
        assert first_close[:2] == ("window", 5.0)
        assert [(kind, c) for kind, c, _rows in got[-4:]] == [
            ("retract", 5.0), ("correct", 5.0),
            ("retract", 10.0), ("correct", 10.0)]
        assert got[-4][2] == first_close[2]     # the pre-restart output
