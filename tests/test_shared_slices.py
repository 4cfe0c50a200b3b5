"""Tests for shared slice aggregation (Section 2.2, refs [4, 12]):
many CQs, one per-tuple aggregation pass.

Sharing is a property of the sliced window path, not a kind of CQ: two
sliced CQs whose slice partials depend on the same things (stream,
alias, WHERE, GROUP BY, aggregate calls, bound ``?`` values) read one
slice store.  Every test runs on a default ``Database()``; the
iterator engine (``vectorize=False``) is the reference.
"""

import pytest

from repro import Database
from repro.sql import parse_statement
from repro.streaming import ContinuousQuery, recover_from_active_table
from tests.test_differential import Config, run

CLICKS_DDL = ("CREATE STREAM clicks (url varchar(100), "
              "ts timestamp CQTIME USER, ip varchar(20))")


@pytest.fixture
def db():
    database = Database()
    database.execute(CLICKS_DDL)
    return database


@pytest.fixture
def plain_db():
    """The spec: the per-row iterator engine, which never slices."""
    database = Database(vectorize=False)
    database.execute(CLICKS_DDL)
    return database


CQ_TEMPLATE = ("SELECT url, count(*) c FROM clicks "
               "<VISIBLE '{v}' ADVANCE '1 minute'> GROUP BY url")


def click_events(n_per_minute=3, minutes=6):
    return [(f"/p{i % 2}", minute * 60.0 + i + 1, "x")
            for minute in range(minutes) for i in range(n_per_minute)]


def drive(db, n_per_minute=3, minutes=6):
    db.insert_stream("clicks", click_events(n_per_minute, minutes))
    db.advance_streams(minutes * 60.0)


def stores(db, stream="clicks"):
    return db.get_stream(stream).slice_stores


def windows(sub):
    return [(w.close_time, sorted(w.rows)) for w in sub.poll()]


def collector(out):
    return lambda _kind, rows, _open, close: out.append((close, sorted(rows)))


def archiving(db, out):
    """A sink that collects each window and archives it, with its
    close, into the active table ``arch``."""
    db.execute("CREATE TABLE arch (url varchar(100), c bigint, "
               "stime timestamp)")
    table, collect = db.get_table("arch"), collector(out)

    def sink(kind, rows, open_time, close_time):
        collect(kind, rows, open_time, close_time)
        txn = db.txn_manager.begin()
        for row in rows:
            table.insert(txn, tuple(row) + (close_time,))
        txn.commit()
    return sink


class TestEligibility:
    """Which CQs get a store key, and which keys are equal."""

    def check(self, db, sql):
        return db.subscribe(sql).cq.store_key

    def test_simple_aggregate_eligible(self, db):
        assert self.check(db, CQ_TEMPLATE.format(v="5 minutes")) is not None

    def test_different_windows_same_signature(self, db):
        a = self.check(db, CQ_TEMPLATE.format(v="5 minutes"))
        b = self.check(db, CQ_TEMPLATE.format(v="10 minutes"))
        assert a == b

    def test_different_group_different_signature(self, db):
        a = self.check(db, CQ_TEMPLATE.format(v="5 minutes"))
        b = self.check(db, "SELECT ip, count(*) FROM clicks "
                           "<VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY ip")
        assert a != b

    def test_where_included_in_signature(self, db):
        a = self.check(db, "SELECT count(*) FROM clicks <VISIBLE '1 minute'> "
                           "WHERE url = '/a'")
        b = self.check(db, "SELECT count(*) FROM clicks <VISIBLE '1 minute'> "
                           "WHERE url = '/b'")
        assert a is not None and b is not None
        assert a != b

    def test_alias_included_in_signature(self, db):
        a = self.check(db, "SELECT count(*) FROM clicks <VISIBLE '1 minute'> a")
        b = self.check(db, "SELECT count(*) FROM clicks <VISIBLE '1 minute'> b")
        assert a is not None and b is not None
        assert a != b

    def test_join_not_eligible(self, db):
        db.execute("CREATE TABLE t (url varchar(100))")
        assert self.check(
            db, "SELECT count(*) FROM clicks <VISIBLE '1 minute'> c, t "
                "WHERE c.url = t.url") is None

    def test_non_aggregate_not_eligible(self, db):
        assert self.check(db, "SELECT url FROM clicks <VISIBLE '1 minute'>") is None

    def test_row_window_not_eligible(self, db):
        assert self.check(
            db, "SELECT count(*) FROM clicks <VISIBLE 10 ROWS>") is None

    def test_table_query_not_eligible(self, db):
        db.execute("CREATE TABLE t (a integer)")
        assert db.query("SELECT count(*) FROM t").scalar() == 0
        assert db.runtime.cqs() == {}
        assert stores(db) == []

    def test_iterator_gear_not_eligible(self, plain_db):
        sub = plain_db.subscribe(CQ_TEMPLATE.format(v="5 minutes"))
        assert sub.cq.store_key is None
        assert not sub.cq.shared
        assert stores(plain_db) == []


class TestSharedResults:
    def test_matches_generic_path(self):
        """Readers of one store produce the iterator engine's output (a
        step program of ``tests/test_differential.py``)."""
        events = [(url, i, when) for i, (url, when, _ip)
                  in enumerate(click_events())]
        machine = run(Config(window=(120.0, 60.0), archive=False),
                      ("attach_late",), ("send", events))
        assert all(sub.cq.shared for sub in machine.engine.subs.values())
        assert not machine.reference.subs["early"].cq.shared

    def test_multiple_windows_one_aggregator(self, db):
        subs = [db.subscribe(CQ_TEMPLATE.format(v=v))
                for v in ("1 minute", "2 minutes", "5 minutes")]
        assert len(stores(db)) == 1
        assert len(stores(db)[0].readers) == 3
        drive(db)
        for sub in subs:
            assert len(sub.poll()) > 0

    def test_per_tuple_work_independent_of_cq_count(self, db):
        for v in ("1 minute", "2 minutes", "3 minutes", "4 minutes"):
            db.subscribe(CQ_TEMPLATE.format(v=v))
        drive(db, n_per_minute=5, minutes=4)
        # every tuple reduced into a slice partial exactly once despite 4 CQs
        (store,) = stores(db)
        assert store.rows_reduced == 20

    def test_per_row_ingest_shares_too(self, db):
        """One insert per tuple (no batch fast path) seals the same
        slices: the store still reduces each event once."""
        subs = [db.subscribe(CQ_TEMPLATE.format(v=v))
                for v in ("1 minute", "3 minutes")]
        for event in click_events(n_per_minute=5, minutes=4):
            db.insert_stream("clicks", [event])
        db.advance_streams(240.0)
        assert stores(db)[0].rows_reduced == 20
        assert all(len(sub.poll()) == 4 for sub in subs)

    def test_unshared_processes_per_cq(self, db):
        """Key-distinct CQs (here: by alias) each pay for every tuple."""
        for alias, v in (("a", "1 minute"), ("b", "2 minutes")):
            db.subscribe(
                f"SELECT url, count(*) c FROM clicks <VISIBLE '{v}' "
                f"ADVANCE '1 minute'> {alias} GROUP BY url")
        drive(db, n_per_minute=5, minutes=4)
        assert len(stores(db)) == 2
        assert [store.rows_reduced for store in stores(db)] == [20, 20]

    def test_having_and_order_run_per_cq(self, db, plain_db):
        plain = db.subscribe(CQ_TEMPLATE.format(v="2 minutes"))
        picky_sql = ("SELECT url, count(*) c FROM clicks "
                     "<VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url "
                     "HAVING count(*) > 2 ORDER BY c DESC LIMIT 1")
        picky = db.subscribe(picky_sql)
        reference = plain_db.subscribe(picky_sql)
        # same partials, different post-aggregate plans: one store
        assert len(stores(db)) == 1 and picky.cq.shared
        drive(db, n_per_minute=6, minutes=3)
        drive(plain_db, n_per_minute=6, minutes=3)
        picky_windows = picky.poll()
        for window in picky_windows:
            assert len(window.rows) <= 1
            for _url, count in window.rows:
                assert count > 2
        assert [w.rows for w in picky_windows] == \
            [w.rows for w in reference.poll()]
        assert any(len(w.rows) == 2 for w in plain.poll())

    def test_where_filter_applied(self, db):
        sub = db.subscribe(
            "SELECT count(*) FROM clicks <VISIBLE '1 minute'> "
            "WHERE url = '/p0'")
        other = db.subscribe(
            "SELECT count(*) FROM clicks <VISIBLE '1 minute'> "
            "WHERE url = '/p1'")
        drive(db, n_per_minute=5, minutes=2)
        assert sub.rows() == [(3,), (3,)]
        assert other.rows() == [(2,), (2,)]
        assert len(stores(db)) == 2

    def test_incompatible_grid_gets_second_aggregator(self, db, plain_db):
        sqls = [CQ_TEMPLATE.format(v="2 minutes"),   # slice = 60s
                "SELECT url, count(*) c FROM clicks "
                "<VISIBLE '90 seconds' ADVANCE '30 seconds'> GROUP BY url"]
        subs = [db.subscribe(sql) for sql in sqls]
        assert len(stores(db)) == 2
        assert stores(db)[0].key == stores(db)[1].key
        assert [store.width for store in stores(db)] == [60.0, 30.0]
        assert not any(sub.cq.shared for sub in subs)
        references = [plain_db.subscribe(sql) for sql in sqls]
        drive(db)
        drive(plain_db)
        for sub, reference in zip(subs, references):
            assert windows(sub) == windows(reference)

    def test_later_reader_joins_a_finer_grid(self, db, plain_db):
        """The first reader fixes the width; a window whose extents are
        multiples of it reads the same store on that finer grid."""
        sqls = ["SELECT url, count(*) c FROM clicks "
                "<VISIBLE '90 seconds' ADVANCE '30 seconds'> GROUP BY url",
                CQ_TEMPLATE.format(v="2 minutes")]
        subs = [db.subscribe(sql) for sql in sqls]
        (store,) = stores(db)
        assert store.width == 30.0 and len(store.readers) == 2
        references = [plain_db.subscribe(sql) for sql in sqls]
        drive(db)
        drive(plain_db)
        assert store.rows_reduced == 18
        for sub, reference in zip(subs, references):
            assert windows(sub) == windows(reference)

    def test_stop_removes_consumer(self, db):
        first = db.subscribe(CQ_TEMPLATE.format(v="1 minute"))
        second = db.subscribe(CQ_TEMPLATE.format(v="2 minutes"))
        (store,) = stores(db)
        assert len(store.readers) == 2
        first.close()
        assert len(store.readers) == 1
        assert second.cq.shared is False
        second.close()
        # the store goes with its last reader
        assert stores(db) == []

    def test_flush_emits_pending_window(self, db):
        sub = db.subscribe(CQ_TEMPLATE.format(v="1 minute"))
        db.insert_stream("clicks", [("/a", 10.0, "x")])
        db.flush_streams()
        rows = sub.rows()
        assert rows == [("/a", 1)]

    def test_scalar_aggregate_no_group(self, db):
        sub = db.subscribe(
            "SELECT count(*), avg(length(url)) FROM clicks <VISIBLE '1 minute'>")
        db.insert_stream("clicks", [("/ab", 1.0, "x"), ("/cd", 2.0, "x")])
        db.advance_streams(60.0)
        rows = sub.rows()
        assert rows == [(2, 3.0)]

    def test_scalar_empty_window_matches_generic(self, db, plain_db):
        sql = "SELECT count(*) FROM clicks <VISIBLE '1 minute'>"
        shared_subs = [db.subscribe(sql), db.subscribe(sql)]
        plain_sub = plain_db.subscribe(sql)
        for d in (db, plain_db):
            d.insert_stream("clicks", [("/a", 10.0, "x")])
            d.advance_streams(180.0)
        plain_out = [(w.close_time, w.rows) for w in plain_sub.poll()]
        for shared_sub in shared_subs:
            shared_out = [(w.close_time, w.rows) for w in shared_sub.poll()]
            assert shared_out == plain_out
            assert shared_out[-1][1] == [(0,)]

    def test_empty_window_emits_nothing_for_grouped(self, db):
        sub = db.subscribe(CQ_TEMPLATE.format(v="1 minute"))
        db.subscribe(CQ_TEMPLATE.format(v="2 minutes"))
        db.insert_stream("clicks", [("/a", 10.0, "x")])
        db.advance_streams(180.0)
        windows = sub.poll()
        # grouped aggregates over empty windows produce zero rows
        assert [len(w.rows) for w in windows] == [1, 0, 0]


class TestStoreSafety:
    def test_reader_attached_mid_slice_sees_only_its_own_rows(self):
        """A reader that joins halfway through a slice buffered fewer
        rows than the store's partial covers: it must reduce its own."""
        events = [(url, i, when) for i, (url, when, _ip)
                  in enumerate(click_events(n_per_minute=6, minutes=5))]
        cut = 6 * 2 + 3                     # mid-way through minute 3
        machine = run(Config(window=(120.0, 60.0), archive=False),
                      ("send", events[:cut]), ("attach_late",),
                      ("send", events[cut:]), ("move_clock", 300.0))
        (store,) = machine.engine.db.get_stream("s").slice_stores
        assert len(store.readers) == 2
        # the straddled slice was reduced twice (6 rows and 3), every
        # other slice once
        assert store.rows_reduced == len(events) + 3

    def test_store_evicts_what_every_reader_has_passed(self, db):
        for v in ("1 minute", "3 minutes"):
            db.subscribe(CQ_TEMPLATE.format(v=v))
        (store,) = stores(db)
        for minute in range(30):
            db.insert_stream(
                "clicks", [("/a", minute * 60.0 + i, "x") for i in range(4)])
            db.advance_streams((minute + 1) * 60.0)
            assert len(store) <= 3

    def test_poison_slice_quarantines_each_reader(self):
        """A slice whose reduction raised re-raises in each reader's sink:
        each quarantines its own window and runs on, as the oracle says."""
        machine = run(Config(window=(60.0, 60.0), supervised=True,
                             poison="sum(10 / v)", archive=False),
                      ("attach_late",),
                      ("send", [("a", 5, 10.0), ("a", 0, 20.0)]),  # poison
                      ("send", [("a", 2, 70.0)]), ("send", [("a", 1, 130.0)]),
                      ("move_clock", 240.0))
        narrow, wide = (machine.engine.subs[role].cq
                        for role in ("early", "late"))
        assert narrow.shared and wide.shared
        assert sorted((source, close) for source, _kind, close, *_held
                      in machine.engine.dead_letters()) == \
            [(narrow.name, 60.0), (wide.name, 60.0), (wide.name, 120.0)]

    def test_active_table_recovery_of_one_sharing_reader(self):
        """Crash one of two sharing CQs mid-slice, recover it from its
        active table: its output equals the uninterrupted run, and the
        survivor's is untouched."""
        sql_a = CQ_TEMPLATE.format(v="3 minutes")
        sql_b = CQ_TEMPLATE.format(v="2 minutes")

        def run(crash_minute):
            db = Database(stream_retention=3600.0)
            db.execute(CLICKS_DDL)
            out_a, out_b = [], []
            cq_a = db.runtime.create_cq(parse_statement(sql_a), name="a")
            cq_b = db.runtime.create_cq(parse_statement(sql_b), name="b")
            sink = archiving(db, out_a)
            cq_a.add_sink(sink)
            cq_b.add_sink(collector(out_b))
            events = click_events(n_per_minute=4, minutes=8)
            if crash_minute is None:
                db.insert_stream("clicks", events)
            else:
                # crash mid-slice: the replayed tail ends in a partial
                # slice, as the survivor's does
                cut = 4 * crash_minute + 2
                db.insert_stream("clicks", events[:cut])
                db.runtime.stop_cq(cq_a)
                assert not cq_b.shared
                fresh = ContinuousQuery("a", parse_statement(sql_a),
                                        db.catalog, db.txn_manager)
                fresh.add_sink(sink)
                recover_from_active_table(fresh, db.get_table("arch"),
                                          db.txn_manager, "stime")
                fresh.attach()
                assert fresh.shared and cq_b.shared
                db.insert_stream("clicks", events[cut:])
            db.advance_streams(480.0)
            return out_a, out_b

        assert run(crash_minute=4) == run(crash_minute=None)

    def test_restored_reader_reslots_onto_a_finer_store(self):
        """A recovered CQ replays before it attaches, so its buffer is
        filed on its own grid (2-minute slices); attaching joins the
        survivor's 1-minute store: the held rows are re-slotted, the
        slices the survivor already reduced are not reduced again, and
        the output equals the uninterrupted run."""
        sql_a = ("SELECT url, count(*) c FROM clicks "
                 "<VISIBLE '4 minutes' ADVANCE '2 minutes'> GROUP BY url")
        sql_b = CQ_TEMPLATE.format(v="2 minutes")
        events = click_events(n_per_minute=4, minutes=10)

        def run(crash):
            db = Database(stream_retention=3600.0)
            db.execute(CLICKS_DDL)
            out = []
            db.runtime.create_cq(parse_statement(sql_b), name="b")
            cq_a = db.runtime.create_cq(parse_statement(sql_a), name="a")
            sink = archiving(db, out)
            cq_a.add_sink(sink)
            (store,) = stores(db)
            assert store.width == 60.0
            if not crash:
                db.insert_stream("clicks", events)
            else:
                cut = 4 * 5         # minute 5: one closed minute held
                db.insert_stream("clicks", events[:cut])
                db.runtime.stop_cq(cq_a)
                fresh = ContinuousQuery("a", parse_statement(sql_a),
                                        db.catalog, db.txn_manager)
                fresh.add_sink(sink)
                recover_from_active_table(fresh, db.get_table("arch"),
                                          db.txn_manager, "stime")
                op = fresh._window_op
                assert op.slice_width == 120.0 and op.buffered
                held = op.points()
                fresh.attach()
                assert fresh.shared and op.store is store
                assert op.slice_width == 60.0 and op.points() == held
                assert sorted(op._slices) == sorted(
                    {int(when // 60) for when, _row in held})
                db.insert_stream("clicks", events[cut:])
            db.advance_streams(600.0)
            # one pass over the stream, whoever asked for a slice first
            assert store.rows_reduced == len(events)
            return out

        assert run(crash=True) == run(crash=False)

    def test_sixteen_readers_one_pass(self, db):
        """The issue's headline: 16 CQs differing only in VISIBLE reduce
        each slice once, emit what 16 key-distinct CQs emit, and stay
        ordinary CQs — vectorized and individually supervised."""
        db.enable_supervision()
        distinct = Database()
        distinct.execute(CLICKS_DDL)
        sqls = [CQ_TEMPLATE.format(v=f"{k} minutes") for k in range(1, 17)]
        subs = [db.subscribe(sql) for sql in sqls]
        distinct_subs = [
            distinct.subscribe(sql.replace("> GROUP", f"> r{i} GROUP"))
            for i, sql in enumerate(sqls)]
        events = click_events(n_per_minute=5, minutes=20)
        for engine in (db, distinct):
            engine.insert_stream("clicks", events)
            engine.advance_streams(1200.0)
        (store,) = stores(db)
        assert store.rows_reduced == len(events)
        assert len(stores(distinct)) == 16
        assert sum(s.rows_reduced for s in stores(distinct)) \
            == 16 * len(events)
        for sub, other in zip(subs, distinct_subs):
            assert windows(sub) == windows(other)
            assert "[mode=batch]" in db.explain(
                f"EXPLAIN ANALYZE {sub.cq.name}")
        assert "store readers 16" in db.explain(
            f"EXPLAIN {subs[0].cq.name}")
        status = db.query("SELECT name, last_error FROM "
                          "repro_supervisor_status WHERE kind = 'cq'").rows
        assert len(status) == 16
        assert not any("stream-level" in (error or "")
                       for _name, error in status)
        assert all(row[1] for row in db.query(
            "SELECT name, shared FROM repro_cqs").rows)
