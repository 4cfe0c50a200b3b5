"""Tests for cumulative (VISIBLE UNBOUNDED) windows and median in CQs."""

import pytest

from repro import Database
from repro.errors import ParseError, WindowError
from repro.sql import parse_statement


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE STREAM s (k varchar(5), v integer, "
                     "ts timestamp CQTIME USER)")
    return database


class TestUnboundedWindows:
    def test_parse(self):
        select = parse_statement(
            "SELECT count(*) FROM s <VISIBLE UNBOUNDED ADVANCE '1 minute'>")
        window = select.from_clause.window
        assert window.visible == float("inf")
        assert window.advance == 60.0

    def test_requires_advance(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT count(*) FROM s <VISIBLE UNBOUNDED>")

    def test_cumulative_counts(self, db):
        sub = db.subscribe("SELECT count(*), sum(v) FROM s "
                           "<VISIBLE UNBOUNDED ADVANCE '1 minute'>")
        db.insert_stream("s", [("a", 1, 5.0), ("a", 2, 10.0)])
        db.advance_streams(60.0)
        db.insert_stream("s", [("a", 4, 65.0)])
        db.advance_streams(120.0)
        out = [(w.close_time, w.rows) for w in sub.poll()]
        assert out == [(60.0, [(2, 3)]), (120.0, [(3, 7)])]

    def test_cumulative_group_by(self, db):
        sub = db.subscribe("SELECT k, count(*) FROM s "
                           "<VISIBLE UNBOUNDED ADVANCE '1 minute'> "
                           "GROUP BY k ORDER BY k")
        db.insert_stream("s", [("a", 1, 5.0), ("b", 1, 6.0)])
        db.advance_streams(60.0)
        db.insert_stream("s", [("a", 1, 61.0)])
        db.advance_streams(120.0)
        windows = sub.poll()
        assert windows[-1].rows == [("a", 2), ("b", 1)]

    def test_flush_emits_final_total(self, db):
        sub = db.subscribe("SELECT count(*) FROM s "
                           "<VISIBLE UNBOUNDED ADVANCE '1 minute'>")
        db.insert_stream("s", [("a", 1, 5.0)])
        db.flush_streams()
        assert sub.rows() == [(1,)]
        db.flush_streams()  # idempotent, no crash

    def test_not_shared_even_when_sharing_enabled(self, db):
        """Cumulative windows do not slice, so two identical ones read
        no store."""
        sql = "SELECT count(*) FROM s <VISIBLE UNBOUNDED ADVANCE '1 minute'>"
        subs = [db.subscribe(sql), db.subscribe(sql)]
        assert not any(sub.cq.shared for sub in subs)
        assert db.get_stream("s").slice_stores == []


class TestMedianInQueries:
    def test_median_snapshot(self, db):
        db.execute("CREATE TABLE t (x double precision)")
        db.insert_table("t", [(1.0,), (100.0,), (7.0,)])
        assert db.query("SELECT median(x) FROM t").scalar() == 7.0

    def test_median_in_windowed_cq(self, db):
        sub = db.subscribe(
            "SELECT k, median(v) FROM s <VISIBLE '1 minute'> "
            "GROUP BY k ORDER BY k")
        db.insert_stream("s", [("a", 10, 1.0), ("a", 2, 2.0), ("a", 4, 3.0)])
        db.advance_streams(60.0)
        assert sub.rows() == [("a", 4)]

    def test_median_shared_path_matches_generic(self):
        """median has no mergeable partial: same-key CQs take the
        per-window path and agree with the iterator engine."""
        results = []
        for vectorize in (True, False):
            db = Database(vectorize=vectorize)
            db.execute("CREATE STREAM s (k varchar(5), v integer, "
                       "ts timestamp CQTIME USER)")
            sql = ("SELECT median(v) FROM s <VISIBLE '2 minutes' "
                   "ADVANCE '1 minute'>")
            subs = [db.subscribe(sql), db.subscribe(sql)]
            db.insert_stream("s", [("a", 3, 5.0), ("a", 9, 70.0),
                                   ("a", 5, 100.0)])
            db.advance_streams(180.0)
            results.extend([(w.close_time, w.rows) for w in sub.poll()]
                           for sub in subs)
            assert not any(sub.cq.shared for sub in subs)
        assert results[0] == results[1] == results[2] == results[3]
