"""Tests for positional ``?`` parameter binding."""

import pytest

from repro import Database
from repro.errors import ExecutionError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a integer, b varchar(10))")
    database.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    return database


class TestSnapshotParameters:
    def test_where(self, db):
        assert db.query("SELECT b FROM t WHERE a = ?", (2,)).rows == [("y",)]

    def test_multiple_in_order(self, db):
        rows = db.query("SELECT b FROM t WHERE a > ? AND a < ?",
                        (1, 3)).rows
        assert rows == [("y",)]

    def test_in_select_list(self, db):
        assert db.query("SELECT ? + 1", (41,)).scalar() == 42

    def test_in_expressions(self, db):
        rows = db.query("SELECT b FROM t WHERE b LIKE ?", ("x%",)).rows
        assert rows == [("x",)]

    def test_in_in_list(self, db):
        rows = db.query("SELECT count(*) FROM t WHERE a IN (?, ?)", (1, 3))
        assert rows.scalar() == 2

    def test_missing_params_raise(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT a FROM t WHERE a = ?")

    def test_too_few_params_raise(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT a FROM t WHERE a = ? AND b = ?", (1,))

    def test_null_parameter(self, db):
        assert db.query("SELECT count(*) FROM t WHERE a = ?",
                        (None,)).scalar() == 0

    def test_params_do_not_leak_between_statements(self, db):
        db.query("SELECT ?", (1,))
        with pytest.raises(ExecutionError):
            db.query("SELECT ?")


class TestDMLParameters:
    def test_insert(self, db):
        db.execute("INSERT INTO t VALUES (?, ?)", (9, "nine"))
        assert db.query("SELECT b FROM t WHERE a = 9").scalar() == "nine"

    def test_update(self, db):
        count = db.execute("UPDATE t SET b = ? WHERE a = ?", ("new", 1))
        assert count.rowcount == 1
        assert db.query("SELECT b FROM t WHERE a = 1").scalar() == "new"

    def test_delete(self, db):
        db.execute("DELETE FROM t WHERE a >= ?", (2,))
        assert db.query("SELECT count(*) FROM t").scalar() == 1

    def test_insert_select_with_param(self, db):
        db.execute("CREATE TABLE u (a integer, b varchar(10))")
        db.execute("INSERT INTO u SELECT a, b FROM t WHERE a > ?", (1,))
        assert len(db.table_rows("u")) == 2


class TestCQParameters:
    def test_params_bound_for_cq_lifetime(self, db):
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        sub = db.subscribe(
            "SELECT count(*) FROM s <VISIBLE '1 minute'> WHERE v >= ?",
            (10,))
        db.insert_stream("s", [(5, 1.0), (10, 2.0), (50, 3.0)])
        db.advance_streams(60.0)
        db.insert_stream("s", [(11, 61.0)])
        db.advance_streams(120.0)
        assert [w.rows for w in sub.poll()] == [[(2,)], [(1,)]]

    def test_two_cqs_different_params(self, db):
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        low = db.subscribe(
            "SELECT count(*) FROM s <VISIBLE '1 minute'> WHERE v >= ?", (1,))
        high = db.subscribe(
            "SELECT count(*) FROM s <VISIBLE '1 minute'> WHERE v >= ?", (100,))
        db.insert_stream("s", [(5, 1.0), (200, 2.0)])
        db.advance_streams(60.0)
        assert low.rows() == [(2,)]
        assert high.rows() == [(1,)]

    def test_parameterized_cq_skips_sharing(self):
        """Bound ``?`` values are part of the slice-store key: a CQ
        skips sharing with one bound to other values, and shares with
        one bound to the same."""
        db = Database()
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        sql = ("SELECT count(*) FROM s <VISIBLE '1 minute'> "
               "HAVING count(*) >= ?")
        one = db.subscribe(sql, (1,))
        other = db.subscribe(sql, (3,))
        assert one.cq.is_sliced() and other.cq.is_sliced()
        assert not one.cq.shared and not other.cq.shared
        assert len(db.get_stream("s").slice_stores) == 2
        same = db.subscribe(sql, (1,))
        assert one.cq.shared and same.cq.shared and not other.cq.shared
        # a ``?`` below the aggregate has no batch kernel: that CQ runs
        # the per-row gear, which never slices
        below = db.subscribe(
            "SELECT count(*) FROM s <VISIBLE '1 minute'> WHERE v > ?", (1,))
        assert not below.cq.is_sliced() and not below.cq.shared
        db.insert_stream("s", [(5, 1.0), (200, 2.0)])
        db.advance_streams(60.0)
        assert one.rows() == same.rows() == below.rows() == [(2,)]
        assert other.rows() == []
