"""Tests for durable-state recovery from a surviving WAL, plus TRUNCATE
and the extended scalar-function library."""

import pytest

from repro import Database
from repro.errors import BindError
from repro.replication import open_database


class TestWalRecovery:
    @pytest.fixture
    def db(self, tmp_path):
        return open_database(wal_path=str(tmp_path / "wal"))

    def crash(self, db):
        """Simulate a crash: keep only what is on disk — the WAL — and
        reopen it the way a server boots."""
        return open_database(wal_path=db.storage.wal.path)

    def test_committed_rows_survive(self, db):
        db.execute("CREATE TABLE t (a integer, b varchar(10))")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        recovered = self.crash(db)
        assert sorted(recovered.table_rows("t")) == [(1, "x"), (2, "y")]

    def test_schema_recovered(self, db):
        db.execute("CREATE TABLE t (a integer NOT NULL, b varchar(7))")
        recovered = self.crash(db)
        schema = recovered.get_table("t").schema
        assert schema.column("a").not_null
        assert schema.column("b").datatype.sql_name() == "varchar(7)"

    def test_uncommitted_transaction_discarded(self, db):
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (2)")
        # crash before COMMIT: the in-flight txn is deemed aborted
        recovered = self.crash(db)
        assert recovered.table_rows("t") == [(1,)]

    def test_deletes_and_updates_replayed(self, db):
        db.execute("CREATE TABLE t (a integer, b varchar(10))")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        db.execute("DELETE FROM t WHERE a = 2")
        db.execute("UPDATE t SET b = 'updated' WHERE a = 1")
        recovered = self.crash(db)
        assert sorted(recovered.table_rows("t")) == [
            (1, "updated"), (3, "z")]

    def test_recovered_database_is_usable(self, db):
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        recovered = self.crash(db)
        recovered.execute("INSERT INTO t VALUES (2)")
        assert recovered.query("SELECT sum(a) FROM t").scalar() == 3

    def test_active_table_contents_survive(self, db):
        db.execute("CREATE STREAM s (k varchar(5), ts timestamp CQTIME USER)")
        db.execute_script("""
            CREATE STREAM agg AS SELECT k, count(*) c, cq_close(*)
                FROM s <VISIBLE '1 minute'> GROUP BY k;
            CREATE TABLE arch (k varchar(5), c bigint, ts timestamp);
            CREATE CHANNEL ch FROM agg INTO arch APPEND;
        """)
        db.insert_stream("s", [("a", 5.0), ("a", 6.0)])
        db.advance_streams(60.0)
        recovered = self.crash(db)
        # the archive (durable state) is back, and so is the stream: a
        # log on disk carries the streaming DDL too
        assert recovered.table_rows("arch") == [("a", 2, 60.0)]
        assert recovered.get_stream("s").name == "s"


class TestTruncate:
    def test_truncate_all_rows(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        result = db.execute("TRUNCATE TABLE t")
        assert result.rowcount == 3
        assert db.table_rows("t") == []

    def test_truncate_without_table_keyword(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("TRUNCATE t")
        assert db.table_rows("t") == []

    def test_truncate_is_transactional(self):
        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("BEGIN")
        db.execute("TRUNCATE t")
        db.execute("ROLLBACK")
        assert db.table_rows("t") == [(1,)]


class TestNewScalarFunctions:
    @pytest.fixture
    def db(self):
        return Database()

    def scalar(self, db, expr):
        return db.query(f"SELECT {expr}").scalar()

    def test_string_functions(self, db):
        assert self.scalar(db, "trim('  x  ')") == "x"
        assert self.scalar(db, "ltrim('  x')") == "x"
        assert self.scalar(db, "rtrim('x  ')") == "x"
        assert self.scalar(db, "replace('a-b-c', '-', '+')") == "a+b+c"
        assert self.scalar(db, "split_part('a,b,c', ',', 2)") == "b"
        assert self.scalar(db, "split_part('a,b', ',', 9)") == ""
        assert self.scalar(db, "strpos('hello', 'll')") == 3
        assert self.scalar(db, "strpos('hello', 'zz')") == 0
        assert self.scalar(db, "left('hello', 2)") == "he"
        assert self.scalar(db, "right('hello', 2)") == "lo"
        assert self.scalar(db, "repeat('ab', 3)") == "ababab"
        assert self.scalar(db, "lpad('7', 3, '0')") == "007"
        assert self.scalar(db, "reverse('abc')") == "cba"
        assert self.scalar(db, "initcap('hello world')") == "Hello World"
        assert self.scalar(db, "starts_with('hello', 'he')") is True

    def test_math_functions(self, db):
        assert self.scalar(db, "sign(-5)") == -1
        assert self.scalar(db, "sign(0)") == 0
        assert self.scalar(db, "sign(2.5)") == 1
        assert self.scalar(db, "trunc(3.9)") == 3
        assert self.scalar(db, "trunc(-3.9)") == -3
        assert self.scalar(db, "exp(0)") == 1.0

    def test_null_guards(self, db):
        assert self.scalar(db, "replace(NULL, 'a', 'b')") is None
        assert self.scalar(db, "sign(NULL)") is None

    def test_unknown_still_rejected(self, db):
        with pytest.raises(BindError):
            db.query("SELECT frobnicate('x')")
