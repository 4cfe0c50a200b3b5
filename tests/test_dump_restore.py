"""Tests for dump/restore of a whole database."""

import pytest

from repro import Database


@pytest.fixture
def populated(tmp_path):
    db = Database()
    db.execute("CREATE STREAM clicks (url varchar(200), "
               "ts timestamp CQTIME USER, ip varchar(20))")
    db.execute_script("""
        CREATE STREAM per_minute AS SELECT url, count(*) c, cq_close(*)
            FROM clicks <VISIBLE '1 minute'> GROUP BY url;
        CREATE TABLE archive (url varchar(200), c bigint, stime timestamp);
        CREATE CHANNEL arch_ch FROM per_minute INTO archive APPEND;
        CREATE VIEW hot AS SELECT url, ts, ip FROM clicks
            WHERE url LIKE '/hot%';
        CREATE TABLE dims (url varchar(200), owner varchar(20));
        CREATE INDEX dims_url ON dims (url);
    """)
    db.insert_table("dims", [("/a", "ann"), ("/b", "bob")])
    db.insert_stream("clicks", [("/a", 5.0, "x"), ("/a", 6.0, "x")])
    db.advance_streams(60.0)
    path = str(tmp_path / "dump.json")
    return db, path


class TestDumpRestore:
    def test_manifest_counts(self, populated):
        db, path = populated
        manifest = db.dump(path)
        assert manifest == {
            "streams": 1, "tables": 2, "views": 1,
            "derived_streams": 1, "channels": 1, "indexes": 1,
        }

    def test_table_contents_roundtrip(self, populated):
        db, path = populated
        db.dump(path)
        restored = Database.restore(path)
        assert sorted(restored.table_rows("dims")) == \
            sorted(db.table_rows("dims"))
        assert sorted(restored.table_rows("archive")) == \
            sorted(db.table_rows("archive"))

    def test_schema_roundtrip(self, populated):
        db, path = populated
        db.dump(path)
        restored = Database.restore(path)
        table = restored.get_table("dims")
        assert table.schema.names() == ["url", "owner"]
        assert table.schema.column("url").datatype.sql_name() == "varchar(200)"
        stream = restored.get_stream("clicks")
        assert stream.cqtime_mode == "user"

    def test_pipeline_is_live_after_restore(self, populated):
        db, path = populated
        db.dump(path)
        restored = Database.restore(path)
        restored.insert_stream("clicks", [("/z", 5.0, "y")])
        restored.advance_streams(60.0)
        assert ("/z", 1, 60.0) in restored.table_rows("archive")

    def test_views_work_after_restore(self, populated):
        db, path = populated
        db.dump(path)
        restored = Database.restore(path)
        sub = restored.subscribe(
            "SELECT count(*) FROM hot <VISIBLE '1 minute'>")
        restored.insert_stream("clicks", [("/hot1", 5.0, "x"),
                                          ("/cold", 6.0, "x")])
        restored.advance_streams(60.0)
        assert sub.rows() == [(1,)]

    def test_indexes_rebuilt(self, populated):
        db, path = populated
        db.dump(path)
        restored = Database.restore(path)
        assert "IndexScan" in restored.explain(
            "SELECT owner FROM dims WHERE url = '/a'")
        assert restored.query(
            "SELECT owner FROM dims WHERE url = '/a'").rows == [("ann",)]

    def test_uncommitted_rows_excluded(self, populated, tmp_path):
        db, path = populated
        db.execute("BEGIN")
        db.execute("INSERT INTO dims VALUES ('/c', 'cy')")
        other_path = str(tmp_path / "mid_txn.json")
        # dump takes its own snapshot: the open txn's row is invisible
        db.dump(other_path)
        db.execute("COMMIT")
        restored = Database.restore(other_path)
        assert len(restored.table_rows("dims")) == 2

    def test_bad_version_rejected(self, populated, tmp_path):
        import json
        from repro.errors import TruvisoError
        path = str(tmp_path / "bad.json")
        with open(path, "w") as f:
            json.dump({"format_version": 999}, f)
        with pytest.raises(TruvisoError):
            Database.restore(path)

    def test_restore_options_apply(self, populated):
        db, path = populated
        db.dump(path)
        restored = Database.restore(path, stream_retention=90.0)
        assert restored.runtime.default_retention == 90.0

    def test_event_time_stream_roundtrip(self, tmp_path):
        """A WATERMARK stream restores as an event-time stream, so a
        derived stream with an EMIT clause over it restores too."""
        db = Database()
        db.execute("CREATE STREAM readings (sensor varchar(10), v integer, "
                   "ts timestamp CQTIME USER) WATERMARK '5 seconds'")
        db.execute(
            "CREATE STREAM per_minute AS SELECT sensor, sum(v) total, "
            "cq_close(*) FROM readings <VISIBLE '1 minute'> GROUP BY sensor "
            "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")
        path = str(tmp_path / "eventtime.json")
        db.dump(path)
        restored = Database.restore(path)
        stream = restored.get_stream("readings")
        assert stream.watermark_bound == 5.0
        assert stream.tracker is not None
        sub = restored.subscribe("SELECT * FROM per_minute")
        # out of order within the bound: accepted, not an OutOfOrderError
        restored.insert_stream("readings", [("a", 1, 30.0), ("a", 2, 27.0),
                                            ("a", 4, 66.0)])
        assert sub.rows() == [("a", 3, 60.0)]
