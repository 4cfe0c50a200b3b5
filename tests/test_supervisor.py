"""Tests for the supervised CQ runtime: dead-letter quarantine,
channel-write retry, a CQ that runs on through consecutive poison
windows, and the SET/SHOW + system-view surface."""

import io

import pytest

from repro import Database
from repro.cli import Shell
from repro.core.results import Subscription
from repro.errors import ExecutionError
from repro.faults import FaultInjector
from repro.streaming.supervisor import CHANNEL_RETRY_LIMIT

STREAM_DDL = ("CREATE STREAM s (k varchar(10), v integer, "
              "ts timestamp CQTIME USER)")


@pytest.fixture
def db():
    database = Database(supervised=True, stream_retention=3600.0)
    database.execute(STREAM_DDL)
    return database


class Bomb:
    def __init__(self):
        self.seen = 0

    def on_tuple(self, row, t):
        self.seen += 1
        raise RuntimeError("boom")

    def on_heartbeat(self, t):
        pass

    def on_flush(self):
        pass


class TestPoisonIsolation:
    def test_poison_tuple_does_not_reach_inserter(self, db):
        sub = db.subscribe("SELECT 10 / v FROM s WHERE v < 10")
        # v=0 is a poison tuple: unsupervised this raises at insert
        assert db.insert_stream("s", [("a", 0, 5.0)]) == 1
        assert db.insert_stream("s", [("a", 2, 6.0)]) == 1
        assert sub.rows() == [(5.0,)]
        letters = db.supervisor.dead_letter_rows()
        assert any(kind == "poison-tuple" for _s, _n, kind, *_ in
                   [(l[0], l[1], l[2]) for l in letters])

    def test_poison_window_quarantined_next_window_flows(self, db):
        sub = db.subscribe("SELECT sum(10 / v) FROM s <VISIBLE '1 minute'>")
        db.insert_stream("s", [("a", 0, 5.0)])
        db.advance_streams(60.0)   # window fails: quarantined, not raised
        db.insert_stream("s", [("a", 5, 65.0)])
        db.advance_streams(120.0)
        assert sub.rows() == [(2.0,)]
        kinds = [row[2] for row in db.supervisor.dead_letter_rows()]
        assert "poison-window" in kinds

    def test_raising_subscriber_does_not_reach_inserter(self, db):
        good = db.subscribe("SELECT count(*) FROM s <VISIBLE '1 minute'>")
        bomb = Bomb()
        db.get_stream("s").subscribe(bomb)
        assert db.insert_stream("s", [("a", 1, 5.0)]) == 1
        assert db.insert_stream("s", [("a", 1, 6.0)]) == 1
        db.get_stream("s").unsubscribe(bomb)
        db.advance_streams(60.0)
        assert bomb.seen == 2
        assert good.rows() == [(2,)]   # full fan-out despite the bomb
        kinds = [row[2] for row in db.supervisor.dead_letter_rows()]
        assert kinds.count("subscriber-error") == 2

    def test_unsupervised_database_still_propagates(self):
        plain = Database()
        plain.execute(STREAM_DDL)
        plain.subscribe("SELECT 10 / v FROM s WHERE v < 10")
        with pytest.raises(ExecutionError):
            plain.insert_stream("s", [("a", 0, 5.0)])


class TestDeadLetterStream:
    def test_dead_letters_republished_on_queryable_stream(self, db):
        watcher = db.subscribe(
            "SELECT source, kind FROM repro_dead_letter_stream")
        db.subscribe("SELECT 10 / v FROM s WHERE v < 10")
        db.insert_stream("s", [("a", 0, 5.0)])
        rows = watcher.rows()
        assert len(rows) == 1
        assert rows[0][1] == "poison-tuple"

    def test_stream_exists_before_any_failure(self, db):
        assert db.catalog.has_relation("repro_dead_letter_stream")

    def test_dead_letters_system_view(self, db):
        db.subscribe("SELECT 10 / v FROM s WHERE v < 10")
        db.insert_stream("s", [("a", 0, 5.0)])
        rows = db.query("SELECT source, kind, rowcount "
                        "FROM repro_dead_letters").rows
        assert len(rows) == 1
        assert rows[0][1] == "poison-tuple"
        assert rows[0][2] == 1


class TestChannelRetry:
    def pipeline(self, db):
        db.execute_script("""
            CREATE STREAM agg AS SELECT k, count(*) c, cq_close(*)
                FROM s <VISIBLE '1 minute'> GROUP BY k;
            CREATE TABLE arch (k varchar(10), c bigint, ts timestamp);
            CREATE CHANNEL ch FROM agg INTO arch APPEND;
        """)

    def test_transient_fault_retried_with_backoff(self, db):
        injector = FaultInjector()
        db.set_fault_injector(injector)
        self.pipeline(db)
        injector.arm("channel.write", count=2)
        db.insert_stream("s", [("a", 1, 5.0)])
        db.advance_streams(60.0)
        # two failed attempts, third lands: the window is archived
        assert db.table_rows("arch") == [("a", 1, 60.0)]
        entry = db.supervisor.entry_for(db.catalog.get_channel("ch"))
        assert entry.retries == 2

    def test_permanent_fault_quarantines_batch(self, db):
        injector = FaultInjector()
        db.set_fault_injector(injector)
        self.pipeline(db)
        injector.arm("channel.write")
        db.insert_stream("s", [("a", 1, 5.0)])
        db.advance_streams(60.0)
        assert db.table_rows("arch") == []
        letters = [row for row in db.supervisor.dead_letter_rows()
                   if row[2] == "channel-write"]
        assert len(letters) == 1
        assert letters[0][4] == 1  # the lost batch had one row
        entry = db.supervisor.entry_for(db.catalog.get_channel("ch"))
        assert entry.retries == CHANNEL_RETRY_LIMIT
        # the pipeline keeps running once the fault clears
        injector.disarm()
        db.insert_stream("s", [("b", 1, 65.0)])
        db.advance_streams(120.0)
        assert db.table_rows("arch") == [("b", 1, 120.0)]


class TestCorrectionWrites:
    """A retract / correct record reaches the channel through the same
    write as a final, so the supervisor retries and quarantines it the
    same way — and a channel that cannot write is the channel's dead
    letter, not a strike on the CQ whose evaluation succeeded."""

    NO_FAULT, TRANSIENT, PERMANENT = 0, 1, None   # channel.write count

    def run(self, mode, count=NO_FAULT):
        db = Database(supervised=True, stream_retention=3600.0)
        db.execute("CREATE STREAM clicks (url varchar(20), "
                   "ts timestamp CQTIME USER) WATERMARK '5 seconds'")
        injector = FaultInjector()
        db.set_fault_injector(injector)
        db.execute_script(f"""
            CREATE STREAM counts AS SELECT url, count(*) AS n,
                cq_close(*) AS stime
                FROM clicks <VISIBLE '10 seconds'> GROUP BY url
                EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT;
            CREATE TABLE arch (url varchar(20), n bigint, stime timestamp);
            CREATE CHANNEL ch FROM counts INTO arch {mode};
        """)
        cq = db.catalog.get_relation("counts").cq
        sub = Subscription(cq, db.runtime)
        db.insert_stream("clicks", [("/a", 1.0), ("/a", 2.0), ("/b", 12.0),
                                    ("/a", 16.0)])     # closes window 10
        if count != self.NO_FAULT:
            injector.arm("channel.write", count=count)
        db.insert_stream("clicks", [("/a", 3.0)])      # re-opens it
        return db, cq, sub

    @pytest.mark.parametrize("mode", ["APPEND", "REPLACE"])
    def test_a_transient_fault_on_a_correction_is_retried(self, mode):
        clean, _cq, _sub = self.run(mode)
        want = sorted(clean.table_rows("arch"))
        assert want == [("/a", 3, 10.0)]
        db, cq, _sub = self.run(mode, self.TRANSIENT)
        channel = db.catalog.get_channel("ch")
        assert sorted(db.table_rows("arch")) == want
        assert db.supervisor.entry_for(channel).retries == 1
        assert db.supervisor.entry_for(cq).failures == 0
        assert db.supervisor.dead_letter_rows() == []
        # the guard wraps the one write, not the consumer entry points
        assert "on_batch" not in vars(channel)
        assert "on_correction" not in vars(channel)

    # APPEND writes the retract and the correct; on REPLACE the retract
    # is a no-op and only the correct is written
    @pytest.mark.parametrize("mode, failed", [("APPEND", 2), ("REPLACE", 1)])
    def test_a_permanent_fault_is_the_channels_dead_letter(self, mode,
                                                           failed):
        db, cq, sub = self.run(mode, self.PERMANENT)
        letters = [(row[1], row[2])
                   for row in db.supervisor.dead_letter_rows()]
        assert letters == [("ch", "channel-write")] * failed
        assert db.supervisor.entry_for(cq).failures == 0
        assert sorted(db.table_rows("arch")) == [("/a", 2, 10.0)]
        # the CQ's other sinks got every record
        assert [(w.kind, w.close_time, w.rows) for w in sub.poll()] == [
            ("window", 10.0, [("/a", 2, 10.0)]),
            ("retract", 10.0, [("/a", 2, 10.0)]),
            ("correct", 10.0, [("/a", 3, 10.0)]),
        ]


class TestConsecutivePoisonWindows:
    """Consecutive poison windows are each quarantined and the CQ runs
    on with its window state: every other window is what a fault-free
    run emits, and every missing one is a dead letter."""

    def failing_pipeline(self, db):
        db.execute_script("""
            CREATE STREAM agg AS SELECT k, sum(10 / v) x, cq_close(*)
                FROM s <VISIBLE '1 minute'> GROUP BY k;
            CREATE TABLE arch (k varchar(10), x double precision,
                               ts timestamp);
            CREATE CHANNEL ch FROM agg INTO arch APPEND;
        """)

    def test_repeated_failures_keep_the_cq_running(self, db):
        self.failing_pipeline(db)
        db.insert_stream("s", [("a", 0, 5.0)])
        db.advance_streams(60.0)
        db.insert_stream("s", [("a", 0, 65.0)])
        db.advance_streams(120.0)
        cq = db.runtime.cqs()["derived:agg"]
        entry = db.supervisor.entry_for(cq)
        assert (entry.failures, entry.state) == (2, "degraded")
        db.insert_stream("s", [("b", 5, 125.0)])
        db.advance_streams(180.0)
        assert entry.state == "running"
        assert db.runtime.cqs()["derived:agg"] is cq
        assert db.table_rows("arch") == [("b", 2.0, 180.0)]
        assert [(row[1], row[2], row[7]) for row in
                db.supervisor.dead_letter_rows()] == [
            ("derived:agg", "poison-window", 60.0),
            ("derived:agg", "poison-window", 120.0)]

    def test_the_rest_equal_a_fault_free_run(self):
        """Windows 120 and 180 hold a ``v = 0`` row; the fault-free run
        is the same input without them."""
        clean = [("a", 5, 5.0), ("b", 2, 30.0), ("a", 1, 65.0),
                 ("b", 5, 130.0), ("a", 2, 170.0), ("b", 1, 185.0),
                 ("a", 10, 230.0)]
        poison = [("a", 0, 100.0), ("b", 0, 150.0)]

        def archived(rows):
            db = Database(supervised=True, stream_retention=3600.0)
            db.execute(STREAM_DDL)
            self.failing_pipeline(db)
            db.insert_stream("s", sorted(rows, key=lambda r: r[2]))
            db.advance_streams(300.0)
            return db, sorted(db.table_rows("arch"), key=lambda r: r[2])

        _, want = archived(clean)
        db, got = archived(clean + poison)
        lost = [row[7] for row in db.supervisor.dead_letter_rows()]
        assert lost == [120.0, 180.0]
        assert got == [row for row in want if row[2] not in lost]
        assert {row[2] for row in want} >= set(lost)

    @pytest.mark.parametrize("vectorize", [True, False],
                             ids=["batch", "iterator"])
    def test_gear_and_instrumentation_stay(self, vectorize):
        db = Database(supervised=True, vectorize=vectorize)
        db.execute(STREAM_DDL)
        self.failing_pipeline(db)
        cq = db.runtime.cqs()["derived:agg"]
        window_op = cq._window_op
        for close in (60.0, 120.0):
            db.insert_stream("s", [("a", 0, close - 5.0)])
            db.advance_streams(close)
        assert db.runtime.cqs()["derived:agg"] is cq
        assert cq._window_op is window_op
        assert cq.vectorized == vectorize
        db.insert_stream("s", [("b", 5, 125.0)])
        db.advance_streams(180.0)
        stats = db.query("SELECT operator FROM repro_operator_stats "
                         "WHERE cq = 'derived:agg'").rows
        assert stats, "EXPLAIN ANALYZE went dark after the poison windows"

    def test_a_cq_failing_every_window_is_never_detached(self, db):
        self.failing_pipeline(db)
        close = 60.0
        for _ in range(6):
            db.insert_stream("s", [("a", 0, close - 5.0)])
            db.advance_streams(close)
            close += 60.0
        status = {row[0]: row for row in db.supervisor.status_rows()}
        assert status["derived:agg"][2:4] == ("degraded", 6)
        assert [row[2] for row in db.supervisor.dead_letter_rows()] == \
            ["poison-window"] * 6
        # still attached: the next healthy window is archived
        db.insert_stream("s", [("b", 5, close - 5.0)])
        db.advance_streams(close)
        assert db.table_rows("arch") == [("b", 2.0, close)]

    def test_a_subscription_stops_the_cq_it_started(self, db):
        sub = db.subscribe("SELECT 10 / sum(v) AS r FROM s "
                           "<VISIBLE '1 minute'>")
        name, stream = sub.cq.name, db.get_stream("s")
        for close in (60.0, 120.0):             # two poison windows
            db.insert_stream("s", [("a", 0, close - 5.0)])
            db.advance_streams(close)
        assert sub.cq is db.runtime.cqs()[name]
        db.insert_stream("s", [("a", 5, 125.0)])
        db.advance_streams(180.0)
        assert sub.stats.windows_evaluated == 1   # the poisoned raised
        assert [w.rows for w in sub.poll()] == [[(2.0,)]]
        sub.close()
        assert name not in db.runtime.cqs()
        assert len(stream.consumers) == 0
        assert db.query("SELECT consumers FROM repro_streams "
                        "WHERE name = 's'").scalar() == 0
        db.insert_stream("s", [("a", 5, 185.0)])
        db.advance_streams(300.0)
        assert sub.poll() == []

    TRANSFORM = ("SELECT k, 10 / v AS r FROM s", ("a", 0))
    JOIN = ("SELECT 10 / (s.v - t.w) AS r FROM s <VISIBLE '1 minute'>, "
            "t <VISIBLE '1 minute'> WHERE s.k = t.k", ("a", 3))

    @pytest.mark.parametrize("select, poison", [TRANSFORM, JOIN],
                             ids=["transform", "join"])
    def test_every_poison_is_one_dead_letter(self, db, select, poison):
        # the guard is installed once: a failure is counted once, and
        # a healthy window after the poisoned ones is delivered
        db.execute("CREATE STREAM t (k varchar(10), w integer, "
                   "ts timestamp CQTIME USER)")
        sub = db.subscribe(select)
        close = 60.0
        for _ in range(5):
            db.insert_stream("s", [poison + (close - 5.0,)])
            db.insert_stream("t", [("a", 3, close - 4.0)])
            db.advance_streams(close)
            close += 60.0
        name = sub.cq.name
        status = {row[0]: row for row in db.supervisor.status_rows()}
        assert status[name][3] == 5
        kind = "poison-tuple" if "<" not in select else "poison-window"
        assert [row[2] for row in db.supervisor.dead_letter_rows()] == \
            [kind] * 5
        db.insert_stream("s", [("a", 5, close - 5.0)])
        db.insert_stream("t", [("a", 3, close - 4.0)])
        db.advance_streams(close)
        assert [w.rows for w in sub.poll()] == [[("a", 2.0)]] \
            if "<" not in select else [[(5.0,)]]


class TestSessionOptions:
    def test_set_supervision_on(self):
        db = Database()
        assert db.supervisor is None
        db.execute("SET supervision = on")
        assert db.supervisor is not None
        db.execute("SET supervision = on")  # idempotent
        assert db.query("SHOW supervision").scalar() == "on"

    def test_supervision_adopts_existing_objects(self):
        db = Database()
        db.execute(STREAM_DDL)
        sub = db.subscribe("SELECT 10 / v FROM s WHERE v < 10")
        db.execute("SET supervision = on")
        assert db.insert_stream("s", [("a", 0, 5.0)]) == 1  # isolated now
        assert sub.rows() == []
        names = [row[0] for row in db.supervisor.status_rows()]
        assert "s" in names

    def test_set_fault_seed_installs_injector(self):
        db = Database()
        db.execute("SET fault_seed = 1234")
        assert db.faults is not None
        assert db.faults.seed == 1234
        assert db.storage.disk.faults is db.faults

    def test_unknown_option_rejected(self):
        db = Database()
        with pytest.raises(ExecutionError):
            db.execute("SET no_such_option = 1")
        with pytest.raises(ExecutionError):
            db.query("SHOW no_such_option")
        for name in ("backpressure_policy", "high_water_mark"):
            with pytest.raises(ExecutionError, match="unknown session option"):
                db.execute(f"SET {name} = 2")
            with pytest.raises(ExecutionError):
                db.query(f"SHOW {name}")
        # no option sets a restart (a poison window is only quarantined)
        # or tunes the retry and the dead-letter log: they are constants
        db.execute("SET supervision = on")
        for name in ("restart_limit", "max_restarts", "channel_retry_limit",
                     "backoff_base", "backoff_factor",
                     "dead_letter_capacity"):
            with pytest.raises(ExecutionError, match="unknown session option"):
                db.execute(f"SET {name} = 5")
            with pytest.raises(ExecutionError, match="unknown session option"):
                db.query(f"SHOW {name}")

    def test_show_all(self):
        db = Database(supervised=True)
        result = db.query("SHOW ALL")
        names = [row[0] for row in result.rows]
        assert "supervision" in names
        assert len(names) == 14
        assert len(Database().query("SHOW ALL").rows) == 14


class TestSupervisorStatusView:
    def test_view_lists_every_supervised_entity(self, db):
        db.execute_script("""
            CREATE STREAM agg AS SELECT k, count(*) c, cq_close(*)
                FROM s <VISIBLE '1 minute'> GROUP BY k;
            CREATE TABLE arch (k varchar(10), c bigint, ts timestamp);
            CREATE CHANNEL ch FROM agg INTO arch APPEND;
        """)
        rows = db.query("SELECT name, kind, state "
                        "FROM repro_supervisor_status").rows
        entries = {(name, kind) for name, kind, _state in rows}
        assert ("s", "stream") in entries
        assert ("derived:agg", "cq") in entries
        assert ("ch", "channel") in entries
        assert all(state == "running" for _n, _k, state in rows)
        columns = db.query("SELECT * FROM repro_supervisor_status").columns
        assert columns == ["name", "kind", "state", "failures", "retries",
                           "dead_letters", "last_error"]

    def test_dropped_objects_leave_the_view(self, db):
        db.execute_script("""
            CREATE STREAM agg AS SELECT k, count(*) c, cq_close(*)
                FROM s <VISIBLE '1 minute'> GROUP BY k;
            CREATE TABLE arch (k varchar(10), c bigint, ts timestamp);
            CREATE CHANNEL ch FROM agg INTO arch APPEND;
        """)
        stream = db.get_stream("s")
        for statement, left in (("DROP CHANNEL ch", ["derived:agg", "s"]),
                                ("DROP STREAM agg", ["s"]),
                                ("DROP STREAM s", [])):
            db.execute(statement)
            names = [row[0] for row in db.query(
                "SELECT name FROM repro_supervisor_status").rows]
            assert sorted(names) == left
        # the orphaned stream object raises into its inserter again
        assert stream.error_handler is None
        db.execute(STREAM_DDL)
        assert db.query("SELECT name, state FROM repro_supervisor_status") \
            .rows == [("s", "running")]

    def test_view_empty_without_supervision(self):
        db = Database()
        assert db.query(
            "SELECT count(*) FROM repro_supervisor_status").scalar() == 0


class TestShellCommands:
    def shell(self, db):
        out = io.StringIO()
        return Shell(db=db, out=out), out

    def test_supervisor_command(self, db):
        shell, out = self.shell(db)
        shell.handle_line("\\supervisor")
        assert "s" in out.getvalue()

    def test_supervisor_command_when_off(self):
        shell, out = self.shell(Database())
        shell.handle_line("\\supervisor")
        assert "supervision is off" in out.getvalue()

    def test_deadletters_command(self, db):
        db.subscribe("SELECT 10 / v FROM s WHERE v < 10")
        db.insert_stream("s", [("a", 0, 5.0)])
        shell, out = self.shell(db)
        shell.handle_line("\\deadletters")
        assert "poison-tuple" in out.getvalue()

    def test_deadletters_empty(self, db):
        shell, out = self.shell(db)
        shell.handle_line("\\deadletters")
        assert "no dead letters" in out.getvalue()
