"""Tests for the supervised CQ runtime: dead-letter quarantine,
channel-write retry with backoff, automatic restart through the recovery
paths, backpressure policies, and the SET/SHOW + system-view surface."""

import io

import pytest

from repro import Database
from repro.cli import Shell
from repro.core.results import Subscription
from repro.errors import BackpressureError, ExecutionError, FaultInjected
from repro.faults import FaultInjector
from repro.streaming.channels import archive_of
from repro.streaming.supervisor import SupervisorPolicy

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
        # exponential: base + base*factor
        policy = db.supervisor.policy
        expected = policy.backoff_base * (1 + policy.backoff_factor)
        assert entry.backoff_seconds == pytest.approx(expected)

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


class TestRestart:
    def failing_pipeline(self, db):
        db.execute_script("""
            CREATE STREAM agg AS SELECT k, sum(10 / v) x, cq_close(*)
                FROM s <VISIBLE '1 minute'> GROUP BY k;
            CREATE TABLE arch (k varchar(10), x double precision,
                               ts timestamp);
            CREATE CHANNEL ch FROM agg INTO arch APPEND;
        """)

    def test_repeated_failures_restart_the_cq(self, db):
        self.failing_pipeline(db)
        # two consecutive poison windows hit restart_limit (default 2)
        db.insert_stream("s", [("a", 0, 5.0)])
        db.advance_streams(60.0)
        db.insert_stream("s", [("a", 0, 65.0)])
        db.advance_streams(120.0)
        cq = db.runtime.cqs()["derived:agg"]
        entry = db.supervisor.entry_for(cq)
        assert entry.restarts == 1
        assert entry.state == "running"
        # the restarted CQ is rebound everywhere and keeps archiving
        db.insert_stream("s", [("b", 5, 125.0)])
        db.advance_streams(180.0)
        assert ("b", 2.0, 180.0) in db.table_rows("arch")

    def test_restart_recovers_from_active_table(self, db):
        self.failing_pipeline(db)
        # a healthy window first, so the active table has a high-water mark
        db.insert_stream("s", [("a", 5, 5.0)])
        db.advance_streams(60.0)
        assert db.table_rows("arch") == [("a", 2.0, 60.0)]
        for close in (120.0, 180.0):
            db.insert_stream("s", [("a", 0, close - 5.0)])
            db.advance_streams(close)
        entry = db.supervisor.entry_for(db.runtime.cqs()["derived:agg"])
        assert entry.restarts >= 1
        assert archive_of(db.catalog.get_relation("agg")).table \
            is db.catalog.get_relation("arch")
        db.insert_stream("s", [("b", 10, 185.0)])
        db.advance_streams(240.0)
        assert ("b", 1.0, 240.0) in db.table_rows("arch")
        # no window double-archived by the recovery replay
        closes = [row[2] for row in db.table_rows("arch")]
        assert len(closes) == len(set(closes))

    def test_restart_repoints_the_checkpoint_manager(self, db):
        # the manager's sink travels to the replacement with the other
        # sinks; it must capture the operator that is running, not keep
        # writing the stopped one's frozen buffer as the latest checkpoint
        from repro.streaming.recovery import CheckpointManager
        sub = db.subscribe("SELECT sum(10 / v) FROM s "
                           "<VISIBLE '2 minutes' ADVANCE '1 minute'>")
        old, wal = sub.cq, db.storage.wal
        manager = CheckpointManager(old, wal)
        for close in (60.0, 120.0):             # two poison closes
            db.insert_stream("s", [("a", 0, close - 5.0)])
            db.advance_streams(close)
        fresh = db.runtime.cqs()[old.name]
        assert fresh is old and manager.cq is fresh
        taken = manager.checkpoints_taken
        db.insert_stream("s", [("b", 5, 185.0)])
        db.advance_streams(240.0)               # two more windows
        db.insert_stream("s", [("c", 2, 245.0)])
        db.advance_streams(300.0)
        assert manager.checkpoints_taken > taken
        buffered = [tuple(row) for _when, row in
                    wal.latest_checkpoint(old.name)["buffer"]]
        assert buffered == [row for _when, row in
                            fresh._window_op.points()] == [("c", 2, 245.0)]

    @pytest.mark.parametrize("vectorize", [True, False],
                             ids=["batch", "iterator"])
    def test_restart_keeps_the_gear_and_the_instrumentation(self,
                                                            vectorize):
        db = Database(supervised=True, stream_retention=3600.0,
                      vectorize=vectorize)
        db.execute(STREAM_DDL)
        self.failing_pipeline(db)
        old = db.runtime.cqs()["derived:agg"]
        for close in (60.0, 120.0):
            db.insert_stream("s", [("a", 0, close - 5.0)])
            db.advance_streams(close)
        fresh = db.runtime.cqs()["derived:agg"]
        assert fresh is old
        assert db.supervisor.entry_for(fresh).restarts == 1
        # the replacement is the CQ the runtime would have built: same
        # window operator class, same executor gear, still instrumented
        assert type(fresh._window_op) is type(old._window_op)
        assert fresh.vectorized == old.vectorized
        assert fresh.obs is old.obs and fresh.obs is not None
        assert fresh.late_handler is not None
        db.insert_stream("s", [("b", 5, 125.0)])
        db.advance_streams(180.0)
        stats = db.query("SELECT operator FROM repro_operator_stats "
                         "WHERE cq = 'derived:agg'").rows
        assert stats, "EXPLAIN ANALYZE went dark after the restart"

    def test_flapping_cq_is_quarantined(self, db):
        policy = db.supervisor.policy
        policy.restart_limit = 1
        policy.max_restarts = 2
        self.failing_pipeline(db)
        close = 60.0
        for _ in range(6):
            db.insert_stream("s", [("a", 0, close - 5.0)])
            db.advance_streams(close)
            close += 60.0
        status = {row[0]: row for row in db.supervisor.status_rows()}
        assert status["derived:agg"][2] == "quarantined"
        # a quarantined CQ is detached: inserts no longer fail or archive
        db.insert_stream("s", [("b", 5, close - 5.0)])
        db.advance_streams(close)
        assert db.table_rows("arch") == []


class TestRestartInPlace:
    """A restart rebuilds the CQ in place: every holder keeps the
    running object, and closing a subscription stops what runs."""

    def test_a_subscription_stops_the_cq_it_started(self, db):
        sub = db.subscribe("SELECT 10 / sum(v) AS r FROM s "
                           "<VISIBLE '1 minute'>")
        name, stream = sub.cq.name, db.get_stream("s")
        for close in (60.0, 120.0):             # two poison windows
            db.insert_stream("s", [("a", 0, close - 5.0)])
            db.advance_streams(close)
        assert sub.cq is db.runtime.cqs()[name]
        assert db.supervisor.entry_for(sub.cq).restarts == 1
        db.insert_stream("s", [("a", 5, 125.0)])
        db.advance_streams(180.0)
        assert sub.stats.windows_evaluated == 1   # the rebuilt life's
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

    # join-limit-2: a join side that only buffers its window runs no
    # plan, so it must not clear the strike the other side's close took
    @pytest.mark.parametrize("select, poison, limit", [
        TRANSFORM + (1,), JOIN + (1,), TRANSFORM + (2,), JOIN + (2,)],
        ids=["transform", "join", "transform-limit-2", "join-limit-2"])
    def test_restart_guards_are_installed_once(self, db, select, poison,
                                               limit):
        # a restart keeps the object: a guard stacked on a guard would
        # count a failure once and then clear the strike as the outer
        # layer's success — a CQ that never restarts again
        db.execute("CREATE STREAM t (k varchar(10), w integer, "
                   "ts timestamp CQTIME USER)")
        policy = db.supervisor.policy
        policy.restart_limit = limit
        policy.max_restarts = 2
        sub = db.subscribe(select)
        close = 60.0
        for _ in range(3 * limit + 1):
            db.insert_stream("s", [poison + (close - 5.0,)])
            db.insert_stream("t", [("a", 3, close - 4.0)])
            db.advance_streams(close)
            close += 60.0
        status = {row[0]: row for row in db.supervisor.status_rows()}
        name = sub.cq.name
        assert (status[name][3], status[name][5], status[name][2]) == \
            (3 * limit, 2, "quarantined")
        strikes = ["poison-tuple" if "<" not in select
                   else "poison-window"] * limit
        assert [row[2] for row in db.supervisor.dead_letter_rows()] == \
            (strikes + ["restart-loss"]) * 2 + strikes + ["poison-window"]


class TestBackpressure:
    def stream(self, policy):
        database = Database(stream_slack=10.0, backpressure_policy=policy,
                            high_water_mark=3, supervised=True)
        database.execute(STREAM_DDL)
        return database

    def test_raise_policy(self):
        db = self.stream("raise")
        for t in (0.0, 1.0, 2.0):
            db.insert_stream("s", [("a", 1, t)])
        with pytest.raises(BackpressureError):
            db.insert_stream("s", [("a", 1, 3.0)])

    def test_shed_oldest_policy_dead_letters_the_shed_tuple(self):
        db = self.stream("shed-oldest")
        sub = db.subscribe("SELECT count(*) FROM s <VISIBLE '1 minute'>")
        for t in (0.0, 1.0, 2.0, 3.0, 4.0):
            db.insert_stream("s", [("a", 1, t)])
        stream = db.get_stream("s")
        assert stream.tuples_shed == 2
        assert len(stream._pending) == 3
        db.flush_streams()
        assert sub.rows() == [(3,)]
        shed = [row for row in db.supervisor.dead_letter_rows()
                if row[2] == "load-shed"]
        assert len(shed) == 2

    def test_block_policy_force_releases_oldest(self):
        db = self.stream("block")
        sub = db.subscribe("SELECT count(*) FROM s <VISIBLE '1 minute'>")
        for t in (0.0, 1.0, 2.0, 3.0, 4.0):
            db.insert_stream("s", [("a", 1, t)])
        stream = db.get_stream("s")
        assert stream.forced_releases == 2
        assert stream.tuples_shed == 0
        db.flush_streams()
        assert sub.rows() == [(5,)]  # nothing lost, delivered early instead

    def test_default_is_raise(self):
        database = Database(stream_slack=10.0, high_water_mark=2)
        database.execute(STREAM_DDL)
        database.insert_stream("s", [("a", 1, 0.0)])
        database.insert_stream("s", [("a", 1, 1.0)])
        with pytest.raises(BackpressureError):
            database.insert_stream("s", [("a", 1, 2.0)])


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

    def test_set_backpressure_policy_applies_to_existing_streams(self):
        db = Database(stream_slack=10.0, high_water_mark=2)
        db.execute(STREAM_DDL)
        db.execute("SET backpressure_policy = 'shed-oldest'")
        assert db.get_stream("s").backpressure_policy == "shed-oldest"
        db.execute("SET high_water_mark = 5")
        assert db.get_stream("s").high_water_mark == 5
        assert db.query("SHOW backpressure_policy").scalar() == "shed-oldest"

    def test_set_policy_knob_requires_supervision(self):
        db = Database()
        with pytest.raises(ExecutionError):
            db.execute("SET restart_limit = 5")
        db.execute("SET supervision = on")
        db.execute("SET restart_limit = 5")
        assert db.supervisor.policy.restart_limit == 5

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

    def test_show_all(self):
        db = Database(supervised=True)
        result = db.query("SHOW ALL")
        names = [row[0] for row in result.rows]
        assert "supervision" in names
        assert "restart_limit" in names


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
        assert stream.error_handler is None and stream.shed_handler is None
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


class TestPolicyDefaults:
    def test_policy_dataclass_defaults(self):
        policy = SupervisorPolicy()
        assert policy.channel_retry_limit == 3
        assert policy.restart_limit == 2
        assert policy.max_restarts == 3

    def test_custom_policy_via_enable(self):
        db = Database()
        db.enable_supervision(policy=SupervisorPolicy(restart_limit=7))
        assert db.supervisor.policy.restart_limit == 7
