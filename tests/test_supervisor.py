"""Tests for the supervised CQ runtime: dead-letter quarantine,
channel-write retry with backoff, automatic restart through the recovery
paths, backpressure policies, and the SET/SHOW + system-view surface."""

import io

import pytest

from repro import Database
from repro.cli import Shell
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
        assert fresh is not old and manager.cq is fresh
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
        assert fresh is not old
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
