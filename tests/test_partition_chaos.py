"""Chaos scenarios for the three partition crashpoints.

Promises under test (see docs/PARTITION.md):

* ``partition.route`` — the router dies *before any shard send*: the
  whole batch is refused atomically (no counters moved, no worker saw
  a row), and a client retry of the identical batch converges on the
  unfaulted output.
* ``partition.merge`` — the merge stage dies *before emitting*: the
  shard partials stay stored and the boundary stays pending; the next
  drive retries and the window comes out exactly once.
* ``partition.worker_crash`` — a worker dies mid-window while shipping
  a partial: the coordinator respawns it, replays the acked frame log,
  fast-forwards the watermark, and retries the in-flight frame — the
  merged output is gap-free and identical to a never-crashed run.

A pump scatters every worker's frame before it gathers any ack, so a
worker can also die *between* the two — at the send, or with its frame
received and its neighbour's answer already waiting.  The per-worker
contract is unchanged (respawn, replay, re-send once; a frame is logged
once, after its ack) and the output is the single engine's.  An
``ingest`` returns with its frames unanswered, so a death is found by
the next call — ``drain()`` below, or the next ingest after it routed
its own batch.

The deterministic schedule (seed 2009, ``make chaos``) keeps every
failure reproducible; nothing here sleeps or races.
"""

import pytest

from repro import Database
from repro.errors import FaultInjected, PartitionError
from repro.partition import PartitionedEngine
from tests.test_differential import Config, run

DDL = ("CREATE STREAM s (t DOUBLE CQTIME, k TEXT, v DOUBLE) "
       "PARTITION BY k")
CQ = ("SELECT k, count(*) AS n, sum(v) AS total FROM s "
      "<visible 10 advance 5> GROUP BY k ORDER BY k")
BATCHES = [
    [(1.0, "alpha", 1.0), (2.0, "beta", 2.0), (3.0, "gamma", 3.0)],
    [(6.0, "alpha", 1.0), (8.0, "delta", 2.0)],
    [(11.0, "beta", 1.0), (13.0, "alpha", 4.0)],
    [(17.0, "gamma", 2.0), (19.0, "delta", 1.0)],
]


def run_reference(ddl=DDL, cq=CQ, batches=BATCHES):
    eng = PartitionedEngine(partitions=3)
    try:
        eng.execute(ddl)
        sub = eng.execute(cq)
        for rows in batches:
            eng.ingest("s", rows)
        eng.flush()
        return [(w.kind, w.open_time, w.close_time, tuple(w.rows))
                for w in sub.poll()]
    finally:
        eng.close()


class TestRouteCrashpoint:
    def test_refusal_is_atomic_and_retry_converges(self):
        want = run_reference()
        eng = PartitionedEngine(partitions=3)
        try:
            eng.execute(DDL)
            sub = eng.execute(CQ)
            eng.ingest("s", BATCHES[0])
            before = eng.status_rows()
            eng.arm_fault("partition.route", seed=2009)
            with pytest.raises(FaultInjected):
                eng.ingest("s", BATCHES[1])
            # atomic refusal: no row left the router, no counter moved,
            # every worker is still healthy
            after = eng.status_rows()
            assert [r[5] for r in after] == [r[5] for r in before]
            assert [r[7] for r in after] == [r[7] for r in before]
            assert all(r[2] == "up" for r in after)
            # the fault is spent; retrying the identical batch converges
            eng.ingest("s", BATCHES[1])
            for rows in BATCHES[2:]:
                eng.ingest("s", rows)
            eng.flush()
            got = [(w.kind, w.open_time, w.close_time, tuple(w.rows))
                   for w in sub.poll()]
            assert got == want
        finally:
            eng.close()

    def test_watermark_does_not_advance_past_refused_batch(self):
        eng = PartitionedEngine(partitions=2)
        try:
            eng.execute(DDL)
            eng.execute(CQ)
            eng.ingest("s", BATCHES[0])
            eng.arm_fault("partition.route", seed=2009)
            with pytest.raises(FaultInjected):
                eng.ingest("s", BATCHES[1])
            # a refused batch must not have moved the shared clock: the
            # retry's rows would otherwise be spuriously out of order
            assert all(r[8] == 3.0 for r in eng.status_rows())
            counts = eng.ingest("s", BATCHES[1])
            assert counts["accepted"] == len(BATCHES[1])
        finally:
            eng.close()


class TestMergeCrashpoint:
    def test_boundary_stays_pending_then_emits_exactly_once(self):
        want = run_reference()
        eng = PartitionedEngine(partitions=3)
        try:
            eng.execute(DDL)
            sub = eng.execute(CQ)
            eng.ingest("s", BATCHES[0])
            eng.arm_fault("partition.merge", seed=2009)
            # batch 2 closes the first boundary (t=5); the merge stage
            # dies before emitting it, in the call that reads batch 2's
            # acks
            eng.ingest("s", BATCHES[1])
            with pytest.raises(FaultInjected):
                eng.drain()
            assert sub.poll() == []          # nothing partial escaped
            # the workers DID receive the batch (the crash is after the
            # sends) — replaying rows is the client's job only for
            # route refusals, not merge deaths; driving on is enough
            for rows in BATCHES[2:]:
                eng.ingest("s", rows)
            eng.flush()
            got = [(w.kind, w.open_time, w.close_time, tuple(w.rows))
                   for w in sub.poll()]
            assert got == want               # pending window came out once
        finally:
            eng.close()

    def test_flush_alone_recovers_a_pending_merge(self):
        want = run_reference(batches=BATCHES[:2])
        eng = PartitionedEngine(partitions=2)
        try:
            eng.execute(DDL)
            sub = eng.execute(CQ)
            eng.ingest("s", BATCHES[0])
            eng.arm_fault("partition.merge", seed=2009)
            eng.ingest("s", BATCHES[1])
            with pytest.raises(FaultInjected):
                eng.drain()
            eng.flush()
            got = [(w.kind, w.open_time, w.close_time, tuple(w.rows))
                   for w in sub.poll()]
            assert got == want
        finally:
            eng.close()


class TestWorkerCrashCrashpoint:
    def test_crash_mid_window_restart_with_replay_is_gap_free(self):
        # the worker dies *shipping a partial*, after mutating its state:
        # only a respawn from the frame log can recover it
        rows = [[(k, v, t) for t, k, v in batch] for batch in BATCHES]
        machine = run(Config(topologies=("partitions",), partitions=3,
                             archive=False), ("send", rows[0]),
                      ("kill", 1, True), *[("send", r) for r in rows[1:]])
        assert machine.engine.front.restarts == [0, 1, 0]
        assert machine.engine.front.replayed_batches[1] >= 1

    def test_crash_during_retraction_still_converges(self):
        batches = [[("alpha", 1, 1.0), ("beta", 1, 3.0)],
                   [("alpha", 1, 14.0)],
                   [("beta", 2, 6.0)],          # late: reopens [0,10)
                   [("alpha", 1, 26.0)]]
        machine = run(Config(topologies=("partitions",), partitions=3,
                             archive=False, event_time=True, bound=4.0,
                             policy="RETRACT", lateness=6.0, batch=1),
                      ("send", batches[0]),
                      *[("kill", worker, True) for worker in range(3)],
                      *[("send", rows) for rows in batches[1:]])
        assert {"retract", "correct"} <= {
            w.kind for w in machine.engine.seen["early"]}
        assert sum(machine.engine.front.restarts) >= 1

    def test_rows_a_dead_worker_never_got_go_out_with_the_next_send(self):
        # the stream accepted the batch, so its rows may not be lost
        # when the workers cannot be respawned just then
        want = run_reference()
        eng = PartitionedEngine(partitions=3)
        try:
            eng.execute(DDL)
            sub = eng.execute(CQ)
            eng.ingest("s", BATCHES[0])
            for worker in range(3):
                eng.kill_worker(worker)
            spawn = eng._spawn

            def no_slots(worker):
                raise PartitionError(f"worker {worker}: cannot spawn")
            eng._spawn = no_slots
            with pytest.raises(PartitionError, match="cannot spawn"):
                eng.ingest("s", BATCHES[1])
            eng._spawn = spawn
            for rows in BATCHES[2:]:
                eng.ingest("s", rows)
            eng.flush()
            got = [(w.kind, w.open_time, w.close_time, tuple(w.rows))
                   for w in sub.poll()]
            assert got == want
            assert eng.db.get_stream("s").tuples_in == \
                sum(len(rows) for rows in BATCHES)
        finally:
            eng.close()

    def test_an_inline_crash_ends_its_thread_not_the_process(self):
        # the frame loop returns on the crash and the thread closes its
        # end: the coordinator reads the same EOF a SIGKILL gives
        eng = PartitionedEngine(partitions=2)
        try:
            eng.execute(DDL)
            sub = eng.execute(CQ)
            crashed = eng._handles[0].thread
            eng.arm_fault("partition.worker_crash", worker=0, seed=2009)
            for rows in SPLIT_BATCHES:
                eng.ingest("s", rows)
            eng.flush()
            assert not crashed.is_alive()
            assert eng._handles[0].thread.is_alive()
            assert eng.restarts == [1, 0]
            got = [(w.kind, w.open_time, w.close_time, tuple(w.rows))
                   for w in sub.poll()]
            assert got == run_single(SPLIT_BATCHES)
        finally:
            eng.close()

    def test_ping_restarts_a_killed_worker(self):
        eng = PartitionedEngine(partitions=2)
        try:
            eng.execute(DDL)
            eng.execute(CQ)
            eng.ingest("s", BATCHES[0])
            eng.kill_worker(1)
            assert eng.status_rows()[1][2] == "down"
            assert eng.ping(1)
            assert eng.status_rows()[1][2] == "up"
            assert eng.status_rows()[1][10] == 1
        finally:
            eng.close()


#: BATCHES with both shards of a two-worker ring holding rows from the
#: first window on ("delta" is worker 1's, the other keys worker 0's)
SPLIT_BATCHES = [
    [(1.0, "alpha", 1.0), (2.0, "delta", 2.0), (3.0, "gamma", 3.0)],
] + BATCHES[1:]


def run_single(batches):
    db = Database()
    try:
        db.execute(DDL.replace(" PARTITION BY k", ""))
        sub = db.execute(CQ)
        for rows in batches:
            db.ingest_batch("s", rows)
        db.flush_streams()
        return [(w.kind, w.open_time, w.close_time, tuple(w.rows))
                for w in sub.poll()]
    finally:
        db.close()


def die_at_send(eng):
    eng.kill_worker(1)


def die_between_scatter_and_gather(eng):
    """Worker 1 is killed when worker 0's ack is about to be read:
    every frame of the pump is out, none is answered."""
    first = eng._handles[0]
    collect = first.collect

    def kill_then_collect():
        first.collect = collect
        eng.kill_worker(1)
        return collect()
    first.collect = kill_then_collect


def crash_shipping_a_partial(eng):
    eng.arm_fault("partition.worker_crash", worker=1, seed=2009)


@pytest.mark.parametrize("transport", ["inline", "process"])
@pytest.mark.parametrize("death", [
    die_at_send, die_between_scatter_and_gather, crash_shipping_a_partial])
class TestDeathAroundTheScatter:
    def test_one_respawn_one_log_entry_single_engine_output(
            self, transport, death):
        want = run_single(SPLIT_BATCHES)
        eng = PartitionedEngine(partitions=2, transport=transport)
        try:
            eng.execute(DDL)
            sub = eng.execute(CQ)
            eng.ingest("s", SPLIT_BATCHES[0])
            eng.drain()
            logged = [len(log) for log in eng._logs]
            death(eng)
            # closes boundary 5 on both shards: worker 0's response
            # carries partials too, and is absorbed exactly once
            eng.ingest("s", SPLIT_BATCHES[1])
            eng.drain()
            assert eng.restarts == [0, 1]
            assert [len(log) for log in eng._logs] == \
                [n + 1 for n in logged]
            for rows in SPLIT_BATCHES[2:]:
                eng.ingest("s", rows)
            eng.flush()
            got = [(w.kind, w.open_time, w.close_time, tuple(w.rows))
                   for w in sub.poll()]
            assert got == want               # nothing lost, nothing twice
            assert eng.restarts == [0, 1]
            assert all(r[2] == "up" for r in eng.status_rows())
        finally:
            eng.close()


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_a_death_with_a_batch_in_flight_is_read_by_the_next_ingest(
        transport):
    """An ingest returns with its frames unanswered.  A worker that dies
    then is found by the next ingest, after it has routed its own batch:
    the dead worker is respawned, replayed and sent the unanswered frame
    before the new one goes out, and the output is the single engine's."""
    want = run_single(SPLIT_BATCHES)
    eng = PartitionedEngine(partitions=2, transport=transport)
    try:
        eng.execute(DDL)
        sub = eng.execute(CQ)
        eng.ingest("s", SPLIT_BATCHES[0])
        eng.ingest("s", SPLIT_BATCHES[1])
        eng._handles[1].kill()      # kill_worker would read the acks first
        eng.ingest("s", SPLIT_BATCHES[2])
        assert eng.restarts == [0, 1]
        # batch 2's frame was resent, batch 3's is the one in flight
        assert [entry[0] for entry in eng._logs[1]].count("ingest") == 2
        eng.ingest("s", SPLIT_BATCHES[3])
        eng.flush()
        got = [(w.kind, w.open_time, w.close_time, tuple(w.rows))
               for w in sub.poll()]
        assert got == want
        assert eng.restarts == [0, 1]
    finally:
        eng.close()


def test_the_replay_log_is_pruned_as_of_the_send_not_the_ack():
    """The 64th batch prunes the replay log when its acks are read —
    after the next batch was routed and closed window [60, 70).  Pruned
    by where the boundary operator stands *then*, the log would lose
    that window's rows while the partial closing it is still owed; a
    worker dying before it arrives would rebuild the window empty."""
    tumbling = ("SELECT k, count(*) AS n FROM s "
                "<visible 10 advance 10> GROUP BY k ORDER BY k")
    batches = [[(k + 5.5, "alpha", 1.0), (k + 5.5, "delta", 1.0)]
               for k in range(1, 66)]       # batch 64 at 69.5, 65 at 70.5
    db = Database()
    db.execute(DDL.replace(" PARTITION BY k", ""))
    single = db.execute(tumbling)
    for rows in batches:
        db.ingest_batch("s", rows)
    db.flush_streams()
    want = [(w.close_time, tuple(w.rows)) for w in single.poll()]
    eng = PartitionedEngine(partitions=2)
    try:
        eng.execute(DDL)
        sub = eng.execute(tumbling)
        for rows in batches:
            eng.ingest("s", rows)
        eng._handles[1].kill()      # batch 65, closing [60, 70), unanswered
        eng.flush()
        assert eng.restarts == [0, 1]
        assert [(w.close_time, tuple(w.rows)) for w in sub.poll()] == want
        assert (70.0, (("alpha", 10), ("delta", 10))) in want
    finally:
        eng.close()


class TestPoisonWindowsOfAPartitionizedCQ:
    """Consecutive poison windows are each quarantined and the CQ keeps
    its window state: the windows around them come out as a fault-free
    run would emit them, and a partitionized CQ stays on its workers —
    one ``Database`` and two partitions agree window for window."""

    DDL = ("CREATE STREAM s (k varchar, v integer, ts timestamp "
           "CQTIME USER) PARTITION BY k")
    CQ = ("SELECT k, 10 / (sum(v) - 6) AS r FROM s "
          "<VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY k")
    # a key sums to 6 in the windows closing at 20 (a), 30 (a) and 40 (b)
    BATCHES = [[("a", 3, 1.0), ("b", 2, 4.0)],
               [("a", 3, 12.0), ("b", 2, 14.0)],
               [("a", 3, 22.0), ("b", 3, 24.0)],
               [("a", 1, 32.0), ("b", 3, 34.0)]]

    @pytest.mark.parametrize("partitions", [None, 2],
                             ids=["single", "partitioned"])
    def test_windows_agree(self, partitions):
        db = Database(supervised=True)
        eng = None if partitions is None else PartitionedEngine(
            partitions=partitions, transport="inline", db=db)
        try:
            if eng is None:
                db.execute(self.DDL.replace(" PARTITION BY k", ""))
                sub = db.execute(self.CQ)
                for rows in self.BATCHES:
                    db.ingest_batch("s", rows)
                db.advance_streams(60.0)
            else:
                eng.execute(self.DDL)
                sub = eng.execute(self.CQ)
                for rows in self.BATCHES:
                    eng.ingest("s", rows)
                eng.advance(60.0)
            name = sub.cq.name
            assert [(w.close_time, sorted(w.rows)) for w in sub.poll()] \
                == [(10.0, [("a", 10 / -3), ("b", -2.5)]),
                    (50.0, [("a", -2.0), ("b", 10 / -3)]),
                    (60.0, [])]
            letters = db.query("SELECT source, kind, close_time "
                               "FROM repro_dead_letters").rows
            assert letters == [(name, "poison-window", close)
                               for close in (20.0, 30.0, 40.0)]
            entry = db.supervisor.entry_for(sub.cq)
            assert (entry.failures, entry.state) == (3, "running")
            if eng is not None:
                assert name in eng._pcqs
                assert not eng.explain(name).startswith("partitioned: no")
                assert all(r[2] == "up" for r in eng.status_rows())
        finally:
            if eng is not None:
                eng.close()
