"""Partition subsystem building blocks.

Covers the consistent-hash ring (determinism, spread, spill lane), the
pickle wire framing (dtype-preserving serialization of partial state —
the satellite fix: JSON framing lost numpy dtypes), partial-state
normalization, the iterator-path HashAggregate's mergeable-partial
protocol, partition-plan validation, PARTITION BY DDL, the
coordinator↔worker transport (one write per response, no Nagle stall,
failed spawns reaped), and the ``repro_partitions`` system view +
``\\partitions`` shell command.
"""

import io
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import Database
from repro.cli import Shell
from repro.errors import (
    ParseError,
    PartitionError,
    ProtocolError,
    StreamingError,
)
from repro.partition import HashRing, PartitionedEngine, partition_plan
from repro.partition import wire
from repro.partition.hashring import stable_hash
from repro.partition.state import normalize_partial, normalize_value
from repro.partition.worker import WorkerEngine, serve_frames


# -- hash ring ----------------------------------------------------------------


class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(4)
        b = HashRing(4)
        keys = [f"ip-{i}" for i in range(500)] + list(range(500))
        assert [a.worker_for(k) for k in keys] \
            == [b.worker_for(k) for k in keys]

    def test_stable_hash_ignores_numeric_wrapper(self):
        np = pytest.importorskip("numpy")
        # np.int64(5) and 5 must land on the same worker, or replayed
        # batches (native) would route differently from live (numpy)
        assert stable_hash(np.int64(5)) == stable_hash(5)

    def test_every_worker_gets_a_share(self):
        ring = HashRing(4)
        counts = [0] * 4
        for i in range(4000):
            counts[ring.worker_for(f"key-{i}")] += 1
        assert all(c > 0 for c in counts)
        # consistent hashing with 64 vnodes: no worker should see more
        # than half the keyspace
        assert max(counts) < 2000

    def test_null_key_takes_the_spill_lane(self):
        ring = HashRing(4, spill_worker=2)
        assert ring.worker_for(None) == 2
        assert HashRing(4).worker_for(None) == 0

    def test_scaling_moves_a_minority_of_keys(self):
        # the consistent-hash property: going 4 -> 5 workers remaps
        # roughly 1/5 of keys, not all of them
        a, b = HashRing(4), HashRing(5)
        keys = [f"key-{i}" for i in range(2000)]
        moved = sum(a.worker_for(k) != b.worker_for(k) for k in keys)
        assert moved < len(keys) // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, spill_worker=5)


# -- wire framing -------------------------------------------------------------


def roundtrip(message: dict) -> dict:
    """One message through the frame encoding and back."""
    return wire.decode_body(wire.encode_frame(message)[4:])


class TestWire:
    def test_roundtrip_preserves_tuples_and_none(self):
        msg = {"op": "ingest", "segments": [("rows", [(1.0, None, "x")],
                                            None), ("wm", 5.0)]}
        back = roundtrip(msg)
        assert back == msg
        assert isinstance(back["segments"][0][1][0], tuple)

    def test_numpy_scalars_cross_only_normalized(self):
        # a numpy scalar pickles as a global (numpy's reconstructor) and
        # the wire refuses every global: partials are normalized first
        np = pytest.importorskip("numpy")
        partial = {("k",): [np.int64(3), np.float64(2.5)]}
        with pytest.raises(ProtocolError, match="global"):
            roundtrip({"groups": partial})
        back = roundtrip({"groups": normalize_partial(partial)})
        assert back["groups"] == {("k",): [3, 2.5]}
        assert type(back["groups"][("k",)][0]) is int

    def test_numpy_cells_are_native_before_they_are_routed(self):
        # the two numpy scalars coercion lets through subclass float and
        # str; the schema makes them exact, so the routed rows are data
        np = pytest.importorskip("numpy")
        with PartitionedEngine(partitions=2) as eng:
            eng.execute("CREATE STREAM s (t DOUBLE CQTIME, k TEXT, "
                        "v DOUBLE) PARTITION BY k")
            sub = eng.execute("SELECT k, sum(v) AS total FROM s "
                              "<visible 10 advance 10> GROUP BY k")
            eng.ingest("s", [(np.float64(1.0), np.str_("a"),
                              np.float64(2.0)), (2.0, "b", 3.0)])
            eng.flush()
            (window,) = sub.poll()
            assert sorted(window.rows) == [("a", 2.0), ("b", 3.0)]
            assert {type(cell) for row in window.rows for cell in row} \
                == {str, float}

    def test_a_frame_naming_a_global_is_refused_and_runs_nothing(self,
                                                                 tmp_path):
        target = tmp_path / "ran"

        class Evil:
            def __reduce__(self):
                return (open, (str(target), "w"))

        body = pickle.dumps({"op": "ping", "x": Evil()})
        with pytest.raises(ProtocolError, match="global"):
            wire.decode_body(body)
        assert not target.exists()
        # sets, tuples, None, bools, big ints, bytes-free text: plain data
        msg = {"a": {1, 2}, "b": (None, True, 2 ** 70, "é"), "c": [1.5]}
        assert roundtrip(msg) == msg

    def test_oversize_frame_refused(self):
        with pytest.raises(ProtocolError):
            wire.encode_frame({"blob": b"x" * (wire.MAX_FRAME_BYTES + 1)})

    def test_non_dict_body_refused(self):
        body = pickle.dumps([1, 2, 3])
        with pytest.raises(ProtocolError):
            wire.decode_body(body)

    def test_frame_layout_is_length_prefixed(self):
        data = wire.encode_frame({"a": 1})
        length = int.from_bytes(data[:4], "big")
        assert len(data) == 4 + length


# -- partial-state normalization ---------------------------------------------


class TestStateNormalization:
    def test_numpy_scalars_become_native(self):
        np = pytest.importorskip("numpy")
        partial = {(np.int64(1), "k"): [np.float64(2.5), np.int64(7),
                                        (np.int64(1), np.int64(2))]}
        out = normalize_partial(partial)
        ((key, states),) = out.items()
        assert key == (1, "k")
        assert all(type(k) in (int, str) for k in key)
        assert type(states[0]) is float and type(states[1]) is int
        assert all(type(v) is int for v in states[2])

    def test_pickle_roundtrip_after_normalize_is_pure_python(self):
        np = pytest.importorskip("numpy")
        partial = normalize_partial({(np.str_("a"),): [np.int64(3)]})
        back = pickle.loads(pickle.dumps(partial))
        ((key, states),) = back.items()
        assert type(key[0]) is str and type(states[0]) is int

    def test_idempotent_and_cheap_on_native(self):
        partial = {("a", 1): [2, 3.5, None, [1, 2]]}
        assert normalize_partial(partial) == partial
        assert normalize_value("x") == "x"


# -- HashAggregate mergeable partials ----------------------------------------


class TestHashAggregatePartials:
    def _agg_cq(self, db):
        db.execute("CREATE STREAM s (t DOUBLE CQTIME, k TEXT, v DOUBLE)")
        sub = db.execute(
            "SELECT k, count(*) AS n, sum(v) AS total, avg(v) AS mean "
            "FROM s <visible 10 advance 10> GROUP BY k")
        cq = sub.cq
        assert not cq.vectorized        # iterator path
        return sub, cq, partition_plan(cq).agg

    def test_split_accumulate_merge_matches_single_run(self):
        db = Database()
        db.runtime.vectorize = False
        sub, cq, agg = self._agg_cq(db)
        rows = [(float(t), f"k{t % 3}", float(t)) for t in range(9)]
        halves = []
        for shard in (rows[:4], rows[4:]):
            cq._batches[0] = list(shard)
            try:
                halves.append(agg.accumulate({}))
            finally:
                cq._batches[0] = []
        merged = agg.finalize(agg.merge_partials(halves))

        cq._batches[0] = list(rows)
        try:
            whole = agg.finalize(agg.accumulate({}))
        finally:
            cq._batches[0] = []
        assert sorted(merged) == sorted(whole)

    def test_merge_does_not_mutate_inputs(self):
        db = Database()
        db.runtime.vectorize = False
        sub, cq, agg = self._agg_cq(db)
        cq._batches[0] = [(1.0, "a", 2.0)]
        try:
            part = agg.accumulate({})
        finally:
            cq._batches[0] = []
        snapshot = pickle.dumps(part)
        agg.merge_partials([part, part])
        agg.merge_partials([part, {}])
        assert pickle.dumps(part) == snapshot

    def test_empty_scalar_partial_finalizes_to_zero_row(self):
        db = Database()
        db.runtime.vectorize = False
        db.execute("CREATE STREAM s (t DOUBLE CQTIME, v DOUBLE)")
        sub = db.execute(
            "SELECT count(*) AS n FROM s <visible 10 advance 10>")
        agg = partition_plan(sub.cq).agg
        assert agg.finalize(agg.merge_partials([{}, {}])) == [(0,)]

    def test_set_merged_pins_rows(self):
        db = Database()
        db.runtime.vectorize = False
        sub, cq, agg = self._agg_cq(db)
        pinned = [("a", 1, 2.0, 2.0)]
        agg.set_merged(pinned)
        try:
            assert list(agg.rows({})) == pinned
        finally:
            agg.set_merged(None)

    def test_partials_survive_wire_roundtrip(self):
        db = Database()
        db.runtime.vectorize = False
        sub, cq, agg = self._agg_cq(db)
        cq._batches[0] = [(1.0, "a", 2.0), (2.0, "b", 3.0)]
        try:
            part = agg.accumulate({})
        finally:
            cq._batches[0] = []
        shipped = roundtrip({"groups": normalize_partial(part)})
        merged = agg.finalize(agg.merge_partials([shipped["groups"]]))
        cq._batches[0] = [(1.0, "a", 2.0), (2.0, "b", 3.0)]
        try:
            direct = agg.finalize(agg.accumulate({}))
        finally:
            cq._batches[0] = []
        assert sorted(merged) == sorted(direct)


# -- plan validation ----------------------------------------------------------


class TestPartitionPlanValidation:
    def _db(self):
        db = Database()
        db.execute("CREATE STREAM s (t DOUBLE CQTIME, k TEXT, v DOUBLE)")
        return db

    def test_happy_path_finds_the_aggregate(self):
        db = self._db()
        sub = db.execute("SELECT k, count(*) AS n FROM s "
                         "<visible 10 advance 5> GROUP BY k")
        split = partition_plan(sub.cq)
        assert split.stream_name == "s"
        assert hasattr(split.agg, "merge_partials")

    def test_unbounded_window_rejected(self):
        db = self._db()
        sub = db.execute("SELECT count(*) AS n FROM s "
                         "<visible unbounded advance 5>")
        with pytest.raises(PartitionError, match="UNBOUNDED"):
            partition_plan(sub.cq)

    def test_windowless_select_rejected(self):
        db = self._db()
        db.execute("CREATE TABLE plain (a INTEGER)")
        result = db.execute("SELECT a FROM plain")
        with pytest.raises(PartitionError):
            partition_plan(result)

    def test_no_aggregate_rejected(self):
        db = self._db()
        sub = db.execute("SELECT k, v FROM s <visible 10 advance 10>")
        with pytest.raises(PartitionError, match="aggregation"):
            partition_plan(sub.cq)

    def test_join_rejected(self):
        db = self._db()
        db.execute("CREATE STREAM s2 (t DOUBLE CQTIME, k TEXT)")
        sub = db.execute(
            "SELECT count(*) AS n FROM s <visible 10 advance 10> "
            "JOIN s2 <visible 10 advance 10> ON s.k = s2.k")
        with pytest.raises(PartitionError, match="join"):
            partition_plan(sub.cq)

    def test_emit_on_change_rejected(self):
        db = Database()
        db.execute("CREATE STREAM s (t DOUBLE CQTIME, k TEXT, v DOUBLE) "
                   "WATERMARK '2 seconds'")
        sub = db.execute("SELECT count(*) AS n FROM s "
                         "<visible 10 advance 10> EMIT ON CHANGE")
        with pytest.raises(PartitionError, match="EMIT"):
            partition_plan(sub.cq)


# -- DDL + engine surface -----------------------------------------------------


class TestPartitionByDDL:
    def test_parse_and_register(self):
        db = Database()
        db.execute("CREATE STREAM s (t DOUBLE CQTIME, k TEXT) "
                   "PARTITION BY k")
        assert db.get_stream("s").partition_by == "k"

    def test_unknown_key_column_rejected(self):
        db = Database()
        with pytest.raises(StreamingError, match="PARTITION BY"):
            db.execute("CREATE STREAM s (t DOUBLE CQTIME, k TEXT) "
                       "PARTITION BY missing")

    def test_partition_by_survives_dump_and_restore(self, tmp_path):
        # the durability story is the WAL: PARTITION BY and WATERMARK
        # ride the stream's ddl_obj record through a reopen
        from repro.replication.bootstrap import open_database
        wal_path = str(tmp_path / "wal")
        db = open_database(wal_path=wal_path)
        db.execute("CREATE STREAM s (k TEXT, ts TIMESTAMP CQTIME USER) "
                   "WATERMARK '4 seconds' PARTITION BY k")
        db.storage.wal.close()
        reopened = open_database(wal_path=wal_path)
        stream = reopened.get_stream("s")
        assert stream.partition_by == "k"
        assert stream.watermark_bound == 4.0
        assert stream.schema.names() == ["k", "ts"]
        assert stream.cqtime_mode == "user"

    def test_parse_error_without_column(self):
        db = Database()
        with pytest.raises(ParseError):
            db.execute("CREATE STREAM s (t DOUBLE CQTIME) PARTITION BY")


class TestEngineSurface:
    def test_unpartitioned_streams_pass_through(self):
        eng = PartitionedEngine(partitions=2)
        eng.execute("CREATE STREAM plain (t DOUBLE CQTIME, v DOUBLE)")
        sub = eng.execute("SELECT count(*) AS n FROM plain "
                          "<visible 10 advance 10>")
        eng.ingest("plain", [(1.0, 2.0), (12.0, 3.0)])
        eng.flush()
        results = sub.poll()
        assert [sorted(w.rows) for w in results] == [[(1,)], [(1,)]]
        eng.close()

    def test_null_keys_spill_and_are_counted(self):
        eng = PartitionedEngine(partitions=3)
        eng.execute("CREATE STREAM s (t DOUBLE CQTIME, k TEXT, v DOUBLE) "
                    "PARTITION BY k")
        sub = eng.execute("SELECT count(*) AS n FROM s "
                          "<visible 10 advance 10>")
        eng.ingest("s", [(1.0, None, 1.0), (2.0, "a", 2.0),
                         (3.0, None, 3.0)])
        eng.flush()
        assert [w.rows for w in sub.poll()] == [[(3,)]]
        rows = eng.status_rows()
        assert sum(r[7] for r in rows) == 2          # spill_rows
        assert rows[0][7] == 2                       # on the spill worker
        eng.close()

    def test_explain_carries_per_partition_sections(self):
        eng = PartitionedEngine(partitions=2)
        eng.execute("CREATE STREAM s (t DOUBLE CQTIME, k TEXT, v DOUBLE) "
                    "PARTITION BY k")
        eng.execute("SELECT k, count(*) AS n FROM s "
                    "<visible 10 advance 10> GROUP BY k")
        eng.ingest("s", [(float(t), f"k{t}", 1.0) for t in range(25)])
        text = eng.explain("cq_1", analyze=True)
        assert "-- partition worker 0 --" in text
        assert "-- partition worker 1 --" in text
        eng.close()


# -- the coordinator's stream is real: what composes, what still refuses ------

#: same column order for the arrival-time and the event-time stream, so
#: one row shape serves both
ROWS_DDL = ("CREATE STREAM s (k TEXT, v DOUBLE, ts TIMESTAMP CQTIME USER) "
            "PARTITION BY k")
EVENT_DDL = ROWS_DDL.replace(" PARTITION", " WATERMARK '2 seconds' PARTITION")
SIDE_DDL = "CREATE STREAM s2 (k TEXT, ts TIMESTAMP CQTIME USER)"
MERGED_CQ = ("SELECT k, count(*) AS n, sum(v) AS total FROM s "
             "<visible 2 advance 2> GROUP BY k ORDER BY k")
BATCHES = [
    [("a", 1.0, 0.5), ("b", 2.0, 1.0), ("c", 3.0, 1.5)],
    [("a", 4.0, 2.5), ("d", 5.0, 3.0)],
    [("b", 6.0, 4.5), ("a", 7.0, 5.0), ("c", 8.0, 7.5)],
]


def engines(ddl=ROWS_DDL, **options):
    """One ``Database`` and one 2-partition inline engine with the same
    options and the same streams."""
    single = Database(**options)
    single.execute(ddl.replace(" PARTITION BY k", ""))
    single.execute(SIDE_DDL)
    eng = PartitionedEngine(partitions=2, db=Database(**options))
    eng.execute(ddl)
    eng.execute(SIDE_DDL)
    return single, eng


def feed(single, eng, batches=BATCHES, side=True):
    for rows in batches:
        assert single.ingest_batch("s", rows) == eng.ingest("s", rows)
        if side:
            rows = [(k, ts) for k, _v, ts in rows]
            assert single.ingest_batch("s2", rows) == eng.ingest("s2", rows)
    single.flush_streams()
    eng.flush()


def windows(sub):
    return [(w.kind, w.open_time, w.close_time, tuple(w.rows))
            for w in sub.poll()]


class TestCoordinatorStreamIsReal:
    @pytest.mark.parametrize("policy", ["raise", "drop"])
    def test_out_of_order_batch_matches_one_database(self, policy):
        from repro.errors import OutOfOrderError
        single, eng = engines(disorder_policy=policy)
        subs = [single.subscribe(MERGED_CQ), eng.execute(MERGED_CQ)]
        bad = [("a", 1.0, 3.0), ("b", 2.0, 0.5)]
        outcomes = []
        for ingest in (single.ingest_batch, eng.ingest):
            ingest("s", [("a", 1.0, 1.0)])
            try:
                outcomes.append(ingest("s", bad))
            except OutOfOrderError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if policy == "drop":
            assert outcomes[1]["dropped"] == 1
        theirs, ours = single.get_stream("s"), eng.db.get_stream("s")
        assert (ours.watermark, ours.tuples_in, ours.tuples_dropped) \
            == (theirs.watermark, theirs.tuples_in, theirs.tuples_dropped)
        assert (ours.watermark, ours.tuples_in) == (3.0, 2)
        # the row before the offender went out to its worker ...
        assert sum(row[5] for row in eng.status_rows()) == 2
        assert all(row[8] == 3.0 for row in eng.status_rows())
        # ... and the stream goes on where one Database's does
        for ingest in (single.ingest_batch, eng.ingest):
            assert ingest("s", [("b", 4.0, 3.5)])["accepted"] == 1
        single.flush_streams()
        eng.flush()
        want = windows(subs[0])
        assert windows(subs[1]) == want
        assert ("window", 2.0, 4.0, (("a", 1, 1.0), ("b", 1, 4.0))) in want
        eng.close()

    def test_uncoercible_value_raises_the_single_engine_error(self):
        single, eng = engines()
        eng.execute(MERGED_CQ)
        errors = []
        for ingest in (single.ingest_batch, eng.ingest):
            with pytest.raises(Exception) as info:
                ingest("s", [("a", "not a number", 1.0)])
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert not issubclass(errors[1][0], PartitionError)
        assert sum(row[5] for row in eng.status_rows()) == 0
        eng.close()

    @pytest.mark.parametrize("ddl, sql, reason", [
        (ROWS_DDL, "SELECT k, v FROM s WHERE v > 2", "time window"),
        (ROWS_DDL, "SELECT count(*) AS n FROM s <visible 2 advance 2> "
                   "JOIN s2 <visible 2 advance 2> ON s.k = s2.k", "join"),
        (ROWS_DDL, "SELECT count(*) AS n FROM s "
                   "<visible unbounded advance 2>", "UNBOUNDED"),
        (EVENT_DDL, "SELECT k, count(*) AS n FROM s <visible 2 advance 2> "
                    "GROUP BY k EMIT ON CHANGE ORDER BY k", "EMIT"),
    ], ids=["windowless", "join", "unbounded", "emit-on-change"])
    def test_unpartitionable_cq_runs_on_the_coordinator(self, ddl, sql,
                                                        reason):
        single, eng = engines(ddl)
        want = [single.subscribe(MERGED_CQ), single.subscribe(sql)]
        got = [eng.execute(MERGED_CQ), eng.execute(sql)]
        feed(single, eng)
        assert windows(got[1]) == windows(want[1])
        assert windows(got[0]) == windows(want[0])
        assert got[1].cq.stats.windows_evaluated > 0
        # the split CQ has per-worker sections, the other says why not
        assert "-- partition worker 0 --" in eng.explain(got[0].cq.name)
        text = eng.explain(got[1].cq.name)
        assert text.startswith("partitioned: no (") and reason in text
        via_sql = eng.execute(f"EXPLAIN {got[1].cq.name}").rows
        assert via_sql[0][0] == text.split("\n")[0]
        eng.close()

    def test_derived_stream_cq_and_channel_over_a_partitioned_stream(self):
        script = [
            "CREATE STREAM d AS SELECT k, count(*) AS n, cq_close(*) "
            "FROM s <visible 2 advance 2> GROUP BY k",
            "CREATE TABLE arch (k TEXT, n BIGINT, stime TIMESTAMP)",
            "CREATE CHANNEL ch FROM d INTO arch APPEND",
        ]
        single, eng = engines()
        for statement in script:
            single.execute(statement)
            eng.execute(statement)
        over_d = "SELECT k, n FROM d WHERE n > 0"
        want = [single.subscribe(MERGED_CQ), single.subscribe(over_d)]
        got = [eng.execute(MERGED_CQ), eng.execute(over_d)]
        feed(single, eng)
        assert windows(got[0]) == windows(want[0])
        assert windows(got[1]) == windows(want[1])
        rows = sorted(eng.db.table_rows("arch"))
        assert rows == sorted(single.table_rows("arch")) and rows
        assert eng.explain("d").startswith("partitioned: no (")
        eng.close()

    def test_replay_since_returns_the_routed_rows(self):
        single, eng = engines(stream_retention=100.0)
        eng.execute(MERGED_CQ)
        feed(single, eng)
        replayed = list(eng.db.get_stream("s").replay_since(0.0))
        assert replayed == list(single.get_stream("s").replay_since(0.0))
        assert [row for _when, row in replayed] \
            == [row for batch in BATCHES for row in batch]
        eng.close()

    def test_late_row_is_dead_lettered_once(self):
        sql = ("SELECT k, count(*) AS n FROM s <visible 2 advance 2> "
               "GROUP BY k EMIT ON WATERMARK ALLOW LATENESS '0 seconds' "
               "DEAD LETTER ORDER BY k")
        single, eng = engines(EVENT_DDL, supervised=True)
        subs = [single.subscribe(sql), eng.execute(sql)]
        late = [[("a", 1.0, 1.0)], [("b", 1.0, 9.0)], [("c", 1.0, 2.0)]]
        feed(single, eng, late, side=False)
        assert windows(subs[1]) == windows(subs[0])
        for db in (single, eng.db):
            letters = db.query(
                "SELECT source, kind, rowcount FROM repro_dead_letters").rows
            assert letters == [(subs[0].cq.name, "late-event", 1)]
            assert db.query("SELECT value FROM repro_metrics WHERE "
                            "name = 'eventtime.late_rows'").scalar() == 1
        eng.close()

    def test_stream_counters_equal_the_single_engine(self):
        single, eng = engines(disorder_policy="drop")
        single.subscribe(MERGED_CQ)
        eng.execute(MERGED_CQ)
        feed(single, eng, BATCHES + [[("a", 1.0, 0.25), ("b", 1.0, 9.0)]],
             side=False)
        view = "SELECT * FROM repro_streams WHERE name = 's'"
        assert eng.query(view).rows == single.query(view).rows
        assert eng.query(view).rows[0][2:4] == (9, 1)
        eng.close()

    def test_slack_and_partition_by_still_refuse(self):
        eng = PartitionedEngine(partitions=2,
                                db=Database(stream_slack=5.0))
        with pytest.raises(PartitionError, match="SLACK"):
            eng.execute(ROWS_DDL)
        eng.close()

    def test_worker_side_failure_raises_and_leaves_no_cq(self):
        eng = PartitionedEngine(partitions=2)
        eng.execute(ROWS_DDL)
        # worker 1 loses the stream behind the coordinator's back
        eng._handles[1].engine.db.execute("DROP STREAM s")
        with pytest.raises(PartitionError, match="worker 1"):
            eng.execute(MERGED_CQ)
        assert not eng.db.runtime.cqs()
        assert not eng._handles[0].engine._cqs
        eng.close()


class TestDropAndRecreate:
    """``DROP STREAM`` of a routed stream takes its router, its CQs'
    merge stages and its replayable frames with it, on the workers too:
    the name is free again, and a respawn replays the drop."""

    FIRST = [("a", 1.0, 0.5), ("b", 2.0, 1.0), ("c", 3.0, 2.5)]
    SECOND = [("a", 4.0, 0.7), ("d", 5.0, 1.0), ("b", 6.0, 3.5)]

    def drive(self, execute, ingest, advance, between=lambda: None):
        execute(ROWS_DDL)
        old = execute(MERGED_CQ)
        ingest("s", self.FIRST)
        execute("DROP STREAM s")
        execute(ROWS_DDL)
        new = execute(MERGED_CQ)
        between()
        ingest("s", self.SECOND)
        advance(10.0)
        return windows(old), windows(new)

    def single(self):
        db = Database()
        return self.drive(
            lambda sql: db.subscribe(sql) if sql.startswith("SELECT")
            else db.execute(sql.replace(" PARTITION BY k", "")),
            db.ingest_batch, db.advance_streams)

    @pytest.mark.parametrize("kill", [False, True],
                             ids=["inline", "after-kill_worker"])
    def test_recreated_stream_routes_like_one_database(self, kill):
        want = self.single()
        assert len(want[1]) == 5 and want[1][0][3]      # windows, with rows
        eng = PartitionedEngine(partitions=2)
        got = self.drive(
            eng.execute, eng.ingest, eng.advance,
            (lambda: eng.kill_worker(1)) if kill else (lambda: None))
        assert got == want
        assert eng.restarts == [0, int(kill)]
        # the old incarnation left nothing behind to replay or to merge
        assert len(eng._routes) == 1 and len(eng._pcqs) == 1
        for log in eng._logs:
            assert [kind for kind, _msg, _t in log].count("cq") == 1
        eng.close()

    def test_drop_by_another_spelling_and_of_a_broadcast_view(self):
        eng = PartitionedEngine(partitions=2)
        eng.execute(ROWS_DDL.replace("STREAM s", "STREAM Mixed"))
        eng.execute("CREATE VIEW big AS SELECT k FROM Mixed WHERE v > 1")
        eng.execute("DROP VIEW big")
        eng.execute("DROP STREAM mixed")
        assert not eng._routes and not eng._broadcast_names
        for handle in eng._handles:
            catalog = handle.engine.db.catalog
            assert not catalog.has_relation("mixed")
            assert not catalog.has_relation("big")
        eng.close()


class TestReplayLogStaysBounded:
    def test_a_thousand_ingest_flush_rounds(self):
        """One ``flush`` entry per ``flush()`` and one ``cq``/``stopcq``
        pair per closed subscription used to stay for the engine's
        life."""
        single = Database()
        single.execute(ROWS_DDL.replace(" PARTITION BY k", ""))
        eng = PartitionedEngine(partitions=2)
        eng.execute(ROWS_DDL)
        subs = [single.subscribe(MERGED_CQ), eng.execute(MERGED_CQ)]

        def rows(i):
            return [(k, float(i), i + 0.25 * j)
                    for j, k in enumerate("abcd")]
        longest = 0
        for i in range(1000):
            single.ingest_batch("s", rows(i))
            single.flush_streams()
            eng.ingest("s", rows(i))
            eng.flush()
            if i % 100 == 0:
                # a subscription that comes and goes leaves no entries
                eng.execute(MERGED_CQ).close()
                eng.advance(float(i))
            longest = max(longest, max(len(log) for log in eng._logs))
        assert longest < 300
        kinds = [kind for kind, _msg, _t in eng._logs[0]]
        assert kinds.count("cq") == 1 and "stopcq" not in kinds
        # and a respawn from the pruned log is still invisible
        eng.kill_worker(0)
        for i in range(1000, 1010):
            single.ingest_batch("s", rows(i))
            eng.ingest("s", rows(i))
        single.flush_streams()
        eng.flush()
        assert eng.restarts == [1, 0]
        got = windows(subs[1])
        assert got == windows(subs[0]) and len(got) > 500
        eng.close()


# -- transport: one write per response, no stall, no leaked child ------------


class _RecordingSocket:
    """Serves ``recv`` from canned bytes and records every ``sendall``."""

    def __init__(self, data: bytes = b""):
        self._incoming = io.BytesIO(data)
        self.writes = []

    def recv(self, n):
        return self._incoming.read(n)

    def sendall(self, data):
        self.writes.append(bytes(data))


def frames_in(data: bytes) -> list:
    reader = _RecordingSocket(data)
    frames = []
    while reader._incoming.tell() < len(data):
        frames.append(wire.recv_frame(reader))
    return frames


class TestTransport:
    DDL = ("CREATE STREAM s (t DOUBLE CQTIME, k TEXT, v DOUBLE) "
           "PARTITION BY k")
    CQ = ("SELECT k, count(*) AS n FROM s <visible 10 advance 5> "
          "GROUP BY k ORDER BY k")

    def test_a_response_is_one_write_however_many_partials_ride_it(self):
        rows = [(float(t), "a", 1.0) for t in range(1, 26)]
        requests = [
            {"op": "ddl", "sql": self.DDL},
            {"op": "cq", "name": "one", "sql": self.CQ},
            {"op": "cq", "name": "two", "sql": self.CQ},
            {"op": "ingest", "stream": "s",
             "segments": [("rows", rows, None)]},
            {"op": "ping"},
            {"op": "stop"},
        ]
        sock = _RecordingSocket(
            b"".join(wire.encode_frame(msg) for msg in requests))
        assert serve_frames(WorkerEngine(0), sock) == 0
        assert len(sock.writes) == len(requests)
        kinds = [[frame["type"] for frame in frames_in(write)]
                 for write in sock.writes]
        # five boundaries closed under two CQs: ten partials, then
        # the ack, in the one write that answers the ingest frame
        assert kinds[3] == ["partial"] * 10 + ["ack"]
        assert all(k == ["ack"] for k in kinds[:3] + kinds[4:])

    def test_send_frames_keeps_order_in_a_single_sendall(self):
        sock = _RecordingSocket()
        wire.send_frames(sock, [{"n": 1}, {"n": 2}, {"n": 3}])
        assert len(sock.writes) == 1
        assert [f["n"] for f in frames_in(sock.writes[0])] == [1, 2, 3]

    def test_every_frame_is_sent_before_any_ack_is_read(self):
        eng = PartitionedEngine(partitions=3)
        eng.execute(self.DDL)
        eng.execute(self.CQ)
        calls = []
        for handle in eng._handles:
            for name in ("send", "collect"):
                def spy(*args, _call=getattr(handle, name),
                        _what=(name, handle.worker_id)):
                    calls.append(_what)
                    return _call(*args)
                setattr(handle, name, spy)
        eng.ingest("s", [(float(t), f"k{t}", 1.0) for t in range(12)])
        eng.flush()
        scatter_gather = [(op, w) for op in ("send", "collect")
                          for w in range(3)]
        assert calls == scatter_gather * 2      # the ingest, the flush
        eng.close()

    def test_coordinator_sockets_have_nagle_off(self):
        with PartitionedEngine(partitions=2, transport="process") as eng:
            for handle in eng._handles:
                assert handle.sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1

    def test_window_closing_round_trips_do_not_stall(self):
        # a response written as partial-then-ack used to wait out the
        # coordinator's delayed ACK, ~40 ms per worker per round trip:
        # 40 of them could not finish under 1.6 s; unstalled they take
        # ~0.1 s, so the bound is a stall detector, not a speed floor
        with PartitionedEngine(partitions=2, transport="process") as eng:
            eng.execute(self.DDL)
            sub = eng.execute(self.CQ)
            eng.ingest("s", [(1.0, "a", 1.0), (2.0, "b", 1.0)])
            started = time.perf_counter()
            for i in range(1, 41):
                eng.ingest("s", [(10.0 * i, "a", 1.0),
                                 (10.0 * i + 1.0, "b", 1.0)])
            elapsed = time.perf_counter() - started
            assert len(sub.poll()) >= 40
            assert elapsed < 0.8

    def test_stray_connection_is_refused_undecoded_and_spawn_succeeds(
            self, tmp_path):
        # any local process can reach the loopback listener and wait in
        # its backlog for the next (re)spawn's accept: what it sent must
        # never be unpickled, and the real worker must still get in
        target = tmp_path / "ran"

        class Evil:
            def __reduce__(self):
                return (open, (str(target), "w"))

        with PartitionedEngine(partitions=2, transport="process") as eng:
            eng.execute(self.DDL)
            sub = eng.execute(self.CQ)
            eng.ingest("s", [(1.0, "a", 1.0), (2.0, "b", 1.0)])
            stray = socket.create_connection((eng._host, eng._port))
            stray.sendall(wire.encode_frame(
                {"type": "hello", "worker": 0, "nonce": "0" * 32,
                 "payload": Evil()}))
            eng.kill_worker(0)
            assert eng.ping(0)
            assert eng.restarts[0] == 1
            assert not target.exists()
            stray.settimeout(5)
            try:
                assert stray.recv(1) == b""     # hung up on, unanswered
            except ConnectionError:
                pass
            stray.close()
            eng.ingest("s", [(11.0, "a", 1.0), (12.0, "b", 1.0)])
            # the windows closing at 5 and at 10, replayed shard included
            assert [tuple(w.rows) for w in sub.poll()] == \
                [(("a", 1), ("b", 1))] * 2

    def test_a_silent_stray_does_not_hold_up_a_respawn(self):
        # any local process can park a connection that sends nothing:
        # it must not hold the accept, or the respawn fails after
        # spawn_timeout
        with PartitionedEngine(partitions=2, transport="process",
                               spawn_timeout=3.0) as eng:
            stray = socket.create_connection((eng._host, eng._port))
            try:
                started = time.perf_counter()
                eng.kill_worker(0)
                assert eng.ping(0)
                assert time.perf_counter() - started < 1.5
                assert eng.restarts[0] == 1
                # still silent when the worker got in: closed, unanswered
                stray.settimeout(5)
                try:
                    assert stray.recv(1) == b""
                except ConnectionError:
                    pass
            finally:
                stray.close()

    @pytest.mark.parametrize("sabotage, error, fates", [
        (lambda argv: [sys.executable, "-c", "import time; time.sleep(60)"],
         "did not connect back", (-signal.SIGKILL,)),
        # a refused connection is closed and the listener keeps waiting
        # for the real worker: the impostor reads EOF and exits on its
        # own, unless the deadline's kill gets there first
        (lambda argv: argv[:-1] + ["0" * 32], "bad hello",
         (0, -signal.SIGKILL)),
    ], ids=["never-connects", "wrong-nonce"])
    def test_failed_spawn_leaves_no_child_behind(self, monkeypatch,
                                                 sabotage, error, fates):
        spawned = []
        popen = subprocess.Popen

        def second_worker_is_broken(argv, **kwargs):
            proc = popen(sabotage(argv) if spawned else argv, **kwargs)
            spawned.append(proc)
            return proc

        monkeypatch.setattr(subprocess, "Popen", second_worker_is_broken)
        with pytest.raises(PartitionError, match=error):
            PartitionedEngine(partitions=2, transport="process",
                              spawn_timeout=1.5)
        # reaped (wait() set a return code), not left as zombies: the
        # broken child killed, the healthy one stopped with the engine
        healthy, broken = [proc.returncode for proc in spawned]
        assert healthy == 0 and broken in fates


def worker_threads(before) -> list:
    """The live inline-worker threads started since ``before``."""
    return sorted((t for t in threading.enumerate() if t not in before
                   and t.name.startswith("repro-partition-worker-")),
                  key=lambda t: t.name)


class TestInlineWorkerThreads:
    """An inline worker is a thread serving the subprocess's frame loop
    over a socketpair: its life is the socket's."""

    def test_kill_ends_the_thread_ping_respawns_close_ends_them_all(self):
        before = set(threading.enumerate())
        eng = PartitionedEngine(partitions=2)
        try:
            first, second = worker_threads(before)
            assert (first.name, second.name) == (
                "repro-partition-worker-0", "repro-partition-worker-1")
            eng.kill_worker(0)
            assert not first.is_alive() and second.is_alive()
            assert eng.status_rows()[0][2] == "down"
            assert eng.ping(0)
            assert eng.restarts == [1, 0]
            respawned, _second = worker_threads(before)
            assert respawned.name == first.name and respawned is not first
        finally:
            eng.close()
        assert worker_threads(before) == []

    def test_every_frame_crosses_the_socket_into_serve_frames(
            self, monkeypatch):
        readers = []
        recv_frame = wire.recv_frame

        def counted(sock):
            readers.append(threading.current_thread().name)
            return recv_frame(sock)
        monkeypatch.setattr(wire, "recv_frame", counted)
        with PartitionedEngine(partitions=2) as eng:
            eng.execute(TestTransport.DDL)
            sub = eng.execute(TestTransport.CQ)
            eng.ingest("s", [(1.0, "a", 1.0), (12.0, "b", 1.0)])
            assert sub.poll()
        # ddl, cq, ingest and stop, each read by both workers' loops
        assert readers.count("repro-partition-worker-0") >= 4
        assert readers.count("repro-partition-worker-1") >= 4


# -- repro_partitions view + shell command ------------------------------------


class TestPartitionsView:
    def test_view_empty_without_coordinator(self):
        db = Database()
        assert db.query("SELECT * FROM repro_partitions").rows == []

    def test_view_reports_workers(self):
        eng = PartitionedEngine(partitions=2)
        eng.execute("CREATE STREAM s (t DOUBLE CQTIME, k TEXT, v DOUBLE) "
                    "PARTITION BY k")
        eng.execute("SELECT k, count(*) AS n FROM s "
                    "<visible 10 advance 10> GROUP BY k")
        eng.ingest("s", [(float(t), f"k{t}", 1.0) for t in range(20)])
        rows = eng.query(
            "SELECT worker, state, transport, streams, rows_routed, "
            "restarts FROM repro_partitions ORDER BY worker").rows
        assert [r[0] for r in rows] == [0, 1]
        assert all(r[1] == "up" and r[2] == "inline" for r in rows)
        assert sum(r[4] for r in rows) == 20
        assert all(r[3] == 1 and r[5] == 0 for r in rows)
        eng.close()

    def test_view_watermark_and_lag(self):
        eng = PartitionedEngine(partitions=2)
        eng.execute("CREATE STREAM s (t DOUBLE CQTIME, k TEXT) "
                    "PARTITION BY k")
        eng.execute("SELECT k, count(*) AS n FROM s "
                    "<visible 10 advance 10> GROUP BY k")
        eng.ingest("s", [(float(t), f"k{t}", ) for t in range(5)])
        rows = eng.query("SELECT watermark, lag_seconds "
                         "FROM repro_partitions").rows
        # the trailing sync brings every worker to the global clock
        assert all(r[0] == 4.0 and r[1] == 0.0 for r in rows)
        eng.close()

    def test_shell_partitions_command(self):
        out = io.StringIO()
        shell = Shell(out=out)
        shell.run(iter(["\\partitions"]))
        assert "not a partition coordinator" in out.getvalue()

        eng = PartitionedEngine(partitions=2)
        out = io.StringIO()
        shell = Shell(db=eng.db, out=out)
        shell.run(iter(["\\partitions"]))
        text = out.getvalue()
        assert "worker" in text and "inline" in text
        eng.close()

    def test_view_tells_worker_time_from_hop_time(self):
        eng = PartitionedEngine(partitions=2)
        eng.execute("CREATE STREAM s (t DOUBLE CQTIME, k TEXT) "
                    "PARTITION BY k")
        eng.execute("SELECT k, count(*) AS n FROM s "
                    "<visible 10 advance 10> GROUP BY k")
        eng.ingest("s", [(float(t), f"k{t}") for t in range(40)])
        rows = eng.query("SELECT worker, busy_seconds, wait_seconds "
                         "FROM repro_partitions ORDER BY worker").rows
        assert all(busy > 0.0 and wait > 0.0 for _w, busy, wait in rows)
        # appended at the end: positional readers of the row keep working
        status = eng.status_rows()
        assert [row[-2:] for row in status] == [row[1:] for row in rows]
        assert sum(row[5] for row in status) == 40      # rows_routed
        out = io.StringIO()
        Shell(db=eng.db, out=out).run(iter(["\\partitions"]))
        assert "busy_seconds" in out.getvalue()
        assert "wait_seconds" in out.getvalue()
        eng.close()

    def test_restart_counters_surface_in_view(self):
        eng = PartitionedEngine(partitions=2)
        eng.execute("CREATE STREAM s (t DOUBLE CQTIME, k TEXT) "
                    "PARTITION BY k")
        eng.execute("SELECT k, count(*) AS n FROM s "
                    "<visible 10 advance 10> GROUP BY k")
        eng.ingest("s", [(1.0, "a"), (2.0, "b"), (3.0, "c"), (4.0, "d")])
        eng.kill_worker(1)
        eng.ingest("s", [(5.0, "a"), (6.0, "b")])
        rows = eng.query("SELECT worker, restarts, replayed_batches "
                         "FROM repro_partitions ORDER BY worker").rows
        assert rows[0][1] == 0
        assert rows[1][1] == 1 and rows[1][2] >= 1
        eng.close()


# -- server integration -------------------------------------------------------


class TestServerPartitions:
    """``repro-server --partitions N``: the wire protocol's execute,
    ingest, advance and flush ops all route through the partition
    coordinator, and the merged CQ output over TCP matches a single
    unpartitioned engine bit for bit."""

    DDL = ("CREATE STREAM s (t DOUBLE CQTIME, k TEXT, v DOUBLE) "
           "PARTITION BY k")
    CQ = ("SELECT k, count(*) AS n, sum(v) AS total FROM s "
          "<visible 10 advance 5> GROUP BY k ORDER BY k")
    ROWS = [(float(t), k, float(t * 2)) for t, k in
            zip(range(1, 13), ["a", "b", "c", "d"] * 3)]

    def _reference(self):
        db = Database()
        db.execute(self.DDL.replace(" PARTITION BY k", ""))
        sub = db.subscribe(self.CQ)
        db.ingest_batch("s", self.ROWS)
        db.advance_streams(30.0)
        out = [(w.kind, w.open_time, w.close_time, tuple(w.rows))
               for w in sub.poll()]
        db.close()
        return out

    def test_partitioned_server_end_to_end(self):
        from repro import client
        from repro.server import ServerThread

        expected = self._reference()
        assert expected, "reference run produced no windows"
        with ServerThread(partitions=2) as st:
            conn = client.connect(st.host, st.port)
            feeder = client.connect(st.host, st.port)
            try:
                conn.execute(self.DDL)
                sub = conn.execute(self.CQ)
                accepted = feeder.ingest("s", self.ROWS)
                assert accepted == len(self.ROWS)
                feeder.advance(30.0)
                windows = sub.wait_windows(len(expected), timeout=10.0)
                got = [(w.kind, w.open_time, w.close_time, tuple(w.rows))
                       for w in windows]
                assert got == expected
                # the coordinator's worker fleet is visible over the wire
                rows = conn.query(
                    "SELECT worker, state, transport "
                    "FROM repro_partitions ORDER BY worker").rows
                assert [(r[0], r[1], r[2]) for r in rows] == \
                    [(0, "up", "process"), (1, "up", "process")]
            finally:
                feeder.close()
                conn.close()

    def test_partitioned_server_flush_op(self):
        from repro import client
        from repro.server import ServerThread

        with ServerThread(partitions=2) as st:
            with client.connect(st.host, st.port) as conn:
                conn.execute(self.DDL)
                sub = conn.execute(self.CQ)
                conn.ingest("s", self.ROWS[:4])
                # flush must drain the worker shards, not just the
                # coordinator's local (empty) stream buffers
                conn.flush()
                windows = sub.wait_windows(1, timeout=10.0)
                total = sum(row[1] for w in windows for row in w.rows)
                assert total >= 4

    def test_init_script_goes_through_the_router(self):
        """``--partitions`` + ``--init``: a PARTITION BY stream the
        script creates gets its route, so a CQ over it is partitionized
        (run on the bare database it got neither — silently)."""
        from repro import client
        from repro.server import ServerThread

        with ServerThread(partitions=2) as st:
            server = st.server
            server.executor.submit(
                server.run_script,
                f"-- init\n{self.DDL};\nCREATE TABLE t (note TEXT);\n"
                "INSERT INTO t VALUES ('a;b');").result(10.0)
            assert list(server.partition_engine._routes) == ["s"]
            with client.connect(st.host, st.port) as conn:
                assert conn.query("SELECT note FROM t").rows == [("a;b",)]
                sub = conn.execute(self.CQ)
                text = server.executor.submit(
                    server.partition_engine.explain, sub.name).result(10.0)
                assert "-- partition worker 1 --" in text
                assert "partitioned: no" not in text

    def test_partitions_refused_with_standby(self):
        from repro.server import TruSQLServer

        with pytest.raises(ValueError, match="standby"):
            TruSQLServer(partitions=2, standby_of="127.0.0.1:1")

    def test_partitions_refused_with_a_data_dir(self, tmp_path, capsys):
        """The server refuses what ``--partitions --data-dir`` refuses
        (it used to boot, and the log replay bypassed the router); the
        CLI reports the server's refusal as a usage error."""
        from repro.server import TruSQLServer, main

        with pytest.raises(ValueError, match="data dir"):
            TruSQLServer(data_dir=str(tmp_path), partitions=2)
        assert not os.listdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(["--port", "0", "--partitions", "2",
                  "--data-dir", str(tmp_path)])
        assert exited.value.code == 2
        assert "data dir" in capsys.readouterr().err

    def test_sql_insert_routes_to_workers(self):
        """INSERT INTO a partitioned stream must route like ingest():
        the local twin is silent, so rows delivered to it would vanish
        from every partitionized CQ."""
        eng = PartitionedEngine(partitions=2)
        try:
            eng.execute(self.DDL)
            sub = eng.execute(self.CQ)
            result = eng.execute(
                "INSERT INTO s VALUES "
                "(1.0, 'a', 2.0), (2.0, 'b', 4.0), (3.0, NULL, 8.0)")
            assert result.rowcount == 3
            eng.flush()
            windows = sub.poll()
            # overlapping windows (visible 10, advance 5): each of the
            # 3 rows is visible in two closed windows
            total = sum(row[1] for w in windows for row in w.rows)
            assert total == 6
            routed = eng.query(
                "SELECT sum(rows_routed) FROM repro_partitions").rows
            assert routed[0][0] == 3
        finally:
            eng.close()
