"""Parity: partitioned execution must be bit-identical to one engine.

The hard requirement of the partition subsystem is that splitting a CQ
across N workers is *invisible* in the output: for partition counts
1..4, a shuffled keyed input produces exactly the same window sequence
— boundaries, kinds (final / retract / correct), and rows — as the
plain single-process engine fed the identical batches.

Two granularities of "identical":

* **exact sequence** — `(kind, open, close, rows)` tuples compared in
  order.  Used whenever SQL pins the row order (``ORDER BY`` in the
  CQ) or only one worker contributes (partition count 1, single
  group).
* **canonical sequence** — rows sorted within each window.  Without
  ``ORDER BY``, intra-window row order is an implementation detail
  (the single engine yields groups in global first-seen order, the
  merge stage in worker order), so parity is per-window multiset
  equality plus identical boundaries and kinds.

Aggregate values stay integral so float addition order cannot manufacture
spurious diffs; every comparison below is therefore exact equality.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.partition import PartitionedEngine

KEYS = ["alpha", "beta", "gamma", "delta"]

ARRIVAL_DDL = ("CREATE STREAM s (t DOUBLE CQTIME, k TEXT, v DOUBLE) "
               "PARTITION BY k")
EVENT_DDL = ("CREATE STREAM s (k TEXT, v DOUBLE, ts TIMESTAMP CQTIME USER) "
             "WATERMARK '4 seconds' PARTITION BY k")

GROUPED_CQ = ("SELECT k, count(*) AS n, sum(v) AS total, min(v) AS lo, "
              "max(v) AS hi FROM s <visible 10 advance 5> "
              "GROUP BY k ORDER BY k")
EVENT_CQ = ("SELECT k, count(*) AS n, sum(v) AS total "
            "FROM s <visible 10 advance 5> GROUP BY k "
            "EMIT ON WATERMARK ORDER BY k")
RETRACT_CQ = ("SELECT k, count(*) AS n, sum(v) AS total "
              "FROM s <visible 10 advance 5> GROUP BY k "
              "EMIT ON WATERMARK ALLOW LATENESS '6 seconds' RETRACT "
              "ORDER BY k")


def exact(sub):
    return [(w.kind, w.open_time, w.close_time, tuple(w.rows))
            for w in sub.poll()]


def canonical(sub):
    return [(w.kind, w.open_time, w.close_time, tuple(sorted(w.rows)))
            for w in sub.poll()]


def run_single(ddl, cq_sql, batches, collect=exact, vectorize=True):
    db = Database()
    db.runtime.vectorize = vectorize
    db.execute(ddl.replace(" PARTITION BY k", ""))
    sub = db.execute(cq_sql)
    for rows in batches:
        db.ingest_batch("s", rows)
    db.flush_streams()
    out = collect(sub)
    sub.close()
    return out


def run_partitioned(n, ddl, cq_sql, batches, collect=exact, vectorize=True):
    eng = PartitionedEngine(partitions=n)
    try:
        eng.db.runtime.vectorize = vectorize
        eng.execute(ddl)
        sub = eng.execute(cq_sql)
        for rows in batches:
            eng.ingest("s", rows)
        eng.flush()
        return collect(sub)
    finally:
        eng.close()


def split_batches(rows, size):
    return [rows[i:i + size] for i in range(0, len(rows), size)]


arrival_rows = st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(KEYS),
              st.integers(-5, 5)),
    min_size=1, max_size=36,
).map(lambda rs: [(float(t), k, float(v)) for t, k, v in sorted(
    rs, key=lambda r: r[0])])

# event-time rows arrive in the drawn (shuffled) order; the ts column
# is last per the DDL and rows more than the watermark bound behind the
# maximum seen so far are late
event_rows = st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(KEYS),
              st.integers(-5, 5)),
    min_size=1, max_size=30,
).map(lambda rs: [(k, float(v), float(t)) for t, k, v in rs])


class TestArrivalParity:
    @pytest.mark.parametrize("vectorize", [True, False],
                             ids=["sliced", "iterator"])
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=arrival_rows, batch=st.integers(1, 7))
    def test_shuffled_keys_all_partition_counts(self, rows, batch,
                                                vectorize):
        batches = split_batches(rows, batch)
        want = run_single(ARRIVAL_DDL, GROUPED_CQ, batches,
                          vectorize=vectorize)
        for n in (1, 2, 3, 4):
            got = run_partitioned(n, ARRIVAL_DDL, GROUPED_CQ, batches,
                                  vectorize=vectorize)
            assert got == want, f"partitions={n}"

    def test_single_partition_is_bit_identical_without_order_by(self):
        # with one worker the merge stage sees one partial, so even the
        # unspecified group order matches the single engine exactly
        cq = ("SELECT k, count(*) AS n FROM s <visible 10 advance 10> "
              "GROUP BY k")
        rows = [(float(t), KEYS[t % 3], 1.0) for t in range(24)]
        batches = split_batches(rows, 5)
        assert run_partitioned(1, ARRIVAL_DDL, cq, batches) == \
            run_single(ARRIVAL_DDL, cq, batches)

    def test_without_order_by_windows_match_as_multisets(self):
        # interleaving forces different first-seen orders per worker;
        # boundaries and row multisets must still agree
        cq = ("SELECT k, count(*) AS n FROM s <visible 10 advance 5> "
              "GROUP BY k")
        rows = [(float(t), KEYS[(t * 7) % 4], 1.0) for t in range(40)]
        batches = split_batches(rows, 6)
        want = run_single(ARRIVAL_DDL, cq, batches, collect=canonical)
        for n in (2, 3, 4):
            got = run_partitioned(n, ARRIVAL_DDL, cq, batches,
                                  collect=canonical)
            assert got == want, f"partitions={n}"

    def test_null_keys_spill_lane_parity(self):
        # NULL partition keys ride the spill lane on worker 0; a global
        # aggregate must count them exactly like the single engine
        cq = "SELECT count(*) AS n FROM s <visible 10 advance 10>"
        rows = [(float(t), None if t % 3 == 0 else KEYS[t % 4], 1.0)
                for t in range(30)]
        batches = split_batches(rows, 4)
        want = run_single(ARRIVAL_DDL, cq, batches)
        for n in (1, 2, 3):
            assert run_partitioned(n, ARRIVAL_DDL, cq, batches) == want


    def test_two_same_key_cqs_share_a_store_on_every_worker(self):
        # sharing composes with partitioning: the two CQs differ only in
        # VISIBLE, so each worker's pair reads one slice store — and the
        # merged output of each still matches the single engine's
        cqs = [GROUPED_CQ, GROUPED_CQ.replace("visible 10", "visible 20")]
        rows = [(float(t), KEYS[(t * 7) % 4], float(t % 5))
                for t in range(60)]
        batches = split_batches(rows, 6)

        db = Database()
        db.execute(ARRIVAL_DDL.replace(" PARTITION BY k", ""))
        subs = [db.execute(sql) for sql in cqs]
        for batch in batches:
            db.ingest_batch("s", batch)
        db.flush_streams()
        want = [exact(sub) for sub in subs]
        assert all(sub.cq.shared for sub in subs)

        eng = PartitionedEngine(partitions=2, transport="inline")
        try:
            eng.execute(ARRIVAL_DDL)
            subs = [eng.execute(sql) for sql in cqs]
            for batch in batches:
                eng.ingest("s", batch)
            eng.flush()
            assert [exact(sub) for sub in subs] == want
            for handle in eng._handles:
                (store,) = handle.engine.db.get_stream("s").slice_stores
                assert len(store.readers) == 2
        finally:
            eng.close()


class TestEventTimeParity:
    @pytest.mark.parametrize("vectorize", [True, False],
                             ids=["sliced", "iterator"])
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=event_rows, batch=st.integers(1, 6))
    def test_drop_policy_exact_sequence(self, rows, batch, vectorize):
        # default lateness policy: rows below the watermark vanish; the
        # router syncs the pre-row watermark to the owning worker so
        # each worker makes the identical late/on-time call
        batches = split_batches(rows, batch)
        want = run_single(EVENT_DDL, EVENT_CQ, batches,
                          vectorize=vectorize)
        for n in (1, 2, 3, 4):
            got = run_partitioned(n, EVENT_DDL, EVENT_CQ, batches,
                                  vectorize=vectorize)
            assert got == want, f"partitions={n}"

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=event_rows)
    def test_retract_correct_pairs_exact_at_batch_one(self, rows):
        # row-at-a-time ingest pins the retract/correct interleaving:
        # every late row's pair lands at the same position in both runs
        batches = split_batches(rows, 1)
        want = run_single(EVENT_DDL, RETRACT_CQ, batches)
        kinds = {kind for kind, _o, _c, _r in want}
        for n in (1, 2, 3, 4):
            got = run_partitioned(n, EVENT_DDL, RETRACT_CQ, batches)
            assert got == want, f"partitions={n}"
        # the property is vacuous if no example ever retracts; the
        # deterministic test below guarantees pair coverage
        assert kinds <= {"window", "retract", "correct"}

    def test_retract_pairs_actually_exercised(self):
        # deterministic straggler: a row 6 seconds behind the watermark
        # reopens two overlapping windows in both engines
        batches = [
            [("alpha", 1.0, 1.0), ("beta", 1.0, 3.0)],
            [("alpha", 1.0, 14.0)],            # watermark -> 10
            [("beta", 2.0, 6.0)],              # late: reopens [0,10)
            [("alpha", 1.0, 26.0)],
        ]
        batches = [row for batch in batches for row in
                   split_batches(batch, 1)]
        want = run_single(EVENT_DDL, RETRACT_CQ, batches)
        assert {"retract", "correct"} <= {k for k, _o, _c, _r in want}
        for n in (1, 2, 3, 4):
            got = run_partitioned(n, EVENT_DDL, RETRACT_CQ, batches)
            assert got == want, f"partitions={n}"

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=event_rows, batch=st.integers(2, 6))
    def test_retract_converged_state_at_any_batch_size(self, rows, batch):
        # multi-row batches may interleave corrections differently
        # (frame granularity), but the *converged* account of every
        # window — last final or correct per boundary, minus retracted
        # ones — must be identical
        batches = split_batches(rows, batch)
        want = converged(run_single(EVENT_DDL, RETRACT_CQ, batches))
        for n in (1, 2, 3, 4):
            got = converged(
                run_partitioned(n, EVENT_DDL, RETRACT_CQ, batches))
            assert got == want, f"partitions={n}"

    def test_retract_late_row_for_a_window_its_own_frame_closes(self):
        # one frame carries a late row for a window the same frame
        # closes: a single engine converges (-5, 5] to
        # (('alpha', 2, 0.0),), every partition count to ()
        prop = type(self).test_retract_converged_state_at_any_batch_size
        prop.hypothesis.inner_test(
            self, rows=[("alpha", 0.0, 0.0), ("alpha", 0.0, 9.0),
                        ("alpha", 0.0, 0.0), ("alpha", 0.0, 20.0)],
            batch=4)


def converged(sequence):
    """Final state per window boundary after replaying the sequence."""
    state = {}
    for kind, open_time, close_time, rows in sequence:
        if kind == "retract":
            continue                    # its paired correct follows
        state[(open_time, close_time)] = rows
    return state


# -- a poison window is the CQ's, in every topology ---------------------------
#
# A window whose evaluation raises reaches its CQ the same way everywhere:
# through the window operator's callbacks, which the supervisor guards.  So
# the partitioned engine must do what one supervised Database does — dead-
# letter that window on the CQ, ack every batch, emit every later window —
# whether the error is raised by the post-aggregate plan on the coordinator
# (case A) or by a shard's reduction on a worker (case B), and whether the
# window is closing or being re-opened by a late row.

POISON_DDL = ("CREATE STREAM s (k varchar, v integer, ts timestamp "
              "CQTIME USER) PARTITION BY k")
WINDOW = "<VISIBLE '10 seconds' ADVANCE '10 seconds'>"
POISON = {
    # 10 / (sum(v) - 6): key a sums to 6 in the first window
    "A-plan-above-the-aggregate": (
        f"SELECT k, 10 / (sum(v) - 6) AS r FROM s {WINDOW} GROUP BY k",
        [[("a", 1, 1.0), ("a", 5, 3.0), ("b", 2, 4.0)],
         [("a", 2, 12.0), ("b", 2, 14.0)],
         [("a", 3, 22.0), ("b", 3, 24.0)]]),
    # sum(10 / v): a zero in the first window, under the aggregate
    "B-reduction-on-a-worker": (
        f"SELECT k, sum(10 / v) AS r FROM s {WINDOW} GROUP BY k",
        [[("a", 1, 1.0), ("a", 0, 3.0), ("b", 2, 4.0)],
         [("a", 2, 12.0), ("b", 2, 14.0)],
         [("a", 3, 22.0), ("b", 3, 24.0)]]),
}


def dead_letters(db):
    return db.query("SELECT source, kind FROM repro_dead_letters").rows


def drive(engine, db, ingest, advance, ddl, cq_sql, batches, until):
    """Feed one engine; returns (windows, dead letters, acks, raised)."""
    engine.execute(ddl)
    sub = engine.execute(cq_sql)
    acks, raised = [], []
    for step, rows in enumerate(batches):
        try:
            acks.append(ingest("s", rows)["accepted"])
        except Exception as exc:            # noqa: BLE001 — reported
            raised.append((step, type(exc).__name__, str(exc)))
    try:
        advance(until)
    except Exception as exc:                # noqa: BLE001 — reported
        raised.append(("advance", type(exc).__name__, str(exc)))
    letters = dead_letters(db) if db.supervisor is not None else None
    return canonical(sub), letters, acks, raised


def poison_single(ddl, cq_sql, batches, until=40.0, supervised=True):
    db = Database(supervised=supervised)
    return drive(db, db, db.ingest_batch, db.advance_streams,
                 ddl.replace(" PARTITION BY k", ""), cq_sql, batches, until)


def poison_partitioned(transport, ddl, cq_sql, batches, until=40.0,
                       supervised=True, vectorize=True):
    eng = PartitionedEngine(partitions=2, transport=transport,
                            db=Database(supervised=supervised,
                                        vectorize=vectorize))
    try:
        return drive(eng, eng.db, eng.ingest, eng.advance, ddl, cq_sql,
                     batches, until)
    finally:
        eng.close()


class TestPoisonWindowParity:
    @pytest.mark.parametrize("transport", ["inline", "process"])
    @pytest.mark.parametrize("case", sorted(POISON))
    def test_supervised_equals_one_supervised_database(self, case,
                                                       transport):
        cq_sql, batches = POISON[case]
        want = poison_single(POISON_DDL, cq_sql, batches)
        windows, letters, acks, raised = want
        # the spec itself: window 10 quarantined, 20 / 30 / 40 emitted
        assert [close for _k, _o, close, _r in windows] == [20.0, 30.0, 40.0]
        assert letters == [("cq_1", "poison-window")]
        assert acks == [3, 2, 2] and raised == []
        assert poison_partitioned(transport, POISON_DDL, cq_sql,
                                  batches) == want

    @pytest.mark.parametrize("case", sorted(POISON))
    def test_iterator_gear_too(self, case):
        # HashAggregate workers ship the window reduced from its rows
        cq_sql, batches = POISON[case]
        got = poison_partitioned("inline", POISON_DDL, cq_sql, batches,
                                 vectorize=False)
        assert got == poison_single(POISON_DDL, cq_sql, batches)

    @pytest.mark.parametrize("case", sorted(POISON))
    def test_unsupervised_error_is_raised_once_and_nothing_wedges(self,
                                                                  case):
        cq_sql, batches = POISON[case]
        windows, _letters, acks, raised = poison_partitioned(
            "inline", POISON_DDL, cq_sql, batches, supervised=False)
        # batch 2 closed window 10 and batch 3's call reads its acks and
        # merges it: that caller gets the error, once; nobody else does
        # and every later window is out
        assert [(step, name) for step, name, _msg in raised] == \
            [(2, "ExecutionError")]
        assert "division by zero" in raised[0][2]
        assert acks == [3, 2]
        # ... holding what the supervised run emits: the raising close
        # cost the coordinator's stream no row (one unsupervised Database
        # loses the batch whose first row closed the window)
        assert windows == poison_single(POISON_DDL, cq_sql, batches)[0]

    def test_poison_reopened_window_is_a_poison_window_on_the_cq(self):
        # a late row makes sum(v) 6 in a window that already closed: the
        # re-open evaluates the same plan and is guarded like a close
        ddl = POISON_DDL.replace(" PARTITION", " WATERMARK '2 seconds' "
                                 "PARTITION")
        cq_sql = (f"SELECT k, 10 / (sum(v) - 6) AS r FROM s {WINDOW} "
                  "GROUP BY k EMIT ON WATERMARK "
                  "ALLOW LATENESS '30 seconds' RETRACT")
        batches = [[("a", 1, 1.0), ("b", 2, 4.0)],
                   [("a", 2, 13.0)],            # watermark 11: 10 closes
                   [("a", 5, 3.0)],             # late: re-opens 10, a = 6
                   [("a", 3, 22.0), ("b", 3, 24.0)]]
        want = poison_single(ddl, cq_sql, batches)
        windows, letters, acks, raised = want
        assert letters == [("cq_1", "poison-window")]
        assert acks == [2, 1, 1, 2] and raised == []
        assert [kind for kind, _o, _c, _r in windows] == ["window"] * 4
        for transport in ("inline", "process"):
            assert poison_partitioned(transport, ddl, cq_sql,
                                      batches) == want
        # the single engine counts it on the CQ, not against the stream
        db = Database(supervised=True)
        db.execute(ddl.replace(" PARTITION BY k", ""))
        sub = db.execute(cq_sql)
        for rows in batches:
            db.ingest_batch("s", rows)
        status = {row[0]: row for row in db.supervisor.status_rows()}
        assert status["s"][2] == "running" and status["s"][3] == 0
        assert status[sub.cq.name][3] == 1
