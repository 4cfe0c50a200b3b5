"""Event-time semantics: watermarks, bounded lateness, retractions.

The acceptance bar for the subsystem is *convergence*: a stream fed
shuffled-within-bound input must end up with exactly the same window
results as the ordered run — finals plus retract/correct pairs have to
land downstream state (REPLACE tables, subscriptions) on the ordered
answer.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.errors import ParseError, PlanningError, StreamingError
from repro.eventtime import WatermarkTracker, late_reason
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.render import render_statement
from repro.workloads import OutOfOrderEvents


class TestWatermarkTracker:
    def test_observation_chases_bound(self):
        t = WatermarkTracker(5.0)
        assert t.observe(10.0) == 5.0
        assert t.watermark == 5.0
        assert t.observe(20.0) == 15.0

    def test_monotone_under_reordering(self):
        t = WatermarkTracker(5.0)
        t.observe(20.0)
        assert t.observe(12.0) is None  # older row: no regression
        assert t.watermark == 15.0

    def test_injection_and_regression_ignored(self):
        t = WatermarkTracker(5.0)
        assert t.inject(30.0) == 30.0
        assert t.inject(10.0) is None
        assert t.watermark == 30.0
        assert t.injections == 2

    def test_late_rows_counted(self):
        t = WatermarkTracker(0.0)
        t.observe(10.0)
        t.observe(3.0)
        t.observe(4.0)
        assert t.late_rows == 2
        assert t.is_late(9.9) and not t.is_late(10.0)

    def test_lag(self):
        t = WatermarkTracker(5.0)
        assert t.lag() == 0.0
        t.observe(10.0)
        assert t.lag() == 5.0
        t.inject(10.0)
        assert t.lag() == 0.0

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            WatermarkTracker(-1.0)


class TestOutOfOrderEvents:
    def test_deterministic_from_seed(self):
        times = [float(i) for i in range(50)]
        a = OutOfOrderEvents(5.0, seed=7).arrival_order(times)
        b = OutOfOrderEvents(5.0, seed=7).arrival_order(times)
        assert a == b
        assert sorted(a) == times

    def test_bounded_shuffle_is_never_late(self):
        """delay <= bound guarantees no event lands below a watermark
        with the same out-of-orderness bound."""
        times = [i * 0.5 for i in range(200)]
        shuffled = OutOfOrderEvents(4.0, seed=3).arrival_order(times)
        assert shuffled != times  # it did reorder something
        tracker = WatermarkTracker(4.0)
        for event in shuffled:
            assert not tracker.is_late(event)
            tracker.observe(event)

    def test_stragglers_exceed_bound(self):
        gen = OutOfOrderEvents(2.0, straggler_prob=1.0, tail=1.0, seed=1)
        assert all(gen.delay() >= 2.0 for _ in range(20))

    def test_validation(self):
        with pytest.raises(ValueError):
            OutOfOrderEvents(-1.0)
        with pytest.raises(ValueError):
            OutOfOrderEvents(1.0, straggler_prob=1.5)
        with pytest.raises(ValueError):
            OutOfOrderEvents(1.0, tail=0.0)


class TestEmitGrammar:
    def test_emit_on_watermark(self):
        stmt = parse_statement(
            "SELECT count(*) FROM s <VISIBLE '10 seconds'> "
            "EMIT ON WATERMARK")
        assert stmt.emit == ast.EmitClause("watermark")

    def test_emit_with_lateness_policy(self):
        stmt = parse_statement(
            "SELECT count(*) FROM s <VISIBLE '10 seconds'> "
            "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")
        assert stmt.emit.lateness == 30.0
        assert stmt.emit.late_policy == "retract"

    def test_emit_dead_letter(self):
        stmt = parse_statement(
            "SELECT count(*) FROM s <VISIBLE '10 seconds'> "
            "EMIT ON CHANGE ALLOW LATENESS '5 seconds' DEAD LETTER")
        assert stmt.emit.mode == "change"
        assert stmt.emit.late_policy == "dead_letter"

    def test_emit_every(self):
        stmt = parse_statement(
            "SELECT count(*) FROM s <VISIBLE '1 minute'> "
            "EMIT EVERY '10 seconds'")
        assert stmt.emit == ast.EmitClause("every", every=10.0)

    def test_emit_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT count(*) FROM s <VISIBLE '1 minute'> "
                            "EMIT SOMETIMES")
        with pytest.raises(ParseError):
            parse_statement("SELECT count(*) FROM s <VISIBLE '1 minute'> "
                            "EMIT ON WATERMARK ALLOW LATENESS '5 s' MAYBE")

    def test_create_stream_watermark(self):
        stmt = parse_statement(
            "CREATE STREAM s (v integer, ts timestamp CQTIME USER) "
            "WATERMARK '5 seconds'")
        assert stmt.watermark_bound == 5.0

    @pytest.mark.parametrize("sql", [
        "SELECT count(*) FROM s <VISIBLE '10 seconds'> EMIT ON WATERMARK",
        "SELECT count(*) FROM s <VISIBLE '10 seconds'> EMIT ON CHANGE",
        "SELECT count(*) FROM s <VISIBLE '1 minute'> EMIT EVERY '5 seconds'",
        "SELECT url, count(*) FROM s <VISIBLE '10 seconds'> GROUP BY url "
        "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT",
        "SELECT count(*) FROM s <VISIBLE '10 seconds'> "
        "EMIT ON WATERMARK ALLOW LATENESS '1 minute' DEAD LETTER",
    ])
    def test_render_round_trip(self, sql):
        parsed = parse_statement(sql)
        assert parse_statement(render_statement(parsed)) == parsed


def make_db(**kwargs):
    db = Database(**kwargs)
    db.execute("CREATE STREAM clicks (url varchar(100), "
               "ts timestamp CQTIME USER) WATERMARK '5 seconds'")
    return db


class TestEventTimeDDL:
    def test_watermark_stream_has_tracker(self):
        db = make_db()
        stream = db.runtime.get_stream("clicks")
        assert stream.watermark_bound == 5.0
        assert stream.tracker is not None

    def test_slack_and_watermark_exclusive(self):
        from repro.streaming.streams import BaseStream
        db = make_db()
        schema = db.runtime.get_stream("clicks").schema
        with pytest.raises(StreamingError):
            BaseStream("s", schema, slack=2.0, watermark_bound=5.0)

    def test_engine_default_slack_yields_to_watermark(self):
        # the engine-wide slack default must not block event-time DDL:
        # the stream simply opts out of the reorder buffer
        db = Database(stream_slack=2.0)
        db.execute("CREATE STREAM s (v integer, ts timestamp "
                   "CQTIME USER) WATERMARK '5 seconds'")
        assert db.runtime.get_stream("s").slack == 0.0

    def test_system_time_stream_rejected(self):
        db = Database()
        with pytest.raises(StreamingError):
            db.execute("CREATE STREAM s (v integer, ts timestamp "
                       "CQTIME SYSTEM) WATERMARK '5 seconds'")

    def test_emit_requires_event_time_stream(self):
        db = Database()
        db.execute("CREATE STREAM plain (v integer, "
                   "ts timestamp CQTIME USER)")
        with pytest.raises(PlanningError):
            db.subscribe("SELECT count(*) FROM plain "
                         "<VISIBLE '10 seconds'> EMIT ON WATERMARK")

    def test_emit_requires_window(self):
        db = make_db()
        with pytest.raises(PlanningError):
            db.subscribe("SELECT url FROM clicks EMIT ON WATERMARK")


class TestEventTimeWindows:
    def test_windows_close_on_watermark_not_arrival(self):
        db = make_db()
        sub = db.subscribe("SELECT count(*) FROM clicks "
                           "<VISIBLE '10 seconds'>")
        db.insert_stream("clicks", [("/a", 3.0), ("/b", 12.0)])
        # watermark = 12 - 5 = 7: boundary 10 not passed, nothing closes
        assert sub.poll() == []
        db.insert_stream("clicks", [("/c", 16.0)])
        # watermark = 11: [0, 10) closes with the two rows below 10
        windows = sub.poll()
        assert [(w.close_time, w.rows) for w in windows] == [(10.0, [(1,)])]

    def test_out_of_order_within_bound_assigns_by_event_time(self):
        db = make_db()
        sub = db.subscribe("SELECT count(*) FROM clicks "
                           "<VISIBLE '10 seconds'>")
        # reordered arrivals, all within the 5 s bound
        db.insert_stream("clicks", [
            ("/a", 4.0), ("/b", 8.0), ("/c", 6.0), ("/d", 11.0),
            ("/e", 9.0), ("/f", 17.0)])
        db.flush_streams()
        counts = {w.close_time: w.rows for w in sub.poll()
                  if w.kind == "window"}
        assert counts[10.0] == [(4,)]
        assert counts[20.0] == [(2,)]

    def test_reordered_first_row_does_not_skip_first_window(self):
        # the stream's very first arrival is from the *second* window;
        # the grid must rewind when the older on-time row shows up
        db = make_db()
        sub = db.subscribe("SELECT count(*) FROM clicks "
                           "<VISIBLE '10 seconds'>")
        db.insert_stream("clicks", [("/b", 12.0), ("/a", 9.0)])
        db.insert_stream("clicks", [("/c", 16.0)])
        windows = sub.poll()
        assert [(w.close_time, w.rows) for w in windows] == [(10.0, [(1,)])]

    def test_explicit_injection_closes_windows(self):
        db = make_db()
        sub = db.subscribe("SELECT count(*) FROM clicks "
                           "<VISIBLE '10 seconds'>")
        db.insert_stream("clicks", [("/a", 3.0)])
        assert sub.poll() == []
        final = db.inject_watermark("clicks", 10.0)
        assert final == 10.0
        windows = sub.poll()
        assert [(w.close_time, w.rows) for w in windows] == [(10.0, [(1,)])]

    def test_ingest_ack_carries_watermark(self):
        db = make_db()
        counts = db.ingest_batch("clicks", [("/a", 30.0)])
        assert counts["watermark"] == 25.0
        counts = db.ingest_batch("clicks", [("/b", 31.0)], watermark=40.0)
        assert counts["watermark"] == 40.0

    def test_subscription_windows_carry_watermark(self):
        db = make_db()
        sub = db.subscribe("SELECT count(*) FROM clicks "
                           "<VISIBLE '10 seconds'>")
        db.insert_stream("clicks", [("/a", 3.0), ("/b", 16.0)])
        (window,) = sub.poll()
        assert window.watermark == 11.0

    def test_emit_on_change_emits_early(self):
        db = make_db()
        sub = db.subscribe("SELECT count(*) FROM clicks "
                           "<VISIBLE '10 seconds'> EMIT ON CHANGE")
        db.insert_stream("clicks", [("/a", 3.0), ("/b", 4.0)])
        early = [w for w in sub.poll() if w.kind == "early"]
        assert [w.rows for w in early] == [[(1,)], [(2,)]]
        db.insert_stream("clicks", [("/c", 16.0)])
        kinds = [w.kind for w in sub.poll()]
        assert "window" in kinds  # the final still arrives on watermark

    def test_emit_every_periodic(self):
        db = make_db()
        sub = db.subscribe("SELECT count(*) FROM clicks "
                           "<VISIBLE '100 seconds'> EMIT EVERY '10 seconds'")
        db.insert_stream("clicks",
                         [("/a", float(t)) for t in (1, 2, 3, 12, 13, 24)])
        early = [w for w in sub.poll() if w.kind == "early"]
        # one speculative emission per elapsed period, not per row
        assert len(early) == 3

    def test_explain_shows_emit_and_policy(self):
        db = make_db()
        sub = db.subscribe(
            "SELECT count(*) FROM clicks <VISIBLE '10 seconds'> "
            "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")
        text = sub.cq.explain()
        assert text.startswith("Emit: ON WATERMARK")
        assert "policy retract" in text
        assert "watermark bound 5.0" in text

    def test_explain_statement_round_trip(self):
        db = make_db()
        result = db.query(
            "EXPLAIN SELECT count(*) FROM clicks <VISIBLE '10 seconds'> "
            "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")
        text = "\n".join(r[0] for r in result.rows)
        assert "Emit: ON WATERMARK" in text


class TestLatenessPolicies:
    def test_drop_policy_counts_and_discards(self):
        db = make_db()
        sub = db.subscribe("SELECT count(*) FROM clicks "
                           "<VISIBLE '10 seconds'> EMIT ON WATERMARK "
                           "ALLOW LATENESS '0 seconds' DROP")
        db.insert_stream("clicks", [("/a", 3.0), ("/b", 16.0)])
        db.insert_stream("clicks", [("/late", 5.0)])  # watermark is 11
        db.insert_stream("clicks", [("/c", 26.0)])
        windows = [w for w in sub.poll() if w.kind == "window"]
        # the late row never lands in any window
        assert windows[0].rows == [(1,)]
        tracker = db.runtime.get_stream("clicks").tracker
        assert tracker.late_rows == 1

    def test_dead_letter_policy_structured_reason(self):
        db = make_db(supervised=True)
        db.subscribe("SELECT count(*) FROM clicks "
                     "<VISIBLE '10 seconds'> EMIT ON WATERMARK "
                     "ALLOW LATENESS '0 seconds' DEAD LETTER")
        db.insert_stream("clicks", [("/a", 3.0), ("/b", 16.0)])
        db.insert_stream("clicks", [("/late", 5.0)])
        letters = [l for l in db.supervisor.dead_letter_log
                   if l.kind == "late-event"]
        assert len(letters) == 1
        letter = letters[0]
        assert letter.rows == [("/late", 5.0)]
        # structured key=value shape: kind, event ts, watermark at drop
        assert "late_event:" in letter.reason
        assert "event_time=5.0" in letter.reason
        assert "watermark=11.0" in letter.reason
        assert "lateness=6.0" in letter.reason

    def test_retract_expired_goes_to_dead_letters(self):
        db = make_db(supervised=True)
        db.subscribe("SELECT count(*) FROM clicks "
                     "<VISIBLE '10 seconds'> EMIT ON WATERMARK "
                     "ALLOW LATENESS '2 seconds' RETRACT")
        db.insert_stream("clicks", [("/a", 3.0), ("/b", 30.0)])
        db.insert_stream("clicks", [("/expired", 5.0)])  # 20 s late
        letters = [l for l in db.supervisor.dead_letter_log
                   if l.kind == "late-event"]
        assert len(letters) == 1
        assert "late_event_expired:" in letters[0].reason

    def test_retract_emits_pair_and_converges(self):
        db = make_db()
        sub = db.subscribe(
            "SELECT count(*) FROM clicks <VISIBLE '10 seconds'> "
            "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")
        db.insert_stream("clicks", [("/a", 3.0), ("/b", 16.0)])
        (final,) = sub.poll()
        assert (final.kind, final.close_time, final.rows) == \
            ("window", 10.0, [(1,)])
        db.insert_stream("clicks", [("/late", 5.0)])  # in bound: 6 s late
        pair = sub.poll()
        assert [(w.kind, w.close_time, w.rows) for w in pair] == [
            ("retract", 10.0, [(1,)]),
            ("correct", 10.0, [(2,)]),
        ]

    def test_listen_delivers_what_poll_returns(self):
        # push mode sees the retract / correct pair and the watermark,
        # built by the one construction poll's records come from
        db = make_db()
        sub = db.subscribe(
            "SELECT count(*) FROM clicks <VISIBLE '10 seconds'> "
            "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")
        pushed = []
        sub.listen(pushed.append)
        db.insert_stream("clicks", [("/a", 3.0), ("/b", 16.0)])
        db.insert_stream("clicks", [("/late", 5.0)])  # in bound: 6 s late
        polled = sub.poll()
        assert [w.kind for w in polled] == ["window", "retract", "correct"]
        assert all(w.watermark == 11.0 for w in polled)
        assert pushed == polled

    def test_late_reason_helper(self):
        assert late_reason(5.0, 11.0) == \
            "late_event: event_time=5.0 watermark=11.0 lateness=6.0"
        assert late_reason(5.0, 11.0, expired=True).startswith(
            "late_event_expired:")


class TestChannelConvergence:
    SETUP = [
        "CREATE STREAM clicks (url varchar(100), ts timestamp CQTIME USER) "
        "WATERMARK '5 seconds'",
        "CREATE STREAM counts AS SELECT url, count(*) c FROM clicks "
        "<VISIBLE '10 seconds'> GROUP BY url "
        "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT",
    ]

    def _run(self, mode: str, events):
        db = Database()
        for sql in self.SETUP:
            db.execute(sql)
        db.execute("CREATE TABLE sink_t (url varchar(100), c integer)")
        db.execute(f"CREATE CHANNEL ch FROM counts INTO sink_t {mode}")
        db.insert_stream("clicks", events)
        db.flush_streams()
        rows = sorted(db.query("SELECT url, c FROM sink_t").rows)
        return rows

    ORDERED = [("/a", 1.0), ("/b", 2.0), ("/a", 8.0), ("/b", 12.0),
               ("/a", 15.0), ("/b", 24.0), ("/a", 33.0)]

    def test_replace_converges_under_shuffle(self):
        shuffled = [("/a", 8.0), ("/a", 1.0), ("/b", 2.0), ("/b", 12.0),
                    ("/a", 15.0), ("/b", 24.0), ("/a", 33.0)]
        assert self._run("REPLACE", shuffled) == \
            self._run("REPLACE", self.ORDERED)

    def test_append_retraction_deletes_and_corrects(self):
        # /late lands after its window closed: the archive must end up
        # with the corrected count, not the stale one plus a duplicate
        late = self.ORDERED + [("/late-window-row", 5.0), ("/z", 40.0)]
        ordered = sorted(late, key=lambda e: e[1])
        assert self._run("APPEND", late) == self._run("APPEND", ordered)

    def test_replace_late_row_beyond_latest_window_is_stale(self):
        # a correction for an old slice must not clobber the newest
        # REPLACE contents
        events = self.ORDERED + [("/old", 5.0)]
        rows = self._run("REPLACE", events)
        assert all(url != "/old" for url, _ in rows)


class TestWatermarksView:
    def test_view_reports_event_and_arrival_streams(self):
        db = make_db()
        db.execute("CREATE STREAM plain (v integer, "
                   "ts timestamp CQTIME USER)")
        db.insert_stream("clicks", [("/a", 10.0), ("/b", 20.0)])
        db.insert_stream("clicks", [("/late", 10.0)])
        rows = {r[0]: r for r in db.query(
            "SELECT * FROM repro_watermarks").rows}
        clicks = rows["clicks"]
        assert clicks[1] == "event"
        assert clicks[2] == 5.0          # bound
        assert float(clicks[3]) == 15.0  # watermark
        assert float(clicks[4]) == 20.0  # max event time
        assert clicks[5] == 5.0          # lag
        assert clicks[6] == 1            # late rows
        plain = rows["plain"]
        assert plain[1] == "arrival"
        assert plain[2] is None

    def test_wal_replay_restores_watermark(self, tmp_path):
        from repro.replication import open_database
        wal = str(tmp_path / "wal.log")
        db = open_database(wal_path=wal)
        db.execute("CREATE STREAM s (v integer, ts timestamp CQTIME USER) "
                   "WATERMARK '5 seconds'")
        db.insert_stream("s", [(1, 10.0), (2, 30.0)])
        db.inject_watermark("s", 100.0)
        db.close()  # the WAL is all that survives
        db2 = open_database(wal_path=wal)
        stream = db2.runtime.get_stream("s")
        assert stream.watermark == 100.0
        assert stream.tracker.max_event_time == 30.0
        # and it stays monotone: replayed state accepts new data
        db2.insert_stream("s", [(3, 50.0)])
        assert stream.watermark == 100.0


class TestLiveServerConvergence:
    """The acceptance bar, end to end over the wire: a REPLACE active
    table fed shuffled-within-bound input converges to the ordered
    run's final contents under ``retract``, with the retraction pair
    visible to a live subscriber."""

    DDL = [
        "CREATE STREAM clicks (url varchar(100), ts timestamp "
        "CQTIME USER) WATERMARK '5 seconds'",
        "CREATE STREAM counts AS SELECT url, count(*) c FROM clicks "
        "<VISIBLE '10 seconds'> GROUP BY url "
        "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT",
        "CREATE TABLE board (url varchar(100), c integer)",
        "CREATE CHANNEL ch FROM counts INTO board REPLACE",
    ]

    ORDERED = [("/a", 1.0), ("/a", 5.0), ("/b", 8.0), ("/b", 12.0),
               ("/a", 16.0), ("/b", 24.0), ("/a", 33.0)]

    def _run(self, events, watch=False):
        from repro import client
        from repro.server import ServerThread
        with ServerThread() as st:
            conn = client.connect(st.host, st.port)
            try:
                for sql in self.DDL:
                    conn.execute(sql)
                sub = conn.subscribe("counts") if watch else None
                frames = []
                for row in events:
                    conn.ingest("clicks", [row])
                    if sub is not None:
                        frames.extend(sub.poll(timeout=0.05))
                conn.flush()
                if sub is not None:
                    deadline_polls = 40
                    while deadline_polls > 0:
                        got = sub.poll(timeout=0.1)
                        frames.extend(got)
                        if not got:
                            deadline_polls -= 1
                        else:
                            deadline_polls = 40
                        if any(w.kind == "correct" for w in frames) \
                                and len(frames) >= 4:
                            break
                rows = sorted(conn.query("SELECT url, c FROM board").rows)
                return rows, frames
            finally:
                conn.close()

    def test_replace_table_converges_and_client_sees_retraction(self):
        # the same events, one delivered a full window late (but within
        # the lateness bound): window [0, 10) closes before /b@8 shows
        # up, so the server must retract and correct it live
        shuffled = [("/a", 1.0), ("/a", 5.0), ("/b", 12.0),
                    ("/a", 16.0), ("/b", 8.0), ("/b", 24.0),
                    ("/a", 33.0)]
        reference, _ = self._run(self.ORDERED)
        converged, frames = self._run(shuffled, watch=True)
        assert converged == reference

        kinds = [w.kind for w in frames]
        assert "retract" in kinds and "correct" in kinds
        retract = next(w for w in frames if w.kind == "retract")
        correct = next(w for w in frames if w.kind == "correct")
        # adjacency: the correction directly follows its retraction
        assert kinds.index("correct") == kinds.index("retract") + 1
        assert (retract.open_time, retract.close_time) == \
            (correct.open_time, correct.close_time)
        assert sorted(retract.rows) == [("/a", 2)]
        assert sorted(correct.rows) == [("/a", 2), ("/b", 1)]

    def test_subscription_frames_carry_watermark(self):
        _rows, frames = self._run(self.ORDERED, watch=True)
        finals = [w for w in frames if w.kind == "window"]
        assert finals and all(w.watermark is not None for w in finals)

    def test_remote_ingest_ack_watermark(self):
        from repro import client
        from repro.server import ServerThread
        with ServerThread() as st:
            conn = client.connect(st.host, st.port)
            try:
                conn.execute(self.DDL[0])
                ack = conn.ingest("clicks", [("/a", 30.0)])
                assert ack.watermark == 25.0
                ack = conn.ingest("clicks", [("/b", 31.0)],
                                  watermark=60.0)
                assert ack.watermark == 60.0
                wm = conn.query("SELECT watermark FROM repro_watermarks "
                                "WHERE stream = 'clicks'").scalar()
                assert float(wm) == 60.0
            finally:
                conn.close()


SHUFFLE_EVENTS = st.lists(
    st.floats(min_value=0.0, max_value=120.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40)


class TestShuffleProperty:
    @given(times=SHUFFLE_EVENTS, seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_shuffled_within_bound_matches_ordered(self, times, seed):
        """The tentpole invariant: any within-bound arrival order
        produces byte-identical final window contents to the ordered
        run (finals corrected by retractions included)."""
        ordered = sorted(times)
        shuffled = OutOfOrderEvents(5.0, seed=seed).arrival_order(ordered)
        assert self._final_windows(shuffled) == \
            self._final_windows(ordered)

    def _final_windows(self, events):
        db = make_db()
        sub = db.subscribe(
            "SELECT url, count(*) c FROM clicks <VISIBLE '10 seconds'> "
            "GROUP BY url EMIT ON WATERMARK "
            "ALLOW LATENESS '1 minute' RETRACT")
        db.insert_stream("clicks", [("/k%d" % (int(t) % 3), t)
                                    for t in events])
        db.flush_streams()
        final = {}
        for w in sub.poll():
            if w.kind == "window" or w.kind == "correct":
                final[w.close_time] = sorted(w.rows)
            elif w.kind == "retract":
                pass
        return repr(sorted(final.items()))
