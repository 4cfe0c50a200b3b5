"""End-to-end property test: the whole CQ pipeline against a naive oracle.

Hypothesis generates random event streams and window extents; the oracle
computes every window's grouped counts by brute force (scan all events
per boundary).  The engine — window operator, planner, executor, and the
slice store shared by same-key CQs — must agree exactly.
"""

import math

from hypothesis import given, settings, strategies as st

from repro import Database

KEYS = ["a", "b", "c"]

events_strategy = st.lists(
    st.tuples(st.sampled_from(KEYS),
              st.integers(min_value=0, max_value=600)),
    min_size=1, max_size=80,
).map(lambda evs: sorted(evs, key=lambda e: e[1]))

extents_strategy = st.sampled_from([
    (60.0, 60.0), (120.0, 60.0), (300.0, 60.0), (90.0, 30.0), (30.0, 30.0),
])


def oracle(events, visible, advance, end_time):
    """All (close, {key: count}) windows per RSTREAM semantics."""
    first = events[0][1]
    base = math.floor(first / advance) * advance
    out = []
    k = 1
    while base + k * advance <= end_time:
        close = base + k * advance
        counts = {}
        for key, t in events:
            if close - visible <= t < close:
                counts[key] = counts.get(key, 0) + 1
        out.append((close, counts))
        k += 1
    return out


DDL = "CREATE STREAM s (k varchar(5), ts timestamp CQTIME USER)"


def cq_sql(visible, advance):
    return (f"SELECT k, count(*) FROM s <VISIBLE {visible} "
            f"ADVANCE {advance}> GROUP BY k")


def run_engine(events, extents, end_time, ddl=DDL, join_after=None):
    """One CQ per (visible, advance) in ``extents`` over one stream:
    same-key CQs, so they read one slice store when their grids agree.
    With ``join_after`` the last CQ subscribes only after that many
    events.  Returns each CQ's windows and the subscriptions."""
    db = Database()
    db.execute(ddl)
    rows = [(key, float(t)) for key, t in events]
    cut = 0 if join_after is None else join_after
    subs = [db.subscribe(cq_sql(*e)) for e in extents[:-1]]
    db.insert_stream("s", rows[:cut])
    subs.append(db.subscribe(cq_sql(*extents[-1])))
    db.insert_stream("s", rows[cut:])
    db.advance_streams(end_time)
    return [[(w.close_time, dict(w.rows)) for w in sub.poll()]
            for sub in subs], subs


@settings(max_examples=50, deadline=None)
@given(events_strategy, extents_strategy)
def test_generic_path_matches_oracle(events, extents):
    visible, advance = extents
    end_time = float(events[-1][1]) + visible + advance
    expected = oracle(events, visible, advance, end_time)
    (actual,), _subs = run_engine(events, [extents], end_time)
    assert actual == expected


@settings(max_examples=50, deadline=None)
@given(events_strategy, extents_strategy, extents_strategy)
def test_shared_path_matches_oracle(events, first, second):
    """Two same-key CQs (one store when the second's extents fit the
    first's slice grid, two otherwise): each matches its own oracle."""
    end_time = float(events[-1][1]) + max(first[0] + first[1],
                                          second[0] + second[1])
    actual, _subs = run_engine(events, [first, second], end_time)
    assert actual == [oracle(events, *first, end_time),
                      oracle(events, *second, end_time)]


@settings(max_examples=50, deadline=None)
@given(events_strategy, extents_strategy, extents_strategy, st.data())
def test_reader_attached_mid_stream_matches_oracle(events, first, second,
                                                   data):
    """A CQ that subscribes part-way (mid-slice, usually) sees exactly
    the events after it joined — never a slice partial an earlier reader
    reduced from rows it did not buffer."""
    cut = data.draw(st.integers(min_value=0, max_value=len(events) - 1))
    end_time = float(events[-1][1]) + max(first[0] + first[1],
                                          second[0] + second[1])
    actual, _subs = run_engine(events, [first, second], end_time,
                               join_after=cut)
    assert actual == [oracle(events, *first, end_time),
                      oracle(events[cut:], *second, end_time)]


# (visible, advance, seconds per event-time tick): a hopping window with
# a gap, extents whose gcd is neither of them, decimal extents, and the
# cumulative window.  Boundaries k * 0.1 are not exact floats, and an
# event within 1e-9 slices of an edge belongs to the slice it opens —
# which the oracle's float compare cannot say — so the decimal case puts
# its events half a tick off every edge.
EDGE_EXTENTS = [(1.0, 5.0, 1.0), (7.0, 3.0, 1.0), (0.3, 0.1, 0.01),
                (math.inf, 60.0, 1.0)]


@settings(max_examples=40, deadline=None)
@given(events_strategy, st.sampled_from(EDGE_EXTENTS))
def test_gapped_uneven_and_unbounded_extents_match_oracle(events, case):
    """The same oracle in both gears: the batch executor (sliced where
    the window is finite) and the iterator engine."""
    visible, advance, tick = case
    events = [(key, (t + 0.5) * tick) for key, t in events]
    span = advance if math.isinf(visible) else visible + advance
    end_time = events[-1][1] + span
    expected = oracle(events, visible, advance, end_time)
    window = "UNBOUNDED" if math.isinf(visible) else visible
    for vectorize in (True, False):
        db = Database(vectorize=vectorize)
        db.execute(DDL)
        sub = db.subscribe(cq_sql(window, advance))
        db.insert_stream("s", events)
        db.advance_streams(end_time)
        assert [(w.close_time, dict(w.rows)) for w in sub.poll()] \
            == expected, f"vectorize={vectorize}"
        if not math.isinf(visible):
            # nothing outlives the last window that could see it
            assert sub.cq._window_op.buffered == 0


@settings(max_examples=30, deadline=None)
@given(events_strategy, extents_strategy)
def test_watermark_stream_matches_oracle_unshared(events, extents):
    """Event time stays unshared until the slice store learns
    watermarks: two same-key CQs over a WATERMARK stream still match
    the oracle (ordered input: every window closes by watermark) and
    report ``shared = false``."""
    visible, advance = extents
    end_time = float(events[-1][1]) + visible + advance
    actual, subs = run_engine(events, [extents, extents], end_time,
                              ddl=DDL + " WATERMARK '0 seconds'")
    expected = [w for w in oracle(events, visible, advance, end_time)
                if w[1]]
    assert [[w for w in windows if w[1]] for windows in actual] \
        == [expected, expected]
    assert not any(sub.cq.shared for sub in subs)


@settings(max_examples=30, deadline=None)
@given(events_strategy, extents_strategy)
def test_channel_archive_matches_oracle_totals(events, extents):
    """The archived active table must contain exactly the oracle's
    non-empty window rows."""
    visible, advance = extents
    end_time = float(events[-1][1]) + visible + advance
    db = Database()
    db.execute("CREATE STREAM s (k varchar(5), ts timestamp CQTIME USER)")
    db.execute_script(f"""
        CREATE STREAM rollup AS SELECT k, count(*) c, cq_close(*)
            FROM s <VISIBLE {visible} ADVANCE {advance}> GROUP BY k;
        CREATE TABLE arch (k varchar(5), c bigint, stime timestamp);
        CREATE CHANNEL ch FROM rollup INTO arch APPEND;
    """)
    db.insert_stream("s", [(key, float(t)) for key, t in events])
    db.advance_streams(end_time)
    expected = sorted(
        (key, count, close)
        for close, counts in oracle(events, visible, advance, end_time)
        for key, count in counts.items()
    )
    assert sorted(db.table_rows("arch")) == expected


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(KEYS),
                       st.integers(min_value=0, max_value=300)),
             min_size=1, max_size=40),
    st.integers(min_value=1, max_value=120),
)
def test_slack_stream_matches_sorted_ingest(jittered, slack):
    """Any jittered arrival order + enough slack == sorted arrival."""
    ordered = sorted(jittered, key=lambda e: e[1])
    end_time = float(max(t for _k, t in jittered)) + 120.0

    def run(rows, use_slack):
        db = Database(stream_slack=float(use_slack))
        db.execute("CREATE STREAM s (k varchar(5), ts timestamp CQTIME USER)")
        sub = db.subscribe(
            "SELECT k, count(*) FROM s <VISIBLE 60 ADVANCE 60> GROUP BY k")
        db.insert_stream("s", [(k, float(t)) for k, t in rows])
        # the visible clock trails the raw clock by the slack: heartbeat
        # far enough that both runs' delivered clocks reach end_time
        db.get_stream("s").advance_to(end_time + use_slack)
        db.flush_streams()
        return [(w.close_time, dict(w.rows)) for w in sub.poll()]

    assert run(jittered, 400) == run(ordered, 0)
