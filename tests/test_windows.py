"""Tests for window operators — including a property test against a naive
reference implementation of RSTREAM window semantics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WindowError
from repro.sql import ast, parse_statement
from repro.streaming.windows import (
    RowWindowOperator,
    TimeWindowOperator,
    WindowCountOperator,
    WindowSpec,
)


def collect(visible, advance):
    out = []
    op = TimeWindowOperator(
        visible, advance,
        lambda rows, o, c: out.append((o, c, [r[0] for r in rows])))
    return op, out


class TestTimeWindows:
    def test_tumbling_basic(self):
        op, out = collect(60, 60)
        for t in (10, 20, 70):
            op.on_tuple((t,), t)
        op.on_heartbeat(120)
        assert out == [(0, 60, [10, 20]), (60, 120, [70])]

    def test_boundary_tuple_belongs_to_next_window(self):
        op, out = collect(60, 60)
        op.on_tuple((10,), 10)
        op.on_tuple((60,), 60)  # exactly at the boundary
        op.on_heartbeat(120)
        assert out == [(0, 60, [10]), (60, 120, [60])]

    def test_sliding_window_rows_repeat(self):
        op, out = collect(120, 60)
        op.on_tuple((30,), 30)
        op.on_tuple((90,), 90)
        op.on_heartbeat(180)
        # close at 60: [−60,60) -> [30]; at 120: [0,120) -> [30, 90];
        # at 180: [60,180) -> [90]
        assert out == [(-60, 60, [30]), (0, 120, [30, 90]),
                       (60, 180, [90])]

    def test_empty_windows_emitted(self):
        op, out = collect(60, 60)
        op.on_tuple((10,), 10)
        op.on_heartbeat(240)
        closes = [c for _o, c, _r in out]
        assert closes == [60, 120, 180, 240]
        assert out[1][2] == []

    def test_alignment_to_epoch_multiples(self):
        op, out = collect(60, 60)
        op.on_tuple((95,), 95)  # first event mid-minute
        op.on_heartbeat(125)
        assert out[0][1] == 120  # closes at the minute, not at 95+60

    def test_flush_emits_pending(self):
        op, out = collect(60, 60)
        op.on_tuple((10,), 10)
        op.on_flush()
        assert out == [(0, 60, [10])]

    def test_flush_sliding_drains_all_windows(self):
        op, out = collect(120, 60)
        op.on_tuple((30,), 30)
        op.on_flush()
        # the row is visible in windows closing at 60 and 120
        assert [c for _o, c, _r in out] == [60, 120]
        assert all(rows == [30] for _o, _c, rows in out)

    def test_flush_idempotent(self):
        op, out = collect(60, 60)
        op.on_tuple((10,), 10)
        op.on_flush()
        op.on_flush()
        assert len(out) == 1

    def test_eviction_bounds_buffer(self):
        op, _out = collect(60, 60)
        for t in range(0, 1000, 10):
            op.on_tuple((t,), t)
        assert op.buffered <= 7  # at most one window's worth + in-flight

    def test_hopping_gap_rows_never_emitted_and_evicted(self):
        op, out = collect(1, 5)
        for t in (4.5, 6, 7, 9.5, 12):
            op.on_tuple((t,), t)
        # 6, 7 and 12 fall in the gaps [5, 9) and [10, 14): no window
        # sees them, and none is held
        assert out == [(4, 5, [4.5]), (9, 10, [9.5])]
        assert op.buffered == 0

    def test_heartbeat_before_any_tuple_is_noop(self):
        op, out = collect(60, 60)
        op.on_heartbeat(500)
        assert out == []

    def test_invalid_extents(self):
        with pytest.raises(WindowError):
            TimeWindowOperator(0, 60, lambda *a: None)
        with pytest.raises(WindowError):
            TimeWindowOperator(60, -1, lambda *a: None)

    def test_extents_below_the_slice_grid_resolution_rejected(self):
        # the slice grid is a gcd on whole microseconds
        with pytest.raises(WindowError):
            TimeWindowOperator(1e-8, 1e-8, lambda *a: None)

    def test_stats(self):
        op, _out = collect(60, 60)
        op.on_tuple((10,), 10)
        op.on_tuple((20,), 20)
        op.on_heartbeat(60)
        assert op.tuples_in == 2
        assert op.windows_closed == 1
        assert op.rows_emitted == 2


def reference_windows(events, visible, advance, end_time):
    """Naive reference: every boundary T in (first_event, end]; window is
    [T - visible, T)."""
    if not events:
        return []
    first = events[0][0]
    base = math.floor(first / advance) * advance
    out = []
    k = 1
    while base + k * advance <= end_time:
        close = base + k * advance
        rows = [v for t, v in events if close - visible <= t < close]
        out.append((close, rows))
        k += 1
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1,
             max_size=60).map(sorted),
    st.sampled_from([(60, 60), (120, 60), (300, 60), (100, 50), (30, 30)]),
)
def test_time_window_matches_reference(times, extents):
    visible, advance = extents
    events = [(float(t), t) for t in times]
    end_time = float(times[-1] + visible + advance)

    op, out = collect(visible, advance)
    for t, v in events:
        op.on_tuple((v,), t)
    op.on_heartbeat(end_time)

    expected = reference_windows(events, visible, advance, end_time)
    actual = [(c, rows) for _o, c, rows in out]
    assert actual == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1,
             max_size=60).map(sorted),
    st.sampled_from([(1, 5), (7, 3), (math.inf, 60)]),
)
def test_gapped_uneven_and_unbounded_windows_match_reference(times, extents):
    """The same reference for a hopping window with a gap, extents
    whose gcd is neither of them, and the cumulative window."""
    visible, advance = extents
    events = [(float(t), t) for t in times]
    end_time = float(times[-1]) + (
        advance if math.isinf(visible) else visible + advance)

    op, out = collect(visible, advance)
    for t, v in events:
        op.on_tuple((v,), t)
    op.on_heartbeat(end_time)

    expected = reference_windows(events, visible, advance, end_time)
    assert [(c, rows) for _o, c, rows in out] == expected
    # a cumulative window holds everything; any other, nothing no
    # future window can see
    assert op.buffered == (len(times) if math.isinf(visible) else 0)


class TestRowWindows:
    def test_tumbling_rows(self):
        out = []
        op = RowWindowOperator(3, 3, lambda rows, o, c: out.append(
            [r[0] for r in rows]))
        for i in range(7):
            op.on_tuple((i,), float(i))
        assert out == [[0, 1, 2], [3, 4, 5]]

    def test_sliding_rows(self):
        out = []
        op = RowWindowOperator(3, 1, lambda rows, o, c: out.append(
            [r[0] for r in rows]))
        for i in range(4):
            op.on_tuple((i,), float(i))
        assert out == [[0], [0, 1], [0, 1, 2], [1, 2, 3]]

    def test_close_time_is_latest_event(self):
        closes = []
        op = RowWindowOperator(2, 2, lambda rows, o, c: closes.append(c))
        op.on_tuple((1,), 5.0)
        op.on_tuple((2,), 9.0)
        assert closes == [9.0]

    def test_flush_emits_partial(self):
        out = []
        op = RowWindowOperator(3, 3, lambda rows, o, c: out.append(len(rows)))
        op.on_tuple((1,), 1.0)
        op.on_flush()
        assert out == [1]

    def test_flush_nothing_pending(self):
        out = []
        op = RowWindowOperator(2, 2, lambda rows, o, c: out.append(1))
        op.on_tuple((1,), 1.0)
        op.on_tuple((2,), 2.0)
        op.on_flush()
        assert out == [1]  # the flush added nothing


class TestWindowCount:
    def test_slices_1_forwards_each_batch(self):
        out = []
        op = WindowCountOperator(1, lambda rows, o, c: out.append(
            (list(rows), c)))
        op.on_batch([(1,)], 0.0, 60.0)
        op.on_batch([(2,), (3,)], 60.0, 120.0)
        assert out == [([(1,)], 60.0), ([(2,), (3,)], 120.0)]

    def test_slices_2_concatenates(self):
        out = []
        op = WindowCountOperator(2, lambda rows, o, c: out.append(list(rows)))
        op.on_batch([(1,)], 0.0, 60.0)
        op.on_batch([(2,)], 60.0, 120.0)
        op.on_batch([(3,)], 120.0, 180.0)
        assert out == [[(1,)], [(1,), (2,)], [(2,), (3,)]]

    def test_tuples_become_single_row_batches(self):
        out = []
        op = WindowCountOperator(2, lambda rows, o, c: out.append(list(rows)))
        op.on_tuple((1,), 5.0)
        op.on_tuple((2,), 6.0)
        assert out == [[(1,)], [(1,), (2,)]]


class TestWindowSpec:
    def window_of(self, sql):
        select = parse_statement(sql)
        return WindowSpec.from_clause(select.from_clause.window)

    def test_time_spec(self):
        spec = self.window_of(
            "SELECT * FROM s <VISIBLE '5 minutes' ADVANCE '1 minute'>")
        assert spec.kind == "time"
        assert spec.visible == 300.0

    def test_rows_spec(self):
        spec = self.window_of("SELECT * FROM s <VISIBLE 10 ROWS ADVANCE 5 ROWS>")
        assert spec.kind == "rows"

    def test_windows_spec(self):
        spec = self.window_of("SELECT * FROM s <slices 2 windows>")
        assert spec.kind == "windows"
        assert spec.count == 2

    def test_make_operator_kinds(self):
        sink = lambda rows, o, c: None
        assert isinstance(
            self.window_of("SELECT * FROM s <VISIBLE 60>").make_operator(sink),
            TimeWindowOperator)
        assert isinstance(
            self.window_of("SELECT * FROM s <VISIBLE 5 ROWS>").make_operator(sink),
            RowWindowOperator)
        assert isinstance(
            self.window_of("SELECT * FROM s <slices 1 windows>").make_operator(sink),
            WindowCountOperator)

    def test_zero_extent_rejected(self):
        clause = ast.WindowClause(visible=0.0, advance=0.0)
        with pytest.raises(WindowError):
            WindowSpec.from_clause(clause)
