"""The observability subsystem: metrics registry, pipeline tracing,
EXPLAIN / EXPLAIN ANALYZE, stats views, the remote ``metrics`` op, and
the slow-window log.

The paper's CQs are "always on" (Section 1.2), so their health surfaces
must be always on too: everything here runs against default-constructed
databases with no special profiling mode.
"""

import math
import time

import pytest

import repro.client as client
from repro import Database
from repro.errors import ExecutionError
from repro.obs import (MetricsRegistry, NULL_COUNTER, NULL_HISTOGRAM,
                       Tracer)
from repro.server import ServerThread

URL_STREAM = """
CREATE STREAM url_stream (
    url varchar(1024),
    atime timestamp CQTIME USER,
    client_ip varchar(50)
)
"""

EXAMPLE_2 = """
SELECT url, count(*) url_count
FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'>
GROUP by url
ORDER by url_count desc
LIMIT 10
"""

EXAMPLE_3 = """
CREATE STREAM urls_now as
SELECT url, count(*) as scnt, cq_close(*)
FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'>
GROUP by url
"""

EXAMPLE_4A = """
CREATE TABLE urls_archive (url varchar(1024), scnt integer,
                           stime timestamp)
"""

EXAMPLE_4B = """
CREATE CHANNEL urls_channel FROM urls_now INTO urls_archive APPEND
"""

EXAMPLE_5 = """
select c.scnt, h.scnt, c.stime
from (select sum(scnt) as scnt, cq_close(*) as stime
      from urls_now <slices 1 windows>) c,
     urls_archive h
where c.stime - '1 week'::interval = h.stime
"""


def make_pipeline(db, n=50):
    """Example 1+3+4 end to end, with n clicks through one window."""
    db.execute(URL_STREAM)
    db.execute(EXAMPLE_3)
    db.execute(EXAMPLE_4A)
    db.execute(EXAMPLE_4B)
    rows = [(f"site{i % 5}.com", 10.0 + i * 0.01, "10.0.0.1")
            for i in range(n)]
    db.insert_stream("url_stream", rows)
    db.advance_streams(400.0)
    return rows


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_accumulates_and_is_shared_by_name(self):
        reg = MetricsRegistry()
        c = reg.counter("x.in")
        c.inc()
        c.inc(4)
        assert reg.counter("x.in") is c
        assert c.value == 5

    def test_callback_gauge_reads_at_snapshot_time(self):
        reg = MetricsRegistry()
        box = {"v": 1}
        reg.gauge("x.depth", fn=lambda: box["v"])
        box["v"] = 7
        rows = {r[0]: r for r in reg.snapshot_rows()}
        assert rows["x.depth"][1] == "gauge"
        assert rows["x.depth"][2] == 7.0

    def test_failing_gauge_degrades_to_nan(self):
        reg = MetricsRegistry()
        reg.gauge("x.bad", fn=lambda: 1 / 0)
        (row,) = reg.snapshot_rows()
        assert math.isnan(row[2])

    def test_disabled_registry_hands_out_null_instruments(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("a")
        h = reg.histogram("b")
        assert c is NULL_COUNTER and h is NULL_HISTOGRAM
        c.inc()
        h.observe(1.0)
        assert c.value == 0 and h.count == 0
        reg.gauge("c", fn=lambda: 3)
        assert reg.snapshot_rows() == []

    def test_snapshot_rows_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("b.count").inc(2)
        reg.histogram("a.lat").observe(0.5)
        rows = reg.snapshot_rows()
        assert [r[0] for r in rows] == ["a.lat", "b.count"]
        name, kind, value, count, total, p50, p95, p99, mx = rows[0]
        assert kind == "histogram" and count == 1 and total == 0.5


class TestHistogram:
    def test_single_value_quantiles_are_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(0.125)
        for q in (0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.125)
        assert h.min == h.max == 0.125

    def test_quantiles_track_distribution(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for i in range(1, 1001):
            h.observe(i / 1000.0)  # uniform on (0, 1]
        # log-bucketed: ~19% bucket-edge error is the documented bound
        assert h.quantile(0.5) == pytest.approx(0.5, rel=0.25)
        assert h.quantile(0.95) == pytest.approx(0.95, rel=0.25)
        assert h.quantile(0.99) == pytest.approx(0.99, rel=0.25)
        assert h.quantile(1.0) == pytest.approx(1.0)
        assert h.mean == pytest.approx(0.5005)
        assert h.count == 1000

    def test_empty_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0

    def test_out_of_range_observations_clamp(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(0.0)        # below the first bucket bound
        h.observe(5e6)        # beyond the last bound (overflow bucket)
        assert h.count == 2
        assert h.quantile(1.0) == 5e6


class TestTracer:
    def test_rate_to_interval(self):
        t = Tracer(sample_rate=0.01)
        assert t.sample_rate == pytest.approx(0.01)
        t.set_rate(0.0)
        assert t.sample_rate == 0.0
        t.set_rate(1.0)
        assert t.sample_rate == 1.0

    def test_finished_traces_are_bounded(self):
        t = Tracer(sample_rate=1.0, keep=4)
        for _ in range(10):
            tr = t.start()
            tr.add_span("s", None, 0.0, 0.0)
            t.finish(tr)
        assert len(t.finished) == 4
        assert len(t.rows()) == 4


# ---------------------------------------------------------------------------
# pipeline tracing over a live CQ
# ---------------------------------------------------------------------------


class TestTracing:
    def test_span_trees_are_well_formed(self):
        db = Database(trace_sample_rate=1.0)
        make_pipeline(db, n=20)
        rows = db.query("SELECT trace_id, span_id, parent_id, name, "
                        "duration_ms FROM repro_traces").rows
        assert rows, "rate-1.0 sampling over a live CQ produced no traces"
        traces = {}
        for trace_id, span_id, parent_id, name, duration in rows:
            traces.setdefault(trace_id, {})[span_id] = (parent_id, name)
            assert duration is None or duration >= 0.0
        for spans in traces.values():
            roots = [sid for sid, (parent, _n) in spans.items()
                     if parent is None]
            assert len(roots) == 1
            (parent, name) = spans[roots[0]]
            assert name.startswith("source:url_stream")
            # every non-root span's parent exists within the same trace
            for sid, (parent, name) in spans.items():
                if parent is not None:
                    assert parent in spans
            names = [n for _p, n in spans.values()]
            assert any(n.startswith("window:") for n in names)
            assert any(n.startswith("emit:") for n in names)

    def test_e2e_latency_histogram_fills(self):
        db = Database(trace_sample_rate=1.0)
        make_pipeline(db, n=10)
        (count,) = db.query("SELECT count FROM repro_metrics "
                            "WHERE name = 'cq.e2e_seconds'").rows[0]
        assert count == 10

    def test_sampling_rate_thins_traces(self):
        db = Database(trace_sample_rate=0.1)
        make_pipeline(db, n=100)
        n_traces = db.query("SELECT count(distinct trace_id) "
                            "FROM repro_traces").scalar()
        assert n_traces == 10

    def test_set_trace_sample_rate_rearms_live_streams(self):
        db = Database(trace_sample_rate=0.0)
        make_pipeline(db, n=10)
        assert db.query("SELECT count(*) FROM repro_traces").scalar() == 0
        db.execute("SET trace_sample_rate = 1.0")
        db.insert_stream(
            "url_stream", [("late.com", 500.0, "10.0.0.1")])
        db.advance_streams(700.0)
        assert db.query("SELECT count(*) FROM repro_traces").scalar() > 0
        with pytest.raises(ExecutionError):
            db.execute("SET trace_sample_rate = 2.0")


# ---------------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


class TestExplain:
    def test_example_2_streaming_select(self):
        db = Database()
        db.execute(URL_STREAM)
        expected = (
            "Slices: width 60.0s, store readers 1\n"
            "Limit(10, offset=0) [mode=iterator]\n"
            "  Sort [mode=iterator]\n"
            "    Project [mode=iterator]\n"
            "      BatchAggregate(1 keys, 1 aggs) [mode=batch]\n"
            "        BatchSource(url_stream) [mode=batch]")
        assert db.explain("EXPLAIN " + EXAMPLE_2.strip()) == expected

    def test_example_3_derived_stream_by_name(self):
        db = Database()
        db.execute(URL_STREAM)
        db.execute(EXAMPLE_3)
        expected = (
            "Slices: width 60.0s, store readers 1\n"
            "Project [mode=iterator]\n"
            "  BatchAggregate(1 keys, 1 aggs) [mode=batch]\n"
            "    BatchSource(url_stream) [mode=batch]")
        assert db.explain("EXPLAIN urls_now") == expected

    def test_example_4_channel_resolves_to_source_cq(self):
        db = Database()
        db.execute(URL_STREAM)
        db.execute(EXAMPLE_3)
        db.execute(EXAMPLE_4A)
        db.execute(EXAMPLE_4B)
        assert db.explain("EXPLAIN urls_channel") == \
            db.explain("EXPLAIN urls_now")

    def test_example_5_window_join(self):
        db = Database()
        db.execute(URL_STREAM)
        db.execute(EXAMPLE_3)
        db.execute(EXAMPLE_4A)
        expected = (
            "Project [mode=iterator]\n"
            "  HashJoin(INNER, 1 keys, build=right) [mode=iterator]\n"
            "    Project [mode=iterator]\n"
            "      BatchAggregate(0 keys, 1 aggs) [mode=batch]\n"
            "        BatchSource(urls_now) [mode=batch]\n"
            "    SeqScan(urls_archive, ~0 rows) [mode=iterator]")
        assert db.explain("EXPLAIN " + EXAMPLE_5.strip()) == expected

    def test_unknown_target_errors(self):
        db = Database()
        with pytest.raises(ExecutionError):
            db.explain("EXPLAIN nothing_here")

    def test_analyze_running_derived_stream_has_live_stats(self):
        db = Database()
        make_pipeline(db)
        text = db.explain("EXPLAIN ANALYZE urls_now")
        assert "BatchSource(url_stream) (actual rows=50 loops=" in text
        assert "never executed" not in text
        # nonzero wall time on at least the aggregate
        assert " time=" in text

    def test_analyze_matches_operator_stats_view(self):
        db = Database()
        make_pipeline(db)
        text = db.explain("EXPLAIN ANALYZE urls_now")
        rows = db.query(
            "SELECT operator, tuples_out, calls FROM repro_operator_stats "
            "WHERE cq = 'derived:urls_now' ORDER BY op_id").rows
        assert rows, "operator stats view is empty for a live CQ"
        for operator, tuples_out, calls in rows:
            assert f"{operator} (actual rows={tuples_out} " \
                   f"loops={calls}" in text

    def test_analyze_snapshot_query_executes_once(self):
        db = Database()
        make_pipeline(db)
        text = db.explain("EXPLAIN ANALYZE SELECT count(*) "
                          "FROM urls_archive")
        assert "loops=1" in text
        assert "never executed" not in text

    def test_analyze_via_query_returns_plan_rows(self):
        db = Database()
        db.execute(URL_STREAM)
        result = db.query("EXPLAIN SELECT * FROM url_stream "
                          "<VISIBLE '1 minute'>")
        assert result.columns == ["QUERY PLAN"]
        assert len(result.rows) >= 1

    def test_disabled_observability_analyze_reports_uninstrumented(self):
        db = Database(observability=False)
        db.execute(URL_STREAM)
        db.execute(EXAMPLE_3)
        text = db.explain("EXPLAIN ANALYZE urls_now")
        assert "never executed" in text


# ---------------------------------------------------------------------------
# stats surfaces over a live pipeline
# ---------------------------------------------------------------------------


class TestStatsViews:
    def test_cq_stats_counts_windows_and_latency(self):
        db = Database()
        make_pipeline(db)
        (row,) = db.query(
            "SELECT windows, rows_scanned, rows_out, avg_window_ms, "
            "max_window_ms, slow_windows FROM repro_cq_stats "
            "WHERE name = 'derived:urls_now'").rows
        windows, scanned, out, avg_ms, max_ms, slow = row
        assert windows > 0 and scanned >= 50 and out > 0
        assert 0 < avg_ms <= max_ms
        assert slow == 0

    def test_metrics_view_reflects_engine_counters(self):
        db = Database()
        make_pipeline(db)
        rows = {r[0]: r for r in db.query(
            "SELECT name, kind, value, count FROM repro_metrics").rows}
        assert rows["stream.tuples_in"][2] == 50.0
        assert rows["cq.window_seconds"][3] > 0      # histogram count
        assert rows["channel.flush_seconds"][3] > 0  # archive channel ran
        assert rows["buffer.hits"][1] == "gauge"
        assert rows["wal.appends"][2] > 0

    def test_operator_timing_is_sampled_per_window(self):
        from repro.streaming.cq import ContinuousQuery
        db = Database()
        db.execute(URL_STREAM)
        db.execute(EXAMPLE_3)
        every = ContinuousQuery.TIMING_SAMPLE_EVERY
        rows = [(f"s{i}.com", 10.0 + i * 60.0, "ip")
                for i in range(2 * every)]
        db.insert_stream("url_stream", rows)
        db.advance_streams(rows[-1][1] + 600.0)
        windows = db.query("SELECT windows FROM repro_cq_stats").scalar()
        assert windows > every
        (calls,) = db.query(
            "SELECT calls FROM repro_operator_stats "
            "WHERE cq = 'derived:urls_now' AND op_id = 0").rows[0]
        # instrumented on every Nth evaluation only
        assert 0 < calls < windows
        assert calls == (windows + every - 1) // every

    def test_disabled_observability_surfaces_are_empty(self):
        db = Database(observability=False)
        make_pipeline(db)
        assert db.query("SELECT * FROM repro_metrics").rows == []
        assert db.query("SELECT * FROM repro_traces").rows == []
        (tuples_out,) = db.query(
            "SELECT tuples_out FROM repro_operator_stats "
            "WHERE op_id = 0").rows[0]
        assert tuples_out is None

    def test_mode_and_batch_rows_columns(self):
        db = Database()
        make_pipeline(db)
        rows = db.query(
            "SELECT operator, mode, batch_rows FROM repro_operator_stats "
            "WHERE cq = 'derived:urls_now' ORDER BY op_id").rows
        modes = {operator: mode for operator, mode, _ in rows}
        counts = {operator: n for operator, _, n in rows}
        assert modes["Project"] == "iterator"
        assert counts["Project"] == 0
        assert modes["BatchSource(url_stream)"] == "batch"
        # every ingested row flowed through the vectorized path
        assert counts["BatchSource(url_stream)"] == 50
        assert counts["BatchAggregate(1 keys, 1 aggs)"] == 50


class TestSlowWindowLog:
    def test_slow_window_log_fires(self, caplog):
        db = Database()
        db.execute(URL_STREAM)
        db.execute(EXAMPLE_3)
        db.execute("SET slow_window_ms = 0")
        with caplog.at_level("WARNING", logger="repro.obs"):
            db.insert_stream(
                "url_stream", [("a.com", 10.0, "ip")])
            db.advance_streams(400.0)
        assert any("slow window" in r.message for r in caplog.records)
        slow = db.query("SELECT slow_windows FROM repro_cq_stats").scalar()
        assert slow > 0

    def test_threshold_filters(self):
        db = Database()
        db.execute(URL_STREAM)
        db.execute(EXAMPLE_3)
        db.execute("SET slow_window_ms = 60000")  # nothing is that slow
        db.insert_stream("url_stream", [("a.com", 10.0, "ip")])
        db.advance_streams(400.0)
        assert db.query(
            "SELECT slow_windows FROM repro_cq_stats").scalar() == 0
        db.execute("SET slow_window_ms = OFF")
        assert db.query("SHOW slow_window_ms").scalar() == "off"
        with pytest.raises(ExecutionError):
            db.execute("SET slow_window_ms = 'fast'")


# ---------------------------------------------------------------------------
# remote surfaces
# ---------------------------------------------------------------------------


class TestRemoteMetrics:
    def test_metrics_op_round_trips_all_surfaces(self):
        inner = Database(trace_sample_rate=1.0)
        with ServerThread(db=inner) as st:
            conn = client.connect(st.host, st.port)
            conn.execute(URL_STREAM)
            conn.execute(EXAMPLE_3)
            conn.ingest("url_stream",
                        [[f"site{i}.com", 10.0 + i, "10.0.0.1"]
                         for i in range(20)])
            conn.advance(400.0)
            scraped = conn.metrics()
            assert set(scraped) == {"repro_metrics", "repro_cq_stats",
                                    "repro_operator_stats", "repro_traces"}
            metrics = {r[0]: r for r in scraped["repro_metrics"].rows}
            assert metrics["stream.tuples_in"][2] == 20.0
            # the remote scrape and the local view agree
            local = inner.query(
                "SELECT operator, tuples_out FROM repro_operator_stats "
                "ORDER BY op_id").rows
            idx = scraped["repro_operator_stats"].columns.index
            remote = [(r[idx("operator")], r[idx("tuples_out")])
                      for r in scraped["repro_operator_stats"].rows]
            assert remote == [(op, n) for op, n in local]
            assert scraped["repro_traces"].rows
            conn.close()

    def test_frame_counters_visible_in_scrape(self):
        with ServerThread() as st:
            conn = client.connect(st.host, st.port)
            conn.ping()
            scraped = conn.metrics()
            metrics = {r[0]: r for r in scraped["repro_metrics"].rows}
            assert metrics["server.frames_in"][2] >= 2
            assert metrics["server.sessions"][2] == 1
            conn.close()

    def test_remote_explain_analyze_matches_local(self):
        inner = Database()
        with ServerThread(db=inner) as st:
            conn = client.connect(st.host, st.port)
            conn.execute(URL_STREAM)
            conn.execute(EXAMPLE_3)
            conn.ingest("url_stream",
                        [["a.com", 10.0, "ip"], ["b.com", 11.0, "ip"]])
            conn.advance(400.0)
            remote = conn.query("EXPLAIN ANALYZE urls_now")
            local = inner.explain("EXPLAIN ANALYZE urls_now")
            assert [r[0] for r in remote.rows] == local.splitlines()
            assert "actual rows=2" in local
            conn.close()


# ---------------------------------------------------------------------------
# connection view: monotonic idleness, wall-clock display
# ---------------------------------------------------------------------------


class TestConnectionClocks:
    def test_last_seen_is_wall_clock_and_idle_monotonic(self):
        with ServerThread() as st:
            conn = client.connect(st.host, st.port)
            (idle, last_seen, connected) = conn.query(
                "SELECT idle_seconds, last_seen, connected_seconds "
                "FROM repro_connections").rows[0]
            assert idle < 2.0
            assert connected >= 0.0
            assert abs(last_seen - time.time()) < 5.0
            conn.close()
