"""Per-layer metrics of the ledger's traced pass, computed from a
:class:`trace.Recorder`'s totals.

A layer is a package under ``src/repro/``; a layer metric is that
layer's **self time** (see ``trace.py``) divided by the events, windows,
frames or queries it served, unless its unit says otherwise.  The span
names on the right-hand sides are the ones ``trace.install`` assigns.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import harness
from harness import percentile

def _self(totals: dict, *names: str) -> float:
    return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)


def _incl(totals: dict, *names: str) -> float:
    return sum(totals.get(n, {}).get("incl_s", 0.0) for n in names)


def _calls(totals: dict, *names: str) -> int:
    return sum(totals.get(n, {}).get("calls", 0) for n in names)


def _per(total_s: float, count: float) -> float:
    return total_s / count * 1e6 if count else 0.0


_WINDOW_SPANS = ("streaming.window.on_tuples", "streaming.window.on_tuple",
                 "streaming.window.on_heartbeat", "streaming.window.on_flush",
                 "eventtime.late_on_tuple")
_CHANNEL_SPANS = ("streaming.channel.on_batch",
                  "streaming.channel.on_correction")
_AGG_SPANS = ("exec.aggregate.partial_for_rows",
              "exec.aggregate.merge_partials", "exec.aggregate.finalize")
_CORE_SPANS = ("core.ingest_batch", "core.insert_stream")
#: names whose self time is *not* engine work attributed to a layer
_UNATTRIBUTED = _CORE_SPANS + ("server.engine_job",)
_CLIENT_SIDE = ("client.encode",)


def engine_layer_metrics(totals: dict, events: int) -> Dict[str, float]:
    """The per-event / per-window / per-query costs every engine-side
    process reports, from one recorder's totals."""
    windows = _calls(totals, *_CHANNEL_SPANS)
    pushes = _calls(totals, "server.window_push")
    frames = _calls(totals, "admission.admit")
    late = _calls(totals, "eventtime.late_on_tuple")
    return {
        "core.ingest_self_us_per_event":
            _per(_self(totals, *_CORE_SPANS), events),
        "catalog.coerce_us_per_event":
            _per(_self(totals, "catalog.coerce_rows"), events),
        "streaming.ingest_self_us_per_event":
            _per(_self(totals, "streaming.insert_many_counted",
                       "streaming.advance_to", "streaming.flush"), events),
        "streaming.slow_path_row_share":
            _calls(totals, "streaming.insert") / events if events else 0.0,
        "streaming.window_us_per_event":
            _per(_self(totals, *_WINDOW_SPANS), events),
        "streaming.channel_us_per_window":
            _per(_self(totals, *_CHANNEL_SPANS), windows),
        "exec.from_rows_us_per_event":
            _per(_self(totals, "exec.from_rows"), events),
        "exec.aggregate_us_per_event":
            _per(_self(totals, *_AGG_SPANS), events),
        "storage.wal_append_us_per_event":
            _per(_self(totals, "storage.wal.append"), events),
        "storage.wal_flush_us_per_event":
            _per(_self(totals, "storage.wal.flush"), events),
        "storage.table_insert_us_per_row":
            _per(_self(totals, "storage.table.insert"),
                 _calls(totals, "storage.table.insert")),
        "eventtime.retract_pairs":
            float(_calls(totals, "eventtime.retract")),
        "eventtime.late_us_per_late_row":
            _per(_incl(totals, "eventtime.late_on_tuple"), late),
        "server.decode_us_per_event":
            _per(_self(totals, "server.decoder_feed", "server.decode_body"),
                 events),
        "server.push_encode_us_per_window":
            _per(_self(totals, "server.window_push", "server.encode_push"),
                 pushes),
        "admission.admit_us_per_frame":
            _per(_self(totals, "admission.admit"), frames),
    }


def query_layer_metrics(totals: dict, queries: int) -> Dict[str, float]:
    """Parser / planner / result drain per snapshot query (the handful
    of DDL statements in the same totals is noise against thousands of
    queries)."""
    return {
        "sql.parse_us_per_query": _per(_self(totals, "sql.parse"), queries),
        "sql.plan_us_per_query": _per(_self(totals, "sql.plan"), queries),
        "exec.sq_execute_us_per_query":
            _per(_self(totals, "exec.sq_execute"), queries),
    }


def partition_layer_metrics(totals: dict, samples: dict, events: int,
                            routed: list, boundaries: int
                            ) -> Dict[str, float]:
    """The coordinator's side of ``partitioned_e1``.  Workers are not
    wrapped: their time is what the coordinator spends blocked in
    ``wire.recv_frame`` (self time, i.e. without the unpickling).  A
    boundary's merge is the aggregate's ``merge_partials`` + ``finalize``
    as the coordinator calls them (inside ``ingest`` and ``advance``);
    emitting the merged window stays in coordinator self time."""
    wire_bytes = sum(samples.get("partition.wire_bytes_out", [])) \
        + sum(samples.get("partition.wire_bytes_in", []))
    return {
        "partition.wire_encode_us_per_event":
            _per(_self(totals, "partition.wire.encode"), events),
        "partition.wire_decode_us_per_event":
            _per(_self(totals, "partition.wire.decode"), events),
        "partition.wire_bytes_per_event": wire_bytes / events,
        "partition.worker_wait_us_per_event":
            _per(_self(totals, "partition.wire.recv"), events),
        "partition.coordinator_self_us_per_event":
            _per(_self(totals, "partition.ingest", "partition.advance",
                       "partition.wire.send"), events),
        "partition.merge_us_per_boundary":
            _per(_incl(totals, "exec.aggregate.merge_partials",
                       "exec.aggregate.finalize"), boundaries),
        "partition.skew": max(routed) / (sum(routed) / len(routed)),
    }


def attributed_share(totals: dict) -> float:
    """Share of engine-side wall time claimed by a named layer (anything
    but the ``core`` remainder and the bare engine-job wrapper)."""
    engine = {n: t["self_s"] for n, t in totals.items()
              if n not in _CLIENT_SIDE}
    wall = sum(engine.values())
    if not wall:
        return 0.0
    return 1.0 - sum(engine.get(n, 0.0) for n in _UNATTRIBUTED) / wall


def queue_metrics(summary: dict, start: float, end: float
                  ) -> Dict[str, float]:
    """Engine-queue wait and busy share inside ``[start, end]`` of the
    shared monotonic clock (DDL and the checks' own queries fall outside
    it)."""
    waits = [wait * 1000.0
             for started, wait in summary["samples"].get(
                 "server.queue_wait", [])
             if start <= started <= end]
    busy = sum(min(job_end, end) - max(job_start, start)
               for job_start, job_end in summary["samples"].get(
                   "server.engine_jobs", [])
               if job_end > start and job_start < end)
    return {
        "server.queue_wait_p50_ms": percentile(waits, 50),
        "server.queue_wait_p99_ms": percentile(waits, 99),
        "server.engine_busy_share": busy / (end - start),
    }


def batch_operator_share(plan_text: str) -> float:
    """``[mode=batch]`` operators over all operators of an ``EXPLAIN
    ANALYZE`` plan (operator lines are the ones carrying actuals)."""
    lines = [line for line in plan_text.splitlines() if "actual" in line]
    if not lines:
        return 0.0
    return sum("[mode=batch]" in line for line in lines) / len(lines)


def zero_layers() -> Dict[str, float]:
    """Every per-layer name at zero: a layer a workload never enters
    reports 0, which is the prediction the interaction table makes."""
    return {metric["name"]: 0.0 for metric in benchmark_spec()["per_layer"]}


_SERVED_NONZERO = (
    "client.encode_us_per_event", "client.wire_bytes_per_event",
    "client.late_send_p99_ms", "client.ack_p50_ms", "client.ack_p99_ms",
    "client.backlog_end_ms",
    "server.decode_us_per_event", "server.queue_wait_p50_ms",
    "server.queue_wait_p99_ms", "server.engine_busy_share",
    "admission.admit_us_per_frame", "catalog.coerce_us_per_event",
    "streaming.ingest_self_us_per_event", "streaming.window_us_per_event",
    "streaming.windows_emitted", "streaming.channel_us_per_window",
    "exec.from_rows_us_per_event", "exec.aggregate_us_per_event",
    "exec.batch_operator_share", "storage.table_insert_us_per_row",
)
#: the layer metrics each workload is predicted to move (README.md, "should
#: move"): the traced pass fails when one of them reads 0, because then a
#: wrapped function is no longer called and the zero is not a measurement
PREDICTED_NONZERO = {
    "served_durable_e1": _SERVED_NONZERO + (
        "client.emit_p50_ms", "client.emit_p95_ms", "client.emit_max_ms",
        "server.push_encode_us_per_window",
        "storage.wal_append_us_per_event", "storage.wal_flush_us_per_event",
        "storage.wal_flushes", "storage.wal_records_per_event",
        "storage.wal_bytes_per_event", "storage.recovery_s"),
    "served_reads_writes": _SERVED_NONZERO + (
        "client.query_p50_ms", "client.query_p99_ms",
        "client.visible_p50_ms", "client.visible_p95_ms",
        "sql.parse_us_per_query", "sql.plan_us_per_query",
        "exec.sq_execute_us_per_query"),
    "embedded_multi_cq": (
        "catalog.coerce_us_per_event", "streaming.ingest_self_us_per_event",
        "streaming.slow_path_row_share", "streaming.window_us_per_event",
        "streaming.windows_emitted", "exec.from_rows_us_per_event",
        "exec.aggregate_us_per_event", "exec.batch_operator_share"),
    "embedded_eventtime_late": (
        "streaming.ingest_self_us_per_event", "streaming.slow_path_row_share",
        "streaming.window_us_per_event", "streaming.windows_emitted",
        "streaming.channel_us_per_window", "exec.from_rows_us_per_event",
        "storage.table_insert_us_per_row", "eventtime.late_rows",
        "eventtime.retract_pairs", "eventtime.late_us_per_late_row"),
    "partitioned_e1": (
        "exec.aggregate_us_per_event", "streaming.windows_emitted",
        "partition.wire_encode_us_per_event",
        "partition.wire_decode_us_per_event",
        "partition.wire_bytes_per_event",
        "partition.worker_wait_us_per_event",
        "partition.coordinator_self_us_per_event",
        "partition.merge_us_per_boundary", "partition.skew"),
}


def benchmark_spec() -> dict:
    """``BENCHMARK.json`` — the one list of metric names, units, bounds."""
    with open(os.path.join(harness.REPO_ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


def client_tail_metrics(paced, emit_ms=(), query_ms=(), visible_ms=()
                        ) -> Dict[str, float]:
    return {
        "client.late_send_p99_ms": percentile(paced.late_send_ms, 99),
        "client.blocked_send_share": paced.blocked / max(paced.frames, 1),
        "client.ack_p50_ms": percentile(paced.ack_ms, 50),
        "client.ack_p99_ms": percentile(paced.ack_ms, 99),
        "client.backlog_end_ms": paced.ack_ms[-1],
        "client.emit_p50_ms": percentile(emit_ms, 50),
        "client.emit_p95_ms": percentile(emit_ms, 95),
        "client.emit_max_ms": max(emit_ms, default=0.0),
        "client.query_p50_ms": percentile(query_ms, 50),
        "client.query_p99_ms": percentile(query_ms, 99),
        "client.visible_p50_ms": percentile(visible_ms, 50),
        "client.visible_p95_ms": percentile(visible_ms, 95),
    }


def client_wire_metrics(recorder, events: int) -> Dict[str, float]:
    totals = recorder.totals()
    sent = sum(recorder.samples.get("client.wire_bytes", []))
    return {
        "client.encode_us_per_event":
            _per(_self(totals, "client.encode"), events),
        "client.wire_bytes_per_event": sent / events if events else 0.0,
    }


def overhead_pct(untraced_rates, traced_rate: float) -> float:
    """Traced against untraced ``events_per_s``.  The untraced side is
    the mean of a pass before and a pass after the traced one, so a
    machine that speeds up or slows down across the three does not read
    as (negative) overhead."""
    untraced = sum(untraced_rates) / len(untraced_rates)
    return (untraced - traced_rate) / untraced * 100.0
