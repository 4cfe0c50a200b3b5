"""System views: the engine's own state as queryable relations.

In the spirit of the paper's "stored data is simply streaming data that
has been entered into persistent structures", the runtime itself is
exposed through ordinary SQL::

    SELECT name, tuples_in, watermark FROM repro_streams;
    SELECT name, batches, rows_written FROM repro_channels;

Each view is a :class:`VirtualTable`: a schema plus a zero-argument rows
callable evaluated at query time, planned as a plain row source.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.catalog import catalog as cat
from repro.catalog.schema import Column, Schema
from repro.types.datatypes import (
    BooleanType,
    DoubleType,
    IntegerType,
    TimestampType,
    VarcharType,
)

SYSTEM = "system view"


class VirtualTable:
    """A read-only relation computed on demand."""

    def __init__(self, name: str, schema: Schema, rows_fn: Callable):
        self.name = name
        self.schema = schema
        self._rows_fn = rows_fn

    def rows(self) -> List[tuple]:
        return [self.schema.coerce_row(row) for row in self._rows_fn()]

    def __repr__(self):
        return f"VirtualTable({self.name})"


def _text(name):
    return Column(name, VarcharType(None, "text"))


def _int(name):
    return Column(name, IntegerType("bigint"))


#: each view's schema, built by the first install in the process: the
#: schemas are constants, and a process builds many engines (each
#: replayer, each test engine), whose allocations a garbage collector
#: over a large heap makes slow
_SCHEMAS: Dict[str, Schema] = {}


def _view(name: str, columns: Callable[[], List[Column]],
          rows_fn: Callable) -> VirtualTable:
    schema = _SCHEMAS.get(name)
    if schema is None:
        schema = _SCHEMAS[name] = Schema(columns())
    return VirtualTable(name, schema, rows_fn)


def install_system_views(db) -> None:
    """Register the repro_* views in ``db``'s catalog."""

    def streams_rows():
        out = []
        for name, stream in db.catalog.relations(cat.STREAM):
            watermark = stream.watermark
            out.append((
                name, "base", stream.tuples_in, stream.tuples_dropped,
                None if watermark == float("-inf") else watermark,
                len(stream.consumers),
            ))
        for name, derived in db.catalog.relations(cat.DERIVED_STREAM):
            out.append((
                name, "derived", derived.tuples_out, 0,
                derived.cq.stats.last_close if derived.cq else None,
                len(derived.consumers),
            ))
        return out

    streams = _view("repro_streams", lambda: [
        _text("name"), _text("kind"), _int("tuples"), _int("dropped"),
        Column("watermark", TimestampType()), _int("consumers"),
    ], streams_rows)

    def channels_rows():
        out = []
        for name, channel in db.catalog.channels():
            out.append((
                name, channel.source.name, channel.table.name, channel.mode,
                channel.stats.batches, channel.stats.rows_written,
                channel.stats.last_close,
            ))
        return out

    channels = _view("repro_channels", lambda: [
        _text("name"), _text("source"), _text("target"), _text("mode"),
        _int("batches"), _int("rows_written"),
        Column("last_close", TimestampType()),
    ], channels_rows)

    def tables_rows():
        out = []
        for name, table in db.catalog.relations(cat.TABLE):
            out.append((
                name, table.heap.page_count, table.heap.row_count,
                len(table.indexes()),
            ))
        return out

    tables = _view("repro_tables", lambda: [
        _text("name"), _int("pages"), _int("row_slots"), _int("indexes"),
    ], tables_rows)

    def indexes_rows():
        out = []
        for name, index in db.catalog.indexes():
            out.append((
                name, index.table_name, ",".join(index.column_names),
                index.unique, index.entry_count,
            ))
        return out

    indexes = _view("repro_indexes", lambda: [
        _text("name"), _text("table_name"), _text("columns"),
        Column("is_unique", BooleanType()), _int("entries"),
    ], indexes_rows)

    def cqs_rows():
        out = []
        for name, cq in db.runtime.cqs().items():
            out.append((
                name, cq.shared,
                cq.stats.windows_evaluated, cq.stats.rows_out,
                cq.stats.last_close,
            ))
        return out

    cqs = _view("repro_cqs", lambda: [
        _text("name"), Column("shared", BooleanType()),
        _int("windows"), _int("rows_out"),
        Column("last_close", TimestampType()),
    ], cqs_rows)

    def io_rows():
        stats = db.disk.stats
        return [(
            stats.pages_read, stats.pages_written, stats.seeks,
            db.disk.elapsed_seconds(),
            db.storage.pool.hits, db.storage.pool.misses,
        )]

    io = _view("repro_io", lambda: [
        _int("pages_read"), _int("pages_written"), _int("seeks"),
        Column("sim_seconds", DoubleType()),
        _int("buffer_hits"), _int("buffer_misses"),
    ], io_rows)

    def stats_rows():
        out = []
        for name, table in db.catalog.relations(cat.TABLE):
            if table.stats is None:
                continue
            for column, (n_distinct, null_frac) in table.stats.columns.items():
                out.append((name, column, n_distinct, null_frac))
        return out

    stats = _view("repro_stats", lambda: [
        _text("table_name"), _text("column_name"), _int("n_distinct"),
        Column("null_frac", DoubleType()),
    ], stats_rows)

    def supervisor_rows():
        rows = [] if db.supervisor is None else db.supervisor.status_rows()
        # a CQ the last boot or promotion left cold lost its open
        # windows: shown whether or not anything is supervised
        return rows + [
            (name, "recovery", "cold", 1, 0, 0, rung[len("cold:"):])
            for name, rung in db.recovery_stats.get("cqs", ())
            if rung.startswith("cold:")]

    supervisor = _view("repro_supervisor_status", lambda: [
        _text("name"), _text("kind"), _text("state"), _int("failures"),
        _int("retries"), _int("dead_letters"), _text("last_error"),
    ], supervisor_rows)

    def dead_letter_rows():
        if db.supervisor is None:
            return []
        return db.supervisor.dead_letter_rows()

    dead_letters = _view("repro_dead_letters", lambda: [
        _int("seq"), _text("source"), _text("kind"), _text("reason"),
        _int("rowcount"), _text("payload"),
        Column("open_time", TimestampType()),
        Column("close_time", TimestampType()),
    ], dead_letter_rows)

    def connections_rows():
        provider = getattr(db, "connection_registry", None)
        if provider is None:
            return []
        return provider()

    connections = _view("repro_connections", lambda: [
        _int("session_id"), _text("peer"), _text("tenant"),
        _text("state"),
        _int("statements"), _int("rows_ingested"), _int("subscriptions"),
        _int("windows_pushed"), _int("tuples_pushed"), _int("sheds"),
        Column("connected_seconds", DoubleType()),
        Column("idle_seconds", DoubleType()),
        # wall-clock only here in the view; the reaper and the idle
        # computation use the monotonic clock internally
        Column("last_seen", TimestampType()),
    ], connections_rows)

    def replication_rows():
        provider = getattr(db, "replication_registry", None)
        if provider is not None:
            return provider()
        # standalone: no peers, but the local WAL head is still useful
        return [("standalone", None, "standalone",
                 db.storage.wal.head_lsn, None, None, None, None)]

    replication = _view("repro_replication_status", lambda: [
        _text("role"), _text("peer"), _text("state"),
        _int("shipped_lsn"), _int("applied_lsn"), _int("acked_lsn"),
        _int("lag"), _text("last_error"),
    ], replication_rows)

    def crashpoint_rows():
        if db.faults is None:
            from repro.faults import CRASHPOINTS
            return [(name, False, None, 0, 0) for name in sorted(CRASHPOINTS)]
        return db.faults.stats_rows()

    crashpoints = _view("repro_crashpoints", lambda: [
        _text("crashpoint"), Column("armed", BooleanType()),
        Column("probability", DoubleType()),
        _int("evaluations"), _int("fires"),
    ], crashpoint_rows)

    def metrics_rows():
        return db.obs.registry.snapshot_rows()

    metrics = _view("repro_metrics", lambda: [
        _text("name"), _text("kind"), Column("value", DoubleType()),
        _int("count"), Column("sum", DoubleType()),
        Column("p50", DoubleType()), Column("p95", DoubleType()),
        Column("p99", DoubleType()), Column("max", DoubleType()),
    ], metrics_rows)

    def cq_stats_rows():
        out = []
        for name, cq in db.runtime.cqs().items():
            st = cq.stats
            windows = st.windows_evaluated
            out.append((
                name, cq.shared,
                st.tuples_in, windows, st.rows_scanned, st.rows_out,
                st.last_close,
                round(st.last_window_seconds * 1000.0, 6),
                round(st.total_window_seconds * 1000.0 / windows, 6)
                if windows else 0.0,
                round(st.max_window_seconds * 1000.0, 6),
                st.slow_windows,
            ))
        return out

    cq_stats = _view("repro_cq_stats", lambda: [
        _text("name"), Column("shared", BooleanType()),
        _int("tuples_in"), _int("windows"), _int("rows_scanned"),
        _int("rows_out"), Column("last_close", TimestampType()),
        Column("last_window_ms", DoubleType()),
        Column("avg_window_ms", DoubleType()),
        Column("max_window_ms", DoubleType()),
        _int("slow_windows"),
    ], cq_stats_rows)

    def operator_stats_rows():
        from repro.obs.service import walk_operators
        out = []
        for name, cq in db.runtime.cqs().items():
            root = getattr(cq, "_post_plan", None)
            plan = getattr(cq, "_plan", None)
            if plan is not None:
                root = plan.root
            if root is None:
                continue
            for index, (op, depth, parent) in \
                    enumerate(walk_operators(root)):
                st = op.stats
                out.append((
                    name, index, parent, depth, op._describe(),
                    st.tuples_out if st else None,
                    st.calls if st else None,
                    round(st.wall_seconds * 1000.0, 6) if st else None,
                    op.mode,
                    st.batch_rows if st else None,
                ))
        return out

    # tuples_out/calls/time_ms cover the sampled (timed) evaluations:
    # CQs arm per-operator instrumentation on every Nth window; mode
    # says whether the operator ran vectorized (batch) or row-at-a-time
    operator_stats = _view("repro_operator_stats", lambda: [
        _text("cq"), _int("op_id"), _int("parent_id"), _int("depth"),
        _text("operator"), _int("tuples_out"), _int("calls"),
        Column("time_ms", DoubleType()),
        _text("mode"), _int("batch_rows"),
    ], operator_stats_rows)

    def tenants_rows():
        return db.admission.tenants_rows()

    tenants = _view("repro_tenants", lambda: [
        _text("name"), _int("sessions"),
        Column("weight", DoubleType()),
        Column("rate_limit", DoubleType()), Column("burst", DoubleType()),
        _int("row_quota"), _int("byte_quota"),
        _int("rows_ingested"), _int("bytes_ingested"),
        _int("batches_admitted"), _int("batches_rejected"),
        _int("batches_shed"), _int("rows_rejected"), _int("rows_shed"),
        _int("duplicates"),
    ], tenants_rows)

    def admission_rows():
        return db.admission.admission_rows()

    admission = _view("repro_admission", lambda: [
        Column("enabled", BooleanType()), _int("queue_depth"),
        _int("tier"), _int("soft_depth"), _int("hard_depth"),
        _int("bulk_rows"), _int("tenants"),
        _int("batches_admitted"), _int("batches_rejected"),
        _int("batches_shed"), _int("rows_admitted"),
        _int("rows_rejected"), _int("rows_shed"),
        _int("duplicates"), _int("dedup_senders"),
    ], admission_rows)

    def watermarks_rows():
        neg_inf = float("-inf")

        def _t(value):
            return None if value == neg_inf else value

        out = []
        for name, stream in db.catalog.relations(cat.STREAM):
            tracker = stream.tracker
            if tracker is None:
                out.append((name, "arrival", None,
                            _t(stream.watermark), None, None, 0, 0))
                continue
            out.append((
                name, "event", tracker.bound, _t(tracker.watermark),
                _t(tracker.max_event_time), tracker.lag(),
                tracker.late_rows, tracker.injections,
            ))
        return out

    watermarks = _view("repro_watermarks", lambda: [
        _text("stream"), _text("mode"),
        Column("bound_seconds", DoubleType()),
        Column("watermark", TimestampType()),
        Column("max_event_time", TimestampType()),
        Column("lag_seconds", DoubleType()),
        _int("late_rows"), _int("injections"),
    ], watermarks_rows)

    def storage_rows():
        lifecycle = getattr(db, "wal_lifecycle", None)
        if lifecycle is None:
            return []
        return [lifecycle.status_row()]

    storage = _view("repro_storage", lambda: [
        _text("mode"), _int("live_segments"), _int("live_bytes"),
        _int("archive_segments"), _int("archive_bytes"),
        _int("archived_total"), _int("head_lsn"), _int("low_water_lsn"),
        _int("last_backup_lsn"), _int("backups"), _int("scrubs"),
        Column("last_scrub", TimestampType()), _int("scrub_errors"),
        _int("quarantined"),
    ], storage_rows)

    def partitions_rows():
        provider = getattr(db, "partition_registry", None)
        if provider is None:
            return []
        return provider()

    # one row per partition worker, provided by the coordinating
    # PartitionedEngine (repro.partition); empty when this database is
    # not a partition coordinator
    partitions = _view("repro_partitions", lambda: [
        _int("worker"), _int("pid"), _text("state"), _text("transport"),
        _int("streams"), _int("rows_routed"), _int("batches"),
        _int("spill_rows"), Column("watermark", TimestampType()),
        Column("lag_seconds", DoubleType()), _int("restarts"),
        _int("replayed_batches"),
        # what the worker spent on its frames vs. what the coordinator
        # spent blocked on it: wait >> busy is the hop, not the worker
        Column("busy_seconds", DoubleType()),
        Column("wait_seconds", DoubleType()),
    ], partitions_rows)

    def traces_rows():
        return db.obs.tracer.rows()

    traces = _view("repro_traces", lambda: [
        _int("trace_id"), _int("span_id"), _int("parent_id"),
        _text("name"), Column("start_time", TimestampType()),
        Column("duration_ms", DoubleType()),
    ], traces_rows)

    for view in (streams, channels, tables, indexes, cqs, io, stats,
                 supervisor, dead_letters, crashpoints, connections,
                 replication, metrics, cq_stats, operator_stats, traces,
                 tenants, admission, watermarks, storage, partitions):
        db.catalog.add_relation(view.name, SYSTEM, view)
