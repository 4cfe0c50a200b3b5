"""The Database facade: a full stream-relational database in one object.

This is the paper's thesis made concrete (Sections 2.3, 3): one system,
one SQL dialect, tables and streams side by side.  ``execute`` parses a
TruSQL statement and dispatches:

- DDL creates tables, streams, derived streams, views, channels, indexes;
- DML runs transactionally under MVCC;
- a SELECT over tables runs once (snapshot query);
- a SELECT touching a stream becomes a continuous query and returns a
  :class:`~repro.core.results.Subscription`.

Typical use::

    db = Database()
    db.execute("CREATE STREAM url_stream (url varchar(1024), "
               "atime timestamp CQTIME USER, client_ip varchar(50))")
    sub = db.execute("SELECT url, count(*) c FROM url_stream "
                     "<VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url")
    db.insert_stream("url_stream", [("/home", 30.0, "10.0.0.1")])
    db.advance_streams(120.0)
    for window in sub.poll():
        print(window.close_time, window.rows)

``Database()`` is an engine on an empty in-memory log.  An engine on a
log directory — new, reopened after a crash, or a standby — comes from
:func:`repro.replication.open_database`, the one way onto a log: it
builds the engine, replays the durable records and promotes it.
"""

from __future__ import annotations

from math import isfinite
from typing import List, Optional

from repro.catalog import catalog as cat
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, Schema
from repro.errors import (
    ExecutionError,
    PlanningError,
    StreamingError,
    TransactionError,
    UnknownObjectError,
)
from repro.exec.expressions import RowLayout, compile_expr
from repro.exec.planner import PlanContext, Planner
from repro.sql import ast, parse_script, parse_statement
from repro.storage import wal as walrec
from repro.storage.manager import StorageManager
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.views import StreamingView
from repro.txn.mvcc import TransactionManager
from repro.types.datatypes import TimestampType, type_from_name
from repro.core.results import ResultSet, Subscription


class Database:
    """An embedded stream-relational database instance."""

    def __init__(self, buffer_pages: int = 256,
                 stream_retention: Optional[float] = None,
                 disorder_policy: str = "raise",
                 stream_slack: float = 0.0,
                 supervised: bool = False,
                 fault_injector=None,
                 backpressure_policy: Optional[str] = None,
                 high_water_mark: Optional[int] = None,
                 observability: bool = True,
                 trace_sample_rate: float = 0.01,
                 vectorize: bool = True,
                 clock=None):
        from repro.admission import AdmissionController
        from repro.clock import SYSTEM_CLOCK
        from repro.obs import Observability
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.faults = fault_injector
        self.obs = Observability(enabled=observability,
                                 sample_rate=trace_sample_rate)
        self.storage = StorageManager(buffer_pages, faults=fault_injector)
        self.obs.bind_storage(self.storage)
        self.txn_manager = TransactionManager(self.storage.wal)
        self.catalog = Catalog()
        self.runtime = StreamingRuntime(
            self.catalog, self.txn_manager,
            default_retention=stream_retention,
            disorder_policy=disorder_policy,
            default_slack=stream_slack,
            backpressure_policy=backpressure_policy,
            high_water_mark=high_water_mark,
            vectorize=vectorize,
        )
        self.runtime.faults = fault_injector
        self.runtime.obs = self.obs if self.obs.enabled else None
        self.supervisor = None
        if supervised:
            self.enable_supervision()
        self._session_txn = None
        self._current_params = None
        # set by the network server (repro.server): a zero-argument
        # callable returning one row per live client connection, exposed
        # through the repro_connections system view
        self.connection_registry = None
        # set by the replication layer: a zero-argument callable
        # returning rows for the repro_replication_status system view
        self.replication_registry = None
        # set by `open_database`: the WalApplier that replayed this log
        self.applier = None
        # set by the partitioned engine (repro.partition): a zero-argument
        # callable returning rows for the repro_partitions system view
        self.partition_registry = None
        # admission control: tenants, quotas, and the ingest dedup index.
        # Created disabled; SET admission = on (or the server) turns the
        # rate/quota/tier checks on, dedup works regardless.
        self.admission = AdmissionController(clock=self.clock,
                                             faults=fault_injector)
        # WAL lifecycle: compaction, online backup, scrubbing.  Always
        # created; a no-op (or typed error) unless the WAL is segmented.
        from repro.storage.lifecycle import WalLifecycle
        self.wal_lifecycle = WalLifecycle(self)
        self.obs.bind_wal_lifecycle(self.wal_lifecycle)
        from repro.core.system_views import install_system_views
        install_system_views(self)
        self.obs.bind_admission(self.admission)

    def enable_replication_logging(self) -> None:
        """Start logging stream traffic and streaming DDL into the WAL.

        Base-stream ingest batches and heartbeats become ``stream_rows`` /
        ``stream_advance`` records, and every CREATE/DROP of a streaming
        object becomes a ``ddl_obj`` record — the extra record kinds a
        WAL-shipping standby (or a crash-consistent restart) needs to
        mirror runtime state, not just durable tables.  Idempotent;
        ``open_database`` turns it on for a log directory, the
        replication manager when a standby attaches to an in-memory one.
        """
        if self.runtime.stream_logger is not None:
            return
        wal = self.storage.wal

        def logger(name, kind, rows, when):
            if kind == "advance":
                wal.append(0, walrec.STREAM_ADVANCE, name, payload=when)
                return
            # one record per delivered batch (several when it exceeds
            # MAX_ROWS_PER_RECORD).  Rows applied inside an idempotent
            # ingest batch carry that batch's (sender, seq) as their rid,
            # so recovery can discard them when the batch's dedup marker
            # never became durable
            rid = self.runtime.current_batch
            step = walrec.MAX_ROWS_PER_RECORD
            for start in range(0, len(rows), step):
                wal.append(0, walrec.STREAM_ROWS, name, rid=rid,
                           payload=(when[start:start + step],
                                    rows[start:start + step]))

        self.runtime.stream_logger = logger
        from repro.streaming.supervisor import DEAD_LETTER_STREAM
        for name, stream in self.catalog.relations(cat.STREAM):
            if name != DEAD_LETTER_STREAM:
                stream.replication_log = logger
        self._backfill_ddl_log()

    def _backfill_ddl_log(self) -> None:
        """Log ``ddl_obj`` records for objects that predate logging.

        Recovery applies creates idempotently, so re-logging an object
        that is already on record is harmless; what matters is that no
        live object is *missing* from the log when a standby attaches.
        """
        from repro.sql.render import render_statement
        from repro.streaming.supervisor import DEAD_LETTER_STREAM
        for name, stream in self.catalog.relations(cat.STREAM):
            if name != DEAD_LETTER_STREAM:
                self._log_stream_ddl(stream)
        for name, view in self.catalog.relations(cat.VIEW):
            self._log_ddl({
                "op": "create", "kind": "view", "name": name,
                "query": render_statement(view.query),
            })
        for name, derived in self.catalog.relations(cat.DERIVED_STREAM):
            self._log_ddl({
                "op": "create", "kind": "derived_stream", "name": name,
                "query": render_statement(derived.cq.select),
            })
        for name, channel in self.catalog.channels():
            self._log_ddl({
                "op": "create", "kind": "channel", "name": name,
                "source": channel.source.name,
                "target": channel.table.name, "mode": channel.mode,
            })
        for name, index in self.catalog.indexes():
            self._log_ddl({
                "op": "create", "kind": "index", "name": name,
                "table": index.table_name,
                "columns": list(index.column_names),
                "unique": index.unique,
            })

    def _log_stream_ddl(self, stream) -> None:
        self._log_ddl({
            "op": "create", "kind": "stream", "name": stream.name,
            "columns": stream.schema.to_specs(),
            "retention": stream.retention, "slack": stream.slack,
            "disorder_policy": stream.disorder_policy,
            "watermark_bound": stream.watermark_bound,
            "partition_by": stream.partition_by,
        })

    def _log_ddl(self, payload: dict) -> None:
        """Durably log one streaming-DDL action as a ``ddl_obj`` record.

        A no-op until :meth:`enable_replication_logging` turns the extra
        record kinds on — a plain embedded database keeps the seed WAL
        byte-for-byte (and the seeded chaos fault schedule with it).
        """
        if self.runtime.stream_logger is not None:
            self.storage.wal.append(0, "ddl_obj", payload.get("name"),
                                    payload=payload, flush=True)

    def enable_supervision(self, policy=None):
        """Switch the runtime to supervised mode: every CQ, channel and
        base stream — existing and future — gets per-window error
        isolation, dead-letter quarantine, channel-write retry and
        automatic restart.  Idempotent; returns the supervisor."""
        if self.supervisor is not None:
            return self.supervisor
        from repro.streaming.supervisor import (
            CQSupervisor,
            DEAD_LETTER_STREAM,
        )
        supervisor = CQSupervisor(self.runtime, policy=policy)
        self.supervisor = supervisor
        self.runtime.supervisor = supervisor
        supervisor.dead_letter_stream()  # queryable from the start
        for name, stream in self.catalog.relations(cat.STREAM):
            if name != DEAD_LETTER_STREAM:
                supervisor.adopt_stream(stream)
        for cq in self.runtime.cqs().values():
            supervisor.adopt_cq(cq)
        for _name, channel in self.catalog.channels():
            supervisor.adopt_channel(channel)
        return supervisor

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------

    def execute(self, sql: str, params=None):
        """Run one TruSQL statement.

        ``params`` binds ``?`` placeholders positionally::

            db.execute("SELECT * FROM t WHERE a = ? AND b < ?", (1, 9.5))

        Returns a :class:`ResultSet` for snapshot queries, DML and DDL,
        or a :class:`Subscription` for continuous queries (placeholder
        values stay bound for the CQ's lifetime).
        """
        statement = parse_statement(sql)
        previous = self._current_params
        self._current_params = tuple(params) if params is not None else None
        try:
            return self._dispatch(statement)
        finally:
            self._current_params = previous

    def execute_script(self, sql: str) -> list:
        """Run a ``;``-separated script; returns one result per statement."""
        return [self._dispatch(s) for s in parse_script(sql)]

    def query(self, sql: str, params=None) -> ResultSet:
        """Run a statement that must be a snapshot query."""
        result = self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise PlanningError(
                "query() got a continuous query; use subscribe()")
        return result

    def subscribe(self, sql: str, params=None) -> Subscription:
        """Run a statement that must be a continuous query."""
        result = self.execute(sql, params)
        if not isinstance(result, Subscription):
            raise PlanningError(
                "subscribe() got a snapshot statement; use query()")
        return result

    def _dispatch(self, statement: ast.Statement):
        if isinstance(statement, (ast.Select, ast.SetOp)):
            return self._execute_select(statement)
        if isinstance(statement, ast.Explain):
            return self._explain_statement(statement)
        if isinstance(statement, ast.CreateTableAs):
            return self._create_table_as(statement)
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateStream):
            return self._create_stream(statement)
        if isinstance(statement, ast.CreateDerivedStream):
            return self._create_derived_stream(statement)
        if isinstance(statement, ast.CreateView):
            return self._create_view(statement)
        if isinstance(statement, ast.CreateChannel):
            return self._create_channel(statement)
        if isinstance(statement, ast.CreateIndex):
            return self._create_index(statement)
        if isinstance(statement, ast.Insert):
            return self._insert(statement)
        if isinstance(statement, ast.Update):
            return self._update(statement)
        if isinstance(statement, ast.Delete):
            return self._delete(statement)
        if isinstance(statement, ast.Truncate):
            table = self.catalog.get_relation(statement.table, cat.TABLE)
            return _count(self._with_txn(table.truncate))
        if isinstance(statement, ast.Analyze):
            return self._analyze(statement)
        if isinstance(statement, ast.Drop):
            return self._drop(statement)
        if isinstance(statement, ast.Begin):
            return self._begin()
        if isinstance(statement, ast.Commit):
            return self._commit()
        if isinstance(statement, ast.Rollback):
            return self._rollback()
        if isinstance(statement, ast.SetOption):
            return self._set_option(statement)
        if isinstance(statement, ast.ShowOption):
            return self._show_option(statement)
        raise ExecutionError(f"unhandled statement {statement!r}")

    # ------------------------------------------------------------------
    # session options (SET / SHOW)
    # ------------------------------------------------------------------

    _POLICY_OPTIONS = ("channel_retry_limit", "backoff_base",
                       "backoff_factor", "restart_limit", "max_restarts",
                       "dead_letter_capacity")

    def _set_option(self, statement: ast.SetOption) -> ResultSet:
        name, value = statement.name, statement.value
        if name == "supervision":
            if value is True:
                self.enable_supervision()
            elif self.supervisor is not None:
                raise ExecutionError(
                    "supervision cannot be disabled once enabled")
            return _ok()
        if name == "backpressure_policy":
            from repro.streaming.streams import BACKPRESSURE_POLICIES
            if value is False:
                value = None
            elif value not in BACKPRESSURE_POLICIES:
                raise ExecutionError(
                    f"unknown backpressure policy {value!r}; choose one "
                    f"of {', '.join(BACKPRESSURE_POLICIES)}"
                )
            self.runtime.backpressure_policy = value
            for _name, stream in self.catalog.relations(cat.STREAM):
                stream.backpressure_policy = value
            return _ok()
        if name == "high_water_mark":
            if value is False:
                value = None
            elif not isinstance(value, int) or value <= 0:
                raise ExecutionError(
                    "high_water_mark must be a positive integer (or OFF)")
            self.runtime.high_water_mark = value
            for _name, stream in self.catalog.relations(cat.STREAM):
                stream.high_water_mark = value
            return _ok()
        if name == "fault_seed":
            if not isinstance(value, int):
                raise ExecutionError("fault_seed must be an integer")
            from repro.faults import FaultInjector
            self.set_fault_injector(FaultInjector(seed=value))
            return _ok()
        if name == "slow_window_ms":
            if value is False:
                self.obs.slow_window_ms = None
            elif isinstance(value, (int, float)) \
                    and not isinstance(value, bool) and value >= 0:
                self.obs.slow_window_ms = float(value)
            else:
                raise ExecutionError(
                    "slow_window_ms takes a non-negative number (or OFF)")
            return _ok()
        if name == "trace_sample_rate":
            if value is False:
                value = 0.0
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)) \
                    or not 0.0 <= value <= 1.0:
                raise ExecutionError(
                    "trace_sample_rate must be a number between 0 and 1")
            self.obs.tracer.set_rate(float(value))
            self.obs.retune_streams()
            return _ok()
        if name == "admission":
            if not isinstance(value, bool):
                raise ExecutionError("admission takes on/off")
            self.admission.enabled = value
            return _ok()
        if name in ("tenant_rate_limit", "tenant_burst",
                    "tenant_row_quota", "tenant_byte_quota",
                    "tenant_weight"):
            if value is False:
                value = None
            elif isinstance(value, bool) \
                    or not isinstance(value, (int, float)) or value <= 0:
                raise ExecutionError(
                    f"{name} takes a positive number (or OFF)")
            key = name[len("tenant_"):]
            if key == "weight" and value is None:
                value = 1.0
            try:
                self.admission.set_default(key, value)
            except ValueError as exc:
                raise ExecutionError(str(exc))
            return _ok()
        if name in ("admission_soft_depth", "admission_hard_depth"):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value <= 0:
                raise ExecutionError(f"{name} must be a positive integer")
            attr = "soft_depth" if name == "admission_soft_depth" \
                else "hard_depth"
            setattr(self.admission, attr, value)
            return _ok()
        if name == "dedup_window":
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value <= 0:
                raise ExecutionError(
                    "dedup_window must be a positive integer")
            self.admission.dedup.window = value
            return _ok()
        if name in self._POLICY_OPTIONS:
            if self.supervisor is None:
                raise ExecutionError(
                    f"option {name!r} needs supervision; "
                    "run SET supervision = on first"
                )
            if not isinstance(value, (int, float)) or value is True:
                raise ExecutionError(f"option {name!r} takes a number")
            current = getattr(self.supervisor.policy, name)
            setattr(self.supervisor.policy, name, type(current)(value))
            return _ok()
        raise ExecutionError(f"unknown session option {name!r}")

    def _show_option(self, statement: ast.ShowOption) -> ResultSet:
        options = {
            "supervision": self.supervisor is not None,
            "backpressure_policy": self.runtime.backpressure_policy,
            "high_water_mark": self.runtime.high_water_mark,
            "fault_seed": getattr(self.faults, "seed", None),
            "observability": self.obs.enabled,
            "slow_window_ms": self.obs.slow_window_ms,
            "trace_sample_rate": self.obs.tracer.sample_rate,
            "admission": self.admission.enabled,
            "tenant_rate_limit": self.admission.defaults["rate_limit"],
            "tenant_burst": self.admission.defaults["burst"],
            "tenant_row_quota": self.admission.defaults["row_quota"],
            "tenant_byte_quota": self.admission.defaults["byte_quota"],
            "tenant_weight": self.admission.defaults["weight"],
            "admission_soft_depth": self.admission.soft_depth,
            "admission_hard_depth": self.admission.hard_depth,
            "dedup_window": self.admission.dedup.window,
        }
        if self.supervisor is not None:
            for key in self._POLICY_OPTIONS:
                options[key] = getattr(self.supervisor.policy, key)
        if statement.name == "all":
            rows = [(key, _option_text(value))
                    for key, value in sorted(options.items())]
            return ResultSet(["name", "setting"], rows)
        if statement.name not in options:
            raise ExecutionError(
                f"unknown session option {statement.name!r}")
        return ResultSet([statement.name],
                         [(_option_text(options[statement.name]),)])

    def set_fault_injector(self, injector) -> None:
        """Install (or replace) the fault injector on every layer:
        storage, WAL, buffer pool, and all current streams, CQs and
        channels.  Future objects inherit it through the runtime."""
        self.faults = injector
        self.storage.disk.faults = injector
        self.storage.pool.faults = injector
        self.storage.wal.faults = injector
        self.runtime.faults = injector
        for _name, stream in self.catalog.relations(cat.STREAM):
            stream.faults = injector
        for cq in self.runtime.cqs().values():
            cq.faults = injector
        for _name, channel in self.catalog.channels():
            channel.faults = injector

    # ------------------------------------------------------------------
    # SELECT: snapshot vs continuous
    # ------------------------------------------------------------------

    def _execute_select(self, select):
        if self._query_references_streams(select):
            if isinstance(select, ast.SetOp):
                raise PlanningError(
                    "set operations over streams are not supported; stage "
                    "the branches through derived streams instead"
                )
            cq = self.runtime.create_cq(select, params=self._current_params)
            return Subscription(cq, self.runtime)
        plan = self._plan_snapshot(select)
        rows = list(plan.execute(self._execution_ctx()))
        return ResultSet(plan.column_names, rows)

    def _execution_ctx(self) -> dict:
        ctx = {}
        if self._current_params is not None:
            ctx["params"] = self._current_params
        return ctx

    def _plan_snapshot(self, select):
        ctx = PlanContext(
            self.catalog,
            self.txn_manager,
            snapshot_fn=self._statement_snapshot_fn(),
            own_txid_fn=self._own_txid_fn(),
        )
        return Planner(ctx).plan_query(select)

    def explain(self, sql: str) -> str:
        """The physical plan of a snapshot query (or of a CQ's per-window
        plan) as indented text.  ``sql`` may be a bare SELECT or a full
        ``EXPLAIN [ANALYZE] ...`` statement."""
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Explain):
            if not isinstance(statement, (ast.Select, ast.SetOp)):
                raise PlanningError(
                    "EXPLAIN supports SELECT statements only")
            statement = ast.Explain(query=statement)
        result = self._explain_statement(statement)
        return "\n".join(row[0] for row in result.rows)

    def _explain_statement(self, statement: ast.Explain) -> ResultSet:
        analyze = statement.analyze
        if statement.target is not None:
            text = self._explain_target(statement.target).explain(
                analyze=analyze)
        elif self._query_references_streams(statement.query):
            # prefer a running CQ with the same plan so ANALYZE shows
            # live numbers; otherwise plan a transient one
            cq = self._find_running_cq(statement.query) \
                or self.runtime._make_cq(statement.query)
            text = cq.explain(analyze=analyze)
        else:
            plan = self._plan_snapshot(statement.query)
            if analyze:
                plan.instrument()
                list(plan.execute(self._execution_ctx()))
            text = plan.explain(analyze=analyze)
        return ResultSet(["QUERY PLAN"], [(line,) for line in text.split("\n")])

    def _explain_target(self, name: str):
        """Resolve an ``EXPLAIN <name>`` target to a running CQ: by CQ
        name, derived-stream name, or channel name (via its source)."""
        cqs = self.runtime.cqs()
        for key in (name, f"derived:{name}"):
            if key in cqs:
                return cqs[key]
        channel = dict(self.catalog.channels()).get(name)
        if channel is not None:
            key = f"derived:{channel.source.name}"
            if key in cqs:
                return cqs[key]
        raise ExecutionError(
            f"no running CQ, derived stream or channel named {name!r}")

    def _find_running_cq(self, query):
        for cq in self.runtime.cqs().values():
            if getattr(cq, "select", None) == query:
                return cq
        return None

    def _query_references_streams(self, node) -> bool:
        if isinstance(node, ast.SetOp):
            return (self._query_references_streams(node.left)
                    or self._query_references_streams(node.right))
        if isinstance(node, ast.Select):
            return self._references_streams(node.from_clause)
        return False

    def _references_streams(self, node) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.TableRef):
            kind = self.catalog.relation_kind(node.name)
            if kind in (cat.STREAM, cat.DERIVED_STREAM):
                return True
            if kind == cat.VIEW:
                view = self.catalog.get_relation(node.name)
                return bool(getattr(view, "references_streams", False))
            return False
        if isinstance(node, ast.SubqueryRef):
            return self._query_references_streams(node.query)
        if isinstance(node, ast.Join):
            return (self._references_streams(node.left)
                    or self._references_streams(node.right))
        return False

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def _create_table(self, statement: ast.CreateTable) -> ResultSet:
        if statement.if_not_exists and self.catalog.has_relation(statement.name):
            return _ok()
        schema = _schema_from_defs(statement.columns, for_stream=False)
        self._register_table(statement.name, schema)
        return _ok()

    def _register_table(self, name: str, schema: Schema):
        """Create a table and log its DDL durably, so a replay of the log
        can rebuild the schema after a crash."""
        table = self.storage.create_table(name, schema)
        self.catalog.add_relation(name, cat.TABLE, table)
        self.storage.wal.append(0, "ddl", name, payload=schema.to_specs(),
                                flush=True)
        return table

    def _create_stream(self, statement: ast.CreateStream) -> ResultSet:
        if statement.if_not_exists and self.catalog.has_relation(statement.name):
            return _ok()
        schema = _schema_from_defs(statement.columns, for_stream=True)
        stream = self.runtime.create_base_stream(
            statement.name, schema,
            watermark_bound=statement.watermark_bound,
            partition_by=statement.partition_by)
        self._log_stream_ddl(stream)
        return _ok()

    def _create_derived_stream(
            self, statement: ast.CreateDerivedStream) -> ResultSet:
        from repro.sql.render import render_statement
        self.runtime.create_derived_stream(statement.name, statement.query)
        self._log_ddl({
            "op": "create", "kind": "derived_stream",
            "name": statement.name,
            "query": render_statement(statement.query),
        })
        return _ok()

    def _create_view(self, statement: ast.CreateView) -> ResultSet:
        references = self._query_references_streams(statement.query)
        view = StreamingView(statement.name, statement.query, references)
        self.catalog.add_relation(statement.name, cat.VIEW, view)
        from repro.sql.render import render_statement
        self._log_ddl({
            "op": "create", "kind": "view", "name": statement.name,
            "query": render_statement(statement.query),
        })
        return _ok()

    def _create_table_as(self, statement: ast.CreateTableAs) -> ResultSet:
        """CREATE TABLE ... AS SELECT: infer the schema, copy the rows."""
        if statement.if_not_exists and \
                self.catalog.has_relation(statement.name):
            return _ok()
        if self._query_references_streams(statement.query):
            raise PlanningError(
                "CREATE TABLE AS over a stream is continuous by nature; "
                "use CREATE STREAM ... AS plus a channel instead"
            )
        plan = self._plan_snapshot(statement.query)
        rows = list(plan.execute({}))
        table = self._register_table(statement.name, plan.output_schema())
        self._with_txn(lambda txn: _insert_all(table, txn, rows))
        return _count(len(rows))

    def _create_channel(self, statement: ast.CreateChannel) -> ResultSet:
        table = self.catalog.get_relation(statement.target, cat.TABLE)
        self.runtime.create_channel(
            statement.name, statement.source, table, statement.mode)
        self._log_ddl({
            "op": "create", "kind": "channel", "name": statement.name,
            "source": statement.source, "target": statement.target,
            "mode": statement.mode,
        })
        return _ok()

    def _create_index(self, statement: ast.CreateIndex) -> ResultSet:
        table = self.catalog.get_relation(statement.table, cat.TABLE)
        index = self.storage.create_index(
            statement.name, table, statement.columns, statement.unique)
        self.catalog.add_index(statement.name, index)
        self._log_ddl({
            "op": "create", "kind": "index", "name": statement.name,
            "table": statement.table, "columns": list(statement.columns),
            "unique": statement.unique,
        })
        return _ok()

    def _analyze(self, statement: ast.Analyze) -> ResultSet:
        """Collect planner statistics for one table or all tables."""
        if statement.name is not None:
            tables = [(statement.name,
                       self.catalog.get_relation(statement.name, cat.TABLE))]
        else:
            tables = list(self.catalog.relations(cat.TABLE))
        snapshot = self.txn_manager.take_snapshot()
        rows = []
        for name, table in tables:
            stats = table.analyze(snapshot, self.txn_manager)
            rows.append((name, stats.row_count, stats.page_count))
        return ResultSet(["table_name", "row_count", "pages"], rows)

    def _drop(self, statement: ast.Drop) -> ResultSet:
        name, kind = statement.name, statement.kind
        try:
            if kind == "table":
                for channel_name, channel in list(self.catalog.channels()):
                    if channel.table.name.lower() == name.lower():
                        raise ExecutionError(
                            f"channel {channel_name!r} writes into "
                            f"{name!r}; drop the channel first"
                        )
                table = self.catalog.drop_relation(name, cat.TABLE)
                self.storage.drop_table_storage(table)
            elif kind == "stream":
                self.runtime.drop_stream(name)
                self.admission.dedup.forget_stream(name)
            elif kind == "view":
                self.catalog.drop_relation(name, cat.VIEW)
            elif kind == "channel":
                self.runtime.drop_channel(name)
            elif kind == "index":
                index = self.catalog.drop_index(name)
                table = self.catalog.get_relation(index.table_name, cat.TABLE)
                table.detach_index(index)
        except UnknownObjectError:
            if statement.if_exists:
                return _ok()
            raise
        if kind == "table":
            # like its `ddl` record: logged with or without a stream logger
            self.storage.wal.append(
                0, "ddl_obj", name, flush=True,
                payload={"op": "drop", "kind": kind, "name": name})
        elif kind in ("stream", "view", "channel", "index"):
            self._log_ddl({"op": "drop", "kind": kind, "name": name})
        return _ok()

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _insert(self, statement: ast.Insert) -> ResultSet:
        kind = self.catalog.relation_kind(statement.table)
        if kind == cat.STREAM:
            return self._insert_into_stream(statement)
        table = self.catalog.get_relation(statement.table, cat.TABLE)
        rows = self._insert_rows(statement, table.schema)
        count = self._with_txn(
            lambda txn: _insert_all(table, txn, rows))
        return _count(count)

    def _insert_rows(self, statement: ast.Insert, schema: Schema) -> list:
        if statement.query is not None:
            plan = self._plan_snapshot(statement.query)
            produced = list(plan.execute(self._execution_ctx()))
        else:
            empty = RowLayout([])
            produced = [
                tuple(compile_expr(e, empty)(None, self._execution_ctx())
                      for e in row)
                for row in statement.rows
            ]
        if statement.columns is None:
            return produced
        positions = [schema.index_of(c) for c in statement.columns]
        out = []
        for row in produced:
            if len(row) != len(positions):
                raise ExecutionError(
                    f"INSERT has {len(row)} values for "
                    f"{len(positions)} columns"
                )
            full = [None] * len(schema)
            for position, value in zip(positions, row):
                full[position] = value
            out.append(tuple(full))
        return out

    def _insert_into_stream(self, statement: ast.Insert) -> ResultSet:
        stream = self.runtime.get_stream(statement.table)
        rows = self._insert_rows(statement, stream.schema)
        accepted = stream.insert_many(rows)
        return _count(accepted)

    def _update(self, statement: ast.Update) -> ResultSet:
        table = self.catalog.get_relation(statement.table, cat.TABLE)
        layout = _table_layout(table)
        predicate = (compile_expr(statement.where, layout)
                     if statement.where is not None else None)
        assignment_fns = [
            (table.schema.index_of(column), compile_expr(expr, layout))
            for column, expr in statement.assignments
        ]
        ctx = self._execution_ctx()

        def run(txn):
            matches = [
                (rid, version)
                for rid, version in table.heap.scan(table._pool)
                if self.txn_manager.visible(version, txn.snapshot, txn.txid)
                and (predicate is None
                     or predicate(version.values, ctx) is True)
            ]
            for rid, version in matches:
                new_values = list(version.values)
                for position, fn in assignment_fns:
                    new_values[position] = fn(version.values, ctx)
                table.update_version(txn, rid, version, tuple(new_values))
            return len(matches)

        return _count(self._with_txn(run))

    def _delete(self, statement: ast.Delete) -> ResultSet:
        table = self.catalog.get_relation(statement.table, cat.TABLE)
        layout = _table_layout(table)
        predicate = (compile_expr(statement.where, layout)
                     if statement.where is not None else None)
        ctx = self._execution_ctx()

        def run(txn):
            matches = [
                (rid, version)
                for rid, version in table.heap.scan(table._pool)
                if self.txn_manager.visible(version, txn.snapshot, txn.txid)
                and (predicate is None
                     or predicate(version.values, ctx) is True)
            ]
            for rid, version in matches:
                table.delete_version(txn, rid, version)
            return len(matches)

        return _count(self._with_txn(run))

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def _begin(self) -> ResultSet:
        if self._session_txn is not None:
            raise TransactionError("a transaction is already in progress")
        self._session_txn = self.txn_manager.begin()
        return _ok()

    def _commit(self) -> ResultSet:
        if self._session_txn is None:
            raise TransactionError("no transaction in progress")
        # cleared first: a commit whose flush fails aborts the transaction
        txn, self._session_txn = self._session_txn, None
        txn.commit()
        return _ok()

    def _rollback(self) -> ResultSet:
        if self._session_txn is None:
            raise TransactionError("no transaction in progress")
        self._session_txn.abort()
        self._session_txn = None
        return _ok()

    def _with_txn(self, fn):
        """Run ``fn(txn)`` in the session txn or a fresh autocommit one."""
        if self._session_txn is not None:
            return fn(self._session_txn)
        txn = self.txn_manager.begin()
        try:
            result = fn(txn)
        except Exception:
            if txn.is_active():
                txn.abort()
            raise
        txn.commit()
        return result

    def _statement_snapshot_fn(self):
        if self._session_txn is not None:
            txn = self._session_txn
            return lambda: txn.snapshot
        snapshot = self.txn_manager.take_snapshot()
        return lambda: snapshot

    def _own_txid_fn(self):
        if self._session_txn is not None:
            txn = self._session_txn
            return lambda: txn.txid
        return None

    # ------------------------------------------------------------------
    # convenience API (benchmarks, workload generators, examples)
    # ------------------------------------------------------------------

    def insert_table(self, name: str, rows) -> int:
        """Bulk insert Python tuples into a table (bypasses SQL parsing)."""
        table = self.catalog.get_relation(name, cat.TABLE)
        return self._with_txn(lambda txn: _insert_all(table, txn, rows))

    def insert_stream(self, name: str, rows, at: Optional[float] = None) -> int:
        """Push Python tuples into a base stream."""
        stream = self.runtime.get_stream(name)
        return stream.insert_many(rows, at)

    def ingest_batch(self, name: str, rows, at: Optional[float] = None,
                     sender: Optional[str] = None,
                     seq: Optional[int] = None,
                     watermark: Optional[float] = None) -> dict:
        """Apply one ingest batch; returns counted results
        ``{"accepted", "shed", "duplicate"}``.

        With ``(sender, seq)`` the batch is idempotent: a sequence number
        already recorded for this stream+sender is recognised as a replay
        and skipped whole.  Applied rows are WAL-logged tagged with the
        batch id, then one ``stream_dedup`` marker is appended and the
        log is flushed — rows and marker become durable together, so
        recovery treats the batch atomically: marker durable means the
        rows count and a retry is a duplicate; marker lost means the
        rows are discarded and the retry is accepted fresh.

        ``watermark`` piggybacks an explicit watermark injection on the
        batch (event-time streams): after the rows land, the stream's
        watermark is advanced to at least that value and made durable.
        For event-time streams the result carries the stream's watermark
        after the batch under ``"watermark"`` — the ingest ack, so
        sources can observe their own completeness claims.
        """
        stream = self.runtime.get_stream(name)
        if watermark is not None and not isfinite(watermark):
            # refused before a row lands, not after the batch is durable
            raise StreamingError(
                f"stream {name!r}: watermark {watermark!r} is not a "
                "finite time")
        idempotent = sender is not None and seq is not None
        if idempotent:
            sender = str(sender)
            seq = int(seq)
            if self.admission.dedup.seen(stream.name, sender, seq):
                counts = {"accepted": 0, "shed": 0, "dropped": 0,
                          "duplicate": len(list(rows))}
                if stream.tracker is not None:
                    counts["watermark"] = stream.watermark
                return counts
            self.runtime.current_batch = (sender, seq)
        try:
            counts = stream.insert_many_counted(rows, at)
        finally:
            self.runtime.current_batch = None
        if idempotent:
            self._persist_dedup_marker(stream.name, sender, seq)
        if watermark is not None:
            self.inject_watermark(name, watermark)
        if stream.tracker is not None:
            counts["watermark"] = stream.watermark
        counts["duplicate"] = 0
        return counts

    def inject_watermark(self, name: str, watermark: float) -> float:
        """Explicitly advance a stream's watermark and make it durable.

        The injection closes any windows the new watermark passes, is
        appended to the WAL as a ``stream_advance`` record, and the log
        is flushed so the watermark survives a crash — recovery and
        standby promotion land it exactly where it was (crashpoint
        ``eventtime.watermark_persist`` sits between the advance and the
        flush that makes it durable).  Returns the stream's watermark
        after the injection, which may exceed the requested value (the
        watermark never regresses).
        """
        stream = self.runtime.get_stream(name)
        stream.advance_to(watermark)
        faults = self.faults
        if faults is not None and faults.armed:
            faults.check("eventtime.watermark_persist",
                         f"{name}:{watermark}")
        if self.runtime.stream_logger is not None:
            self.storage.wal.flush()
        return stream.watermark

    def _persist_dedup_marker(self, stream_name: str, sender: str,
                              seq: int) -> None:
        """Make an applied batch's dedup marker durable (and remembered).

        The in-memory record happens even when the persist step dies
        (crashpoint ``admission.dedup_persist``): the rows *were* applied
        in this process, so an in-process retry must be recognised as a
        duplicate.  After a real crash the lost marker means recovery
        discards the batch's rid-tagged rows, and the client's retry is
        accepted fresh — either way, exactly once.
        """
        faults = self.faults
        wal = self.storage.wal
        try:
            if faults is not None and faults.armed:
                faults.check("admission.dedup_persist",
                             f"{stream_name}:{sender}:{seq}")
            if self.runtime.stream_logger is not None:
                wal.append(0, "stream_dedup", stream_name,
                           rid=(sender, seq), flush=True)
        finally:
            self.admission.dedup.record(stream_name, sender, seq)

    def advance_streams(self, event_time: float) -> None:
        """Heartbeat every base stream to ``event_time`` (closes windows)."""
        self.runtime.heartbeat_all(event_time)

    def flush_streams(self) -> None:
        """End-of-input: force all pending windows out."""
        self.runtime.flush_all()

    def get_table(self, name: str):
        """The :class:`~repro.storage.table.Table` object behind ``name``."""
        return self.catalog.get_relation(name, cat.TABLE)

    def get_stream(self, name: str):
        """The :class:`~repro.streaming.streams.BaseStream` named ``name``."""
        return self.runtime.get_stream(name)

    def table_rows(self, name: str) -> List[tuple]:
        """All visible rows of a table, via a fresh snapshot."""
        table = self.catalog.get_relation(name, cat.TABLE)
        snapshot = self.txn_manager.take_snapshot()
        return [values for _rid, values in
                table.scan(snapshot, self.txn_manager)]

    # -- I/O cost accounting (used by every benchmark) ---------------------

    @property
    def disk(self):
        return self.storage.disk

    def io_snapshot(self):
        """Copy of the simulated disk's counters (interval accounting)."""
        return self.storage.disk.snapshot()

    def drop_caches(self) -> None:
        """Simulate a cold start: empty the buffer pool."""
        self.storage.pool.clear()

    def backup(self, dest: str) -> dict:
        """Take an online backup of the WAL into ``dest``.

        Requires a segmented (data-dir) WAL; see
        :meth:`~repro.storage.lifecycle.WalLifecycle.backup`.
        """
        return self.wal_lifecycle.backup(dest)

    def compact_wal(self) -> dict:
        """Run one checkpoint-anchored compaction pass (see
        :meth:`~repro.storage.lifecycle.WalLifecycle.compact`)."""
        return self.wal_lifecycle.compact()

    def scrub_wal(self) -> dict:
        """Run one integrity-scrub pass over sealed segments and heap
        pages (see :meth:`~repro.storage.lifecycle.WalLifecycle.scrub`)."""
        return self.wal_lifecycle.scrub()

    def close(self) -> None:
        """Shut down the streaming side: stop every CQ (including those
        behind derived streams), detach every channel and flush the WAL
        (stream rows logged since the last commit reach disk here).
        Tables and the WAL remain readable; the object can still serve
        snapshot queries but no longer reacts to stream input."""
        for name, _channel in list(self.catalog.channels()):
            self.runtime.drop_channel(name)
        for _name, cq in list(self.runtime.cqs().items()):
            self.runtime.stop_cq(cq)
        self.storage.wal.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def vacuum(self, table_name: Optional[str] = None) -> int:
        """Reclaim dead MVCC versions; returns how many were removed.

        REPLACE-mode channels in particular churn versions fast (each
        window deletes the previous result); run this periodically in a
        long-lived process.
        """
        if table_name is not None:
            table = self.catalog.get_relation(table_name, cat.TABLE)
            return table.vacuum(self.txn_manager)
        removed = 0
        for _name, table in self.catalog.relations(cat.TABLE):
            removed += table.vacuum(self.txn_manager)
        return removed


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _ok() -> ResultSet:
    return ResultSet([], [], rowcount=0)


def _option_text(value) -> str:
    """SHOW renders options the way psql does: on/off, or the value."""
    if value is True:
        return "on"
    if value is False or value is None:
        return "off"
    return str(value)


def _count(n: int) -> ResultSet:
    return ResultSet([], [], rowcount=n)


def _insert_all(table, txn, rows) -> int:
    count = 0
    for row in rows:
        table.insert(txn, row)
        count += 1
    return count


def _table_layout(table) -> RowLayout:
    return RowLayout([
        (table.name, c.name, c.datatype) for c in table.schema
    ])


def _schema_from_defs(defs: List[ast.ColumnDef], for_stream: bool) -> Schema:
    columns = []
    for definition in defs:
        datatype = type_from_name(definition.type_name, definition.length)
        columns.append(Column(
            definition.name, datatype,
            not_null=definition.not_null,
            primary_key=definition.primary_key,
            cqtime=definition.cqtime if for_stream else None,
        ))
    if for_stream and not any(c.cqtime for c in columns):
        # convenience default: the first timestamp column orders the stream
        for column in columns:
            if isinstance(column.datatype, TimestampType):
                column.cqtime = "user"
                break
        else:
            raise StreamingError(
                "a stream needs a CQTIME column (or at least one "
                "timestamp column)"
            )
    return Schema(columns)
