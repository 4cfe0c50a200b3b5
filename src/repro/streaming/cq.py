"""Continuous queries: the generic per-window execution path.

A CQ is "a query [that] produces a stream ... and runs until explicitly
terminated" (Section 3.1).  This module implements the paper's RSTREAM
semantics directly: a window operator turns the stream into a sequence of
relations, and the ordinary relational plan — built by the same planner
that serves snapshot queries — is executed once per relation, with the
``cq_close`` timestamp supplied through the execution context.

Table reads inside the plan go through a
:class:`~repro.txn.window_consistency.WindowConsistentView`, refreshed at
each window boundary (Section 4's window consistency).

Window-less stream references are allowed for pure row-wise transforms
(filter/project), which run per-tuple without buffering.

A CQ's output is one stream of typed records ``(kind, rows, open,
close)`` — ``window`` (a final), ``retract`` / ``correct`` (a late row
re-opened a closed window) and ``early`` — handed to every sink on one
list.  A CQ is one object for its whole life, built once from its
query; rebuilding its window state is recovery's job, at boot and at
promotion (:mod:`repro.streaming.recovery`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from operator import is_
from typing import List, Optional

from repro.catalog import catalog as cat
from repro.errors import PartitionError, PlanningError, WindowError
from repro.eventtime.lateness import DEAD_LETTER, DROP, RETRACT
from repro.eventtime.operator import (
    EMIT_ON_WATERMARK,
    EMIT_PERIODIC,
    EventTimeWindowOperator,
)
from repro.exec import batch_ops, operators as ops
from repro.exec.expressions import CONTEXT_FUNCTIONS, PlannedSubquery, \
    RowLayout
from repro.exec.planner import PlanContext, Planner
from repro.exec.vectorize import vectorize_plan, walk
from repro.sql import ast
from repro.streaming.shared import join_store, leave_store
from repro.streaming.streams import BaseStream, DerivedStream, StreamConsumer
from repro.streaming.windows import Partials, WindowSpec
from repro.txn.window_consistency import WindowConsistentView


@dataclass
class CQStats:
    """Per-CQ counters used by the benchmarks and stats views."""

    tuples_in: int = 0
    windows_evaluated: int = 0
    rows_scanned: int = 0    # rows fed into per-window plan executions
    rows_out: int = 0
    last_close: Optional[float] = None
    # window-close wall time (plan execution + sink delivery), kept by
    # the observability layer
    last_window_seconds: float = 0.0
    total_window_seconds: float = 0.0
    max_window_seconds: float = 0.0
    slow_windows: int = 0


def inline_streaming_views(node, catalog):
    """Replace references to streaming views with their defining query.

    "a query that defines a Streaming View is only instantiated when the
    view is itself used in another query" (Section 3.2) — inlining at CQ
    compile time is exactly that lazy instantiation.  A window clause on
    the view reference is pushed onto the view's (window-less) stream
    reference, so ``FROM filtered_view <VISIBLE '1 minute'>`` works.  The
    view query is deep-copied: the catalog's stored AST is never mutated.
    """
    import copy

    if isinstance(node, ast.TableRef):
        if catalog.relation_kind(node.name) == cat.VIEW:
            view = catalog.get_relation(node.name)
            if getattr(view, "references_streams", False):
                if not isinstance(view.query, ast.Select):
                    raise PlanningError(
                        f"streaming view {node.name!r} is a set operation; "
                        "set operations over streams are not supported"
                    )
                query = copy.deepcopy(view.query)
                query.from_clause = inline_streaming_views(
                    query.from_clause, catalog)
                if node.window is not None:
                    inner = find_stream_refs(query.from_clause, catalog)
                    if len(inner) == 1 and inner[0].window is None:
                        inner[0].window = node.window
                    else:
                        raise PlanningError(
                            f"cannot apply a window to view {node.name!r}: "
                            "its stream is already windowed"
                        )
                return ast.SubqueryRef(query, node.alias or node.name)
        return node
    if isinstance(node, ast.SubqueryRef):
        if isinstance(node.query, ast.Select) \
                and node.query.from_clause is not None:
            node.query.from_clause = inline_streaming_views(
                node.query.from_clause, catalog)
        return node
    if isinstance(node, ast.Join):
        node.left = inline_streaming_views(node.left, catalog)
        node.right = inline_streaming_views(node.right, catalog)
        return node
    return node


def find_stream_refs(node, catalog) -> List[ast.TableRef]:
    """All TableRefs in a FROM tree (recursing into subqueries) that name
    a stream or derived stream."""
    if node is None:
        return []
    if isinstance(node, ast.TableRef):
        kind = catalog.relation_kind(node.name)
        if kind in (cat.STREAM, cat.DERIVED_STREAM):
            return [node]
        return []
    if isinstance(node, ast.SubqueryRef):
        if not isinstance(node.query, ast.Select):
            return []
        return find_stream_refs(node.query.from_clause, catalog)
    if isinstance(node, ast.Join):
        return (find_stream_refs(node.left, catalog)
                + find_stream_refs(node.right, catalog))
    return []


def stream_layout(stream) -> RowLayout:
    """RowLayout of a stream's schema (alias applied later by planner)."""
    return RowLayout([
        (None, column.name, column.datatype)
        for column in stream.schema
    ])


class FailedPartial:
    """A partial whose reduction raised (a slice sealed mid-delivery, a
    shard's window on a partition worker): the error is deferred to the
    first window entry that merges it, so it surfaces inside the
    supervisable window callback (where the supervisor can quarantine
    it as a poison window), not mid-delivery or in a worker's frame."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error


#: the nodes a split's chain may hold below its aggregate, in either gear
_CHAIN = (ops.Filter, ops.Project, batch_ops.BatchFilter,
          batch_ops.BatchProject)


def _rendered(node):
    """The expressions of an aggregate or a chain node, in either gear,
    and what renders them, from its ``vector_info``."""
    info = node.vector_info
    if isinstance(node, ops.HashAggregate):
        group_exprs, agg_calls, _layout = info
        return group_exprs + agg_calls, (group_exprs, agg_calls)
    if isinstance(node, (ops.Filter, batch_ops.BatchFilter)):
        return [info[0]], info[0]
    return info[0], info[0]


def _slice_signature(node) -> Optional[str]:
    """What a slice partial owes to ``node`` — the split's aggregate or
    a node of its chain — rendered from its ``vector_info``, or None
    when the node must not run per slice: it reads ``cq_close`` /
    ``cq_open`` (they vary per window), or it is an aggregate whose
    state grows with its rows."""
    if isinstance(node, ops.HashAggregate) \
            and any(agg.state_grows for agg, _arg in node._agg_specs):
        return None
    exprs, rendered = _rendered(node)
    for expr in exprs:
        for sub in ast.walk_expr(expr):
            if isinstance(sub, ast.FunctionCall) \
                    and sub.name in CONTEXT_FUNCTIONS:
                return None
    return repr(rendered)


class SlidingMerge:
    """A window's partials merged into one in a constant number of
    pairwise merges, whatever the window's length: two stacks over the
    partials (Tangwongsan et al.'s two-stacks sliding aggregation).

    Each window on a sliding grid is the one before it less its oldest
    partials plus the newest.  The held partials are a *front* (the
    older ones, each with its suffix: its merge with every front
    partial after it) and a *back* (the newer ones and their running
    merge).  A window is the oldest front suffix merged with the back:
    sliding drops front partials, pushes new ones onto the back (one
    merge each), and when the front runs out the back is flipped into
    it.  Merging is associative, key order included (a merge keeps
    first-seen order), so every window equals the left fold.

    Partials are matched by identity: the stacks hold them, so no
    other object can take their place.  A window that is not the held
    partials less a prefix plus new ones (a re-sealed slice, the
    correction of an older window, a boundary's shard partials, a
    window of one) is folded left, and the fold becomes the back.
    Input partials are never changed (a store's partials are shared by
    windows and readers); the stacks change only their own merges.

    The stacks never hold more entries (keys summed over the suffixes
    and the back merge) than the rows of the slices they cover.  A
    flip whose suffixes could outgrow them (keys that do not repeat
    across slices, where the stacks would save nothing) is not made:
    the window folds left, at the fold's merges.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._parts = []     # the held partials, oldest first
        self._rows = []      # the rows each was reduced from
        self._suffix = []    # front: _suffix[i] merges _parts[i:len(_suffix)]
        self._back = None    # the merge of _parts[len(_suffix):]

    def merge(self, window, rows, merge_partials):
        """``window``'s partials merged, given the rows behind each
        partial (None: nothing to bound the stacks by, the window
        folds).  ``merge_partials`` makes every merge, so its caller
        sees them all.  The result is read, never changed."""
        if rows is None or len(window) < 2:
            self.clear()
            return merge_partials(window)
        parts = self._parts
        first = window[0]
        start = next((i for i, part in enumerate(parts) if part is first),
                     len(parts))
        kept = len(parts) - start
        if not kept or kept > len(window) \
                or not all(map(is_, parts[start:], window)):
            return self._restart(window, rows, merge_partials)
        del parts[:start], self._rows[:start]
        if start <= len(self._suffix):
            del self._suffix[:start]
        elif not self._flip(merge_partials):
            return self._restart(window, rows, merge_partials)
        for part, count in zip(window[kept:], rows[kept:]):
            parts.append(part)
            self._rows.append(count)
            back = self._back
            self._back = part if back is None \
                else merge_partials((back, part))
        if not self._suffix:
            return self._back
        if self._back is None:
            return self._suffix[0]
        return merge_partials((self._suffix[0], self._back))

    def _flip(self, merge_partials) -> bool:
        """The front ran out: make every held partial a front one,
        unless their suffixes could hold more entries than the rows
        behind them.  A suffix holds at most the back merge's keys (the
        back covered every partial it merges) and at most the keys of
        those partials; every run of suffixes from the newest, so
        whatever a later slide leaves, must stay within its rows.
        Nothing is merged when the bound trips."""
        parts = self._parts
        cap = len(self._back)
        keys = bound = covered = 0
        for part, count in zip(reversed(parts), reversed(self._rows)):
            keys += len(part)
            bound += min(cap, keys)
            covered += count
            if bound > covered:
                return False
        self._back = None
        suffix = [parts[-1]]
        for part in reversed(parts[:-1]):
            suffix.append(merge_partials((part, suffix[-1])))
        suffix.reverse()
        self._suffix = suffix
        return True

    def _restart(self, window, rows, merge_partials):
        """Fold ``window`` left and hold the fold as the back of a new
        pair of stacks."""
        self.clear()
        merged = merge_partials(window)
        self._parts = list(window)
        self._rows = list(rows)
        self._back = merged
        return merged

    @property
    def entries(self) -> int:
        """Keys held in the suffixes and the back merge."""
        return sum(map(len, self._suffix)) + len(self._back or ())

    @property
    def covered_rows(self) -> int:
        return sum(self._rows)


class _StreamPort(StreamConsumer):
    """Forwards one stream's events to its window operator and tells the
    owning two-stream CQ when that stream has flushed."""

    def __init__(self, cq: "ContinuousQuery", index: int, window_op):
        self._cq = cq
        self._index = index
        self._op = window_op

    def on_tuple(self, row, event_time):
        self._op.on_tuple(row, event_time)

    def on_heartbeat(self, event_time):
        self._op.on_heartbeat(event_time)

    def on_flush(self):
        self._op.on_flush()
        self._cq._port_flushed(self._index)


class ContinuousQuery(StreamConsumer):
    """One running CQ: window operator(s) + relational plan + sinks.

    Supports one windowed stream (the paper's examples), a window-less
    row transform, or — as an extension — a *two-stream windowed join*:
    both streams carry time windows with the same ADVANCE, and at each
    common boundary the plan runs over the pair of window relations.
    """

    def __init__(self, name: str, select: ast.Select, catalog, txn_manager,
                 params=None, obs=None, vectorize: bool = True):
        self.name = name
        self.select = select
        self._catalog = catalog
        self._txn_manager = txn_manager
        self.params = params  # bound '?' values, fixed for the CQ's life
        self.view = WindowConsistentView(txn_manager)
        #: record sinks, ``fn(kind, rows, open, close)`` (:meth:`add_sink`)
        self._sinks = []
        #: late-row quarantine hook: fn(cq_name, row, event_time,
        #: watermark, expired) — wired by the runtime when a
        #: supervisor's dead-letter stream exists
        self.late_handler = None
        self.faults = None  # optional FaultInjector (cq.window crashpoint)
        self.obs = obs      # Observability facade (None = uninstrumented)
        #: a line EXPLAIN leads with, set by whoever placed the CQ (the
        #: partition coordinator: why it runs unpartitioned)
        self.explain_note = None
        #: while ``recovery.replay_tail`` rebuilds the window state, the
        #: close through which windows were produced before (-inf: none);
        #: a late row replayed then was handled when it arrived
        self.replay_through: Optional[float] = None
        #: where a failed window entry goes, set by a supervisor:
        #: ``fn(exc, kind, rows, open, close)``, and ``exc`` None after
        #: an entry that succeeded; None: a failure raises
        self.failure_handler = None
        #: a worker half of a partitioned CQ: ``fn(kind, close, partial)``
        #: ships each window's partial instead of evaluating it
        self._ship = None
        select.from_clause = inline_streaming_views(
            select.from_clause, catalog)
        self.stats = CQStats()
        # resolved event-time config (None / defaults in arrival mode)
        self.emit_mode = None
        self.emit_every = None
        self.allowed_lateness = 0.0
        self.late_policy = None
        self._emitted = {}   # close_time -> emitted plan output (retract)
        self._c_late = None  # eventtime.late_rows counter (event-time CQs)
        self._h_lag = None   # eventtime.watermark_lag_seconds histogram
        self._running = True
        # per-operator timing is sampled: armed on every Nth evaluation
        # so untimed windows run through a bare yield-from pass-through
        self._timing_index = 0
        self._timing_on = True

        refs = find_stream_refs(select.from_clause, catalog)
        if not refs:
            raise PlanningError(
                f"query for CQ {self.name!r} references no stream")
        if len(refs) > 2:
            raise PlanningError(
                "continuous queries over more than two streams are not "
                "supported; stage one side through a derived stream"
            )
        self._stream_refs = refs
        self._stream_ref = refs[0]
        self.streams = [catalog.get_relation(r.name) for r in refs]
        self.stream = self.streams[0]
        self._batches = [[] for _ in refs]

        #: the tables the plan reads (its subqueries' too): partition
        #: workers hold none
        self._tables = set()
        self._plan = self._build_plan()
        #: True when at least one plan operator runs in batch mode
        self.vectorized = False
        #: the split's aggregate when a window arrives as its partials
        #: (of its slices when sliced, of its shards when partitioned);
        #: None: a window is its rows
        self._agg = None
        #: the merge of a sliding window's partials, window to window
        self._stacks = SlidingMerge()
        #: what the slice partials depend on; equal keys share a store
        self.store_key = None
        if vectorize:
            root, changed = vectorize_plan(self._plan.root)
            if changed:
                self._plan.root = root
                self.vectorized = True
        if self.obs is not None:
            self._plan.instrument()
        self.output_names = self._plan.column_names
        self.output_schema = self._plan.output_schema()

        emit = getattr(select, "emit", None)
        if len(refs) == 2:
            if emit is not None:
                raise PlanningError(
                    "EMIT is not supported on stream-stream joins")
            if any(getattr(s, "tracker", None) is not None
                   for s in self.streams):
                raise PlanningError(
                    "stream-stream joins over event-time streams are not "
                    "supported; stage one side through a derived stream")
            self._init_two_stream()
        elif self._stream_ref.window is None:
            if emit is not None:
                raise PlanningError(
                    "EMIT requires a window clause on the stream")
            self._window_spec = None
            self._window_op = None
            self._ports = None
            self._check_transform_shape()
            self._evaluators = {"tuple": self._on_row}
        else:
            self._window_spec = WindowSpec.from_clause(self._stream_ref.window)
            if emit is not None \
                    or getattr(self.stream, "tracker", None) is not None:
                self._init_event_time(emit)
            self._evaluators = {"final": self._on_window,
                                "correct": self._on_reopened,
                                "early": self._on_early}
            self._ports = None
        #: the plan's one aggregate and the chain under it, or None
        self._split, self._no_split = self._find_split()
        if self._ports is None and self._window_spec is not None:
            # one windowed stream
            self._window_op = self.window_operator(
                slice_fn=self._maybe_slice_window() if vectorize else None)

    def _init_event_time(self, emit) -> None:
        """Window assignment by event time: the stream's watermark (not
        arrival order) closes slices, and the CQ's EMIT clause controls
        emission and lateness handling."""
        spec = self._window_spec
        if spec.kind != "time":
            raise PlanningError(
                "event-time processing requires a time window "
                "(VISIBLE/ADVANCE), not row counts or slices")
        tracker = getattr(self.stream, "tracker", None)
        if tracker is None:
            raise PlanningError(
                f"EMIT requires an event-time stream; declare "
                f"CREATE STREAM {self.stream.name} (...) WATERMARK "
                f"'<bound>' to designate one")
        self.emit_mode = emit.mode if emit is not None else EMIT_ON_WATERMARK
        self.emit_every = emit.every if emit is not None else None
        if self.emit_mode == EMIT_PERIODIC and self.emit_every is None:
            raise PlanningError("EMIT EVERY requires a period")
        if emit is not None and emit.lateness is not None:
            self.allowed_lateness = float(emit.lateness)
        self.late_policy = (emit.late_policy
                            if emit is not None and emit.late_policy
                            else DROP)
        if self.obs is not None:
            self._c_late = self.obs.registry.counter("eventtime.late_rows")
            self._h_lag = self.obs.registry.histogram(
                "eventtime.watermark_lag_seconds")

    def window_operator(self, entry=None, slice_fn=None):
        """The window operator this CQ runs (arrival or event time, its
        grid, lateness policy and EMIT settings), its close, re-open and
        early emit bound to ``entry(kind, window, open, close)`` as
        ``final`` / ``correct`` / ``early``: the CQ's own
        :meth:`window_entry`, or the partition coordinator's stand-in
        that records when a boundary closes or re-opens."""
        if entry is None:
            entry = self.window_entry
        spec = self._window_spec
        if not self.is_event_time():
            # only the batch gear takes a frame whole: a row-gear slice
            # is filed row by row, as its unsliced window's rows were
            bulk = slice_fn is not None \
                and isinstance(self._agg, batch_ops.BatchAggregate)
            return spec.make_operator(partial(entry, "final"), slice_fn,
                                      bulk)
        stream = self.stream
        return EventTimeWindowOperator(
            spec.visible, spec.advance, partial(entry, "final"), slice_fn,
            wm_fn=lambda: stream.watermark,
            allowed_lateness=self.allowed_lateness,
            late_policy=self.late_policy,
            on_late=self._on_late,
            on_correction=partial(entry, "correct"),
            on_early=partial(entry, "early"),
            emit_mode=self.emit_mode,
            emit_every=self.emit_every)

    def _init_two_stream(self) -> None:
        specs = []
        for ref in self._stream_refs:
            if ref.window is None:
                raise PlanningError(
                    "both streams of a stream-stream join need a window")
            spec = WindowSpec.from_clause(ref.window)
            if spec.kind != "time":
                raise PlanningError(
                    "stream-stream joins require time windows")
            specs.append(spec)
        if abs(specs[0].advance - specs[1].advance) > 1e-9:
            raise PlanningError(
                "stream-stream joins require equal ADVANCE on both windows "
                f"(got {specs[0].advance} and {specs[1].advance})"
            )
        self._window_spec = specs[0]
        self._window_specs = specs
        self._advance = specs[0].advance
        self._window_op = None
        self._pending = [{}, {}]        # boundary number -> (rows, open, close)
        self._flushed = [False, False]
        sides = ("left", "right")
        self._evaluators = {side: partial(self._on_joint, i)
                            for i, side in enumerate(sides)}
        ops_pair = [spec.make_operator(partial(self.window_entry, side))
                    for side, spec in zip(sides, specs)]
        self._ports = [_StreamPort(self, i, op)
                       for i, op in enumerate(ops_pair)]

    # -- plumbing -----------------------------------------------------------

    @property
    def window_spec(self) -> Optional[WindowSpec]:
        return self._window_spec

    def is_join(self) -> bool:
        return len(self._stream_refs) == 2

    def _subscriptions(self):
        """The (stream, consumer) pairs this CQ subscribes."""
        if self._ports is not None:
            return list(zip(self.streams, self._ports))
        return [(self.stream,
                 self._window_op if self._window_op is not None else self)]

    def attach(self) -> None:
        """Subscribe to the source stream(s) and start running."""
        for stream, consumer in self._subscriptions():
            stream.subscribe(consumer)
        # An event-time reader stays on its private store.  Partials are
        # filed under (slice index, row count), which names a slice's
        # contents only while slices are append-only and sealed once;
        # with late rows a mid-slice attacher can reach a count another
        # reader sealed earlier over different rows (A seals 1 999 rows,
        # a straggler makes 2 000; B attached one row later, seals
        # 1 998, the straggler makes 1 999 — and B would be served A's
        # stale partial of its first 1 999).  Sharing across event-time
        # CQs waits for the sealing-policy object (ROADMAP item 5).
        if self.is_sliced() and not self.is_event_time():
            join_store(self.stream, self.store_key, self._window_op)

    def detach(self) -> None:
        """Stop consuming the source stream(s) without terminating: the
        partitioned coordinator detaches its merge-stage CQ, whose
        window entry is handed the workers' partials instead."""
        for stream, consumer in self._subscriptions():
            stream.unsubscribe(consumer)
        if self.is_sliced():
            leave_store(self.stream, self._window_op)

    def stop(self) -> None:
        """Terminate the CQ (paper: CQs run "until explicitly terminated").
        Its window entry emits nothing more — not even the rest of a
        close already under way."""
        self.detach()
        self._running = False

    def window_entry(self, kind: str, window, open_time: float,
                     close_time: float) -> None:
        """The one way a window reaches the CQ.  Every callback of its
        window operator(s) is this entry, bound to a kind when the
        operator is built, and the partitioned coordinator's merge
        calls it directly.  ``kind`` is ``final`` (a close), ``correct``
        (a late row re-opened a closed window), ``early``, ``left`` /
        ``right`` (one side of a join closed) or ``tuple`` (a
        window-less transform's row).  In order:

        - a stopped CQ emits nothing;
        - during a replay, a window closing at or before
          :attr:`replay_through` was produced before and is skipped;
        - a worker half ships the window's partial instead of
          evaluating it;
        - a failure goes to :attr:`failure_handler` with the window's
          rows, or raises when none is set."""
        if not self._running:
            return
        through = self.replay_through
        if through is not None and close_time <= through + 1e-9:
            return
        try:
            if self._ship is not None:
                self._ship(kind, close_time,
                           self.window_partial(window, open_time, close_time))
            else:
                self._evaluators[kind](window, open_time, close_time)
        except Exception as exc:
            if self.failure_handler is None:
                raise
            rows = window.rows if isinstance(window, Partials) else window
            self.failure_handler(exc, kind, rows, open_time, close_time)
            return
        if self.failure_handler is not None:
            self.failure_handler(None, kind, window, open_time, close_time)

    def add_sink(self, sink) -> None:
        """``sink(kind, rows, open_time, close_time)`` gets every record
        the CQ emits: each final (``window``) and, on an event-time CQ,
        each ``retract`` / ``correct`` pair and ``early`` result."""
        self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Detach one sink (no-op when it was never added)."""
        if sink in self._sinks:
            self._sinks.remove(sink)

    def _emit(self, kind: str, rows, open_time: float,
              close_time: float) -> None:
        for sink in self._sinks:
            sink(kind, rows, open_time, close_time)

    def is_event_time(self) -> bool:
        return self.emit_mode is not None

    def _build_plan(self):
        holder = self

        def resolver(ref: ast.TableRef):
            for i, stream_ref in enumerate(holder._stream_refs):
                if ref is stream_ref:
                    fetch = (lambda i=i: holder._batches[i])
                    source = ops.RowSource(fetch, stream_ref.name)
                    # conversion input for the vectorizer: the window
                    # relation can be pulled as one column batch
                    source.vector_source = (
                        fetch,
                        [c.datatype for c in holder.streams[i].schema],
                        stream_ref.name, True)
                    return source, stream_layout(holder.streams[i])
            holder._tables.add(ref.name.lower())
            return None

        ctx = PlanContext(
            self._catalog,
            self._txn_manager,
            snapshot_fn=lambda: self.view.snapshot,
            source_resolver=resolver,
        )
        return Planner(ctx).plan_select(self.select)

    def _check_transform_shape(self):
        from repro.exec.planner import _contains_aggregate

        select = self.select
        simple = (isinstance(select.from_clause, ast.TableRef)
                  and not select.group_by
                  and select.having is None
                  and not select.order_by
                  and select.limit is None
                  and not select.distinct
                  and not any(_contains_aggregate(item.expr)
                              for item in select.items
                              if not isinstance(item.expr, ast.Star)))
        if not simple:
            raise WindowError(
                f"stream {self.stream.name!r} is referenced without a "
                "window; only row-wise transforms may omit the window clause"
            )

    # -- execution ------------------------------------------------------------

    def _make_ctx(self, open_time: float, close_time: float) -> dict:
        ctx = {"cq_close": close_time, "cq_open": open_time}
        if self.params is not None:
            ctx["params"] = self.params
        return ctx

    def _execute(self, batches, open_time: float, close_time: float) -> list:
        """Refresh the snapshot and run the plan over one window's
        relation(s).  A sliced CQ, or a partitioned one's merge stage,
        gets the window as partials (of its slices, of its shards):
        they are merged + finalized — a failed one raises here — and
        the aggregate is pinned to the result, so post-aggregate
        operators (projection with cq_close, HAVING, ORDER BY) and the
        plan's instrumentation behave exactly as in iterator mode.  A
        window of no partials pins nothing and the plan runs over its
        empty relation."""
        self.view.refresh()
        agg = self._agg
        pinned = agg is not None and bool(batches[0])
        if pinned:
            merged = self._merge(batches[0])
            if isinstance(merged, FailedPartial):
                raise merged.error
            agg.set_merged(agg.finalize(merged))
            batches = [[]]
        self._batches = batches
        try:
            return list(self._plan.execute(
                self._make_ctx(open_time, close_time)))
        finally:
            self._batches = [[] for _ in batches]
            if pinned:
                agg.set_merged(None)

    def _evaluate(self, batches, open_time: float, close_time: float,
                  rows_scanned: int, streams,
                  per_tuple: bool = False) -> None:
        """Run the plan for one window and emit the result: the one path
        behind every window close (plain, sliced, joined) and — with
        ``per_tuple`` — the window-less transform, which emits only
        when the tuple produced output."""
        if self.faults is not None and not per_tuple:
            self.faults.check("cq.window", self.name)
        obs = self.obs
        traces = op_before = None
        if obs is not None:
            timed = self._arm_timing()
            traces = [trace for stream in streams
                      for trace in obs.take_traces(stream, close_time,
                                                   inclusive=per_tuple)]
            if traces and timed:
                op_before = self._op_snapshot()
        started_wall = time.time()
        started = time.perf_counter()
        out = self._execute(batches, open_time, close_time)
        exec_seconds = time.perf_counter() - started
        stats = self.stats
        stats.rows_scanned += rows_scanned
        emit_seconds = 0.0
        if out or not per_tuple:
            stats.windows_evaluated += 1
            stats.rows_out += len(out)
            stats.last_close = close_time
            if self.late_policy == RETRACT:
                self._remember_emitted(close_time, out)
            if self._h_lag is not None:
                self._h_lag.observe(self.stream.tracker.lag())
            emit_started = time.perf_counter()
            self._emit("window", out, open_time, close_time)
            emit_seconds = time.perf_counter() - emit_started
        if obs is not None:
            self._record_window(exec_seconds + emit_seconds, close_time)
            if traces:
                obs.trace_window(self, traces, self._plan.root, op_before,
                                 started_wall, exec_seconds, emit_seconds)

    def _on_window(self, window, open_time: float,
                   close_time: float) -> None:
        """Window closed: run the plan over its relation — its rows, or
        on the sliced path the partials of the slices it covers."""
        scanned = (self._window_op.last_window_input
                   if self._agg is not None else len(window))
        self._evaluate([window], open_time, close_time, scanned,
                       (self.stream,))

    # -- sliced window mode (vectorized incremental aggregation) --------------

    def _find_split(self):
        """Where the plan factors into a mergeable partial and an answer
        (Fegaras's homomorphism and answer function): ``(chain, None)``,
        the chain being the plan's one aggregate and the filter/project
        nodes under it, in either gear, down to the stream's window
        relation — or ``(None, why not)``.  Only a finite time window
        splits, and nothing at or below the aggregate may read a
        subquery: its rows follow the window-consistent table version,
        which a slice's or a shard's partial cannot.  Anything else
        below the aggregate (DISTINCT, ORDER BY, LIMIT, a join) must see
        the whole window.  Slicing (:meth:`_maybe_slice_window`) and
        partitioning (:meth:`partition_refusal`) both start here."""
        if self.is_join():
            return None, "a two-stream join has no split"
        spec = self._window_spec
        if spec is None or spec.kind != "time":
            return None, "a time window (VISIBLE/ADVANCE) is required"
        if math.isinf(spec.visible):
            return None, "an UNBOUNDED window has no split"
        chain = [op for op in walk(self._plan.root)
                 if isinstance(op, ops.HashAggregate)]
        if len(chain) != 1:
            return None, ("exactly one aggregation is required, found "
                          f"{len(chain)}")
        while isinstance(chain[-1].child, _CHAIN) \
                and getattr(chain[-1].child, "vector_info", None) is not None:
            chain.append(chain[-1].child)
        source = chain[-1].child
        # the window relation, as either gear reads it (mixed mode
        # bridges a batch chain to an iterator aggregate)
        if not (isinstance(source, batch_ops.BatchSource)
                and source.is_stream_source
                or isinstance(source, ops.RowSource)
                and getattr(source, "vector_source", None) is not None):
            return None, f"{type(source).__name__} below the aggregate"
        if any(isinstance(sub, PlannedSubquery) for node in chain
               for expr in _rendered(node)[0] for sub in ast.walk_expr(expr)):
            return None, "a subquery below the aggregate"
        return chain, None

    def _maybe_slice_window(self):
        """The reducer that upgrades a time window — arrival time or
        event time alike — to per-slice incremental aggregation, or
        None (the window hands the plan its rows) unless the plan has a
        split (:meth:`_find_split`) whose aggregate's state has constant
        size, with no ``cq_close`` / ``cq_open`` at or below it
        (:func:`_slice_signature`).  Each sealed slice is then reduced
        once, and window close merges slice partials instead of
        re-aggregating every visible row.  The aggregate reduces a
        slice in whichever gear the vectorizer left it: a
        ``BatchAggregate`` with its kernels, a refused plan's iterator
        ``HashAggregate`` with its rows loop (the row gear) — one
        partial protocol, one store, one merge.

        What a slice partial depends on — the stream reference, the
        split's chain, rendered from each node's ``vector_info``
        whichever gear it runs in, and the bound parameters — becomes
        the slice-store key: CQs with equal keys read one store."""
        if self._split is None:
            return None
        signatures = [_slice_signature(node) for node in self._split]
        if None in signatures:
            return None
        ref = self._stream_ref
        self.store_key = (ref.name.lower(), (ref.alias or ref.name).lower(),
                          tuple(signatures), repr(self.params))
        self._agg = self._split[0]
        return self._reduce

    def _reduce(self, rows, ctx=None):
        """Reduce rows (a sealed slice: no window context yet; a shard's
        window) to the aggregate's mergeable partial by running the
        plan subtree under it.  Evaluation errors (division by zero,
        type clashes) are deferred: the error belongs to the window
        entry, where the supervisor can quarantine it as a poison
        window just like an iterator-mode plan failure."""
        if ctx is None:
            ctx = {"params": self.params} if self.params is not None else {}
        self._batches[0] = rows
        try:
            return self._agg.accumulate(ctx)
        except Exception as exc:
            return FailedPartial(exc)
        finally:
            self._batches[0] = []

    def _merge(self, partials):
        """Partials -> one merged partial; the first failed one wins.
        A sliced window's partials go through the CQ's
        :class:`SlidingMerge`, so the merges of the window before are
        reused; the result is read, never changed."""
        for part in partials:
            if isinstance(part, FailedPartial):
                return part
        sizes = partials.sizes() if isinstance(partials, Partials) else None
        return self._stacks.merge(partials, sizes, self._agg.merge_partials)

    def partition_refusal(self) -> Optional[str]:
        """Why this CQ cannot run partitioned, or None.  It needs a
        split, an EMIT that waits for the watermark (an early result is
        per-shard speculative state), and no table read anywhere in its
        plan: a partition worker plans the whole query and holds no
        tables."""
        if self._split is None:
            return self._no_split
        if self.emit_mode not in (None, EMIT_ON_WATERMARK):
            return ("EMIT ON CHANGE / EMIT EVERY early emission is "
                    "per-shard speculative state")
        if self._tables:
            return (f"it reads table {', '.join(sorted(self._tables))}, "
                    "which partition workers do not hold")
        return None

    def split_at(self, ship=None) -> None:
        """One half of a partitioned CQ, split at its aggregate: a
        worker's hands each window's :meth:`window_partial` to
        ``ship(kind, close, partial)``, the coordinator's (no ``ship``)
        takes the workers' partials as its window.  Raises
        :class:`PartitionError` with :meth:`partition_refusal`."""
        refusal = self.partition_refusal()
        if refusal is not None:
            raise PartitionError(
                f"CQ {self.name!r} cannot run partitioned: {refusal}")
        self._agg = self._split[0]
        self._ship = ship

    def window_partial(self, window, open_time: float, close_time: float):
        """One window as one partial, or the :class:`FailedPartial`:
        what a partition worker ships instead of running the plan."""
        if self.is_sliced():
            return self._merge(window)
        return self._reduce(window, self._make_ctx(open_time, close_time))

    def is_sliced(self) -> bool:
        """True when the window runs incremental per-slice aggregation."""
        return self.store_key is not None

    @property
    def shared(self) -> bool:
        """True when another CQ reads this CQ's slice store."""
        return self.is_sliced() and len(self._window_op.store.readers) > 1

    # -- event-time: lateness, retraction, early emission ---------------------

    def _remember_emitted(self, close_time: float, out: list) -> None:
        """Keep emitted output per closed slice while it is still
        correctable (the retract policy's lateness bound), so a
        recomputation can emit the matching retraction first."""
        self._emitted[close_time] = list(out)
        horizon = self.stream.watermark - self._window_op.retention
        if horizon > float("-inf"):
            for stale in [c for c in self._emitted if c < horizon]:
                del self._emitted[stale]

    def _on_late(self, row, event_time: float, watermark: float,
                 expired: bool) -> None:
        """A tuple arrived below the watermark.  Counting is free; the
        dead-letter policy (and retract's expired leftovers) hand the
        row to the runtime-wired quarantine hook.  A replayed late row
        was counted and filed when it arrived live."""
        if self.replay_through is not None:
            return
        if self._c_late is not None:
            self._c_late.inc()
        if self.late_handler is not None \
                and (expired or self.late_policy == DEAD_LETTER):
            self.late_handler(self.name, row, event_time, watermark,
                              expired)

    def _on_reopened(self, window, open_time: float,
                     close_time: float) -> None:
        """An in-bound late tuple re-opened a closed window: rerun the
        plan over the gathered relation (rows or slice partials, as
        :meth:`_on_window`) and emit a typed retract(old)/correct(new)
        pair so downstream state converges."""
        out = self._execute([window], open_time, close_time)
        self.stats.rows_out += len(out)
        old = self._emitted.get(close_time)
        if old is not None:
            self._emit("retract", old, open_time, close_time)
        self._emit("correct", out, open_time, close_time)
        self._emitted[close_time] = out

    def _on_early(self, window, open_time: float, close_time: float) -> None:
        """EMIT ON CHANGE / EMIT EVERY: speculative early output of the
        still-open window, typed so consumers can tell it from a final."""
        out = self._execute([window], open_time, close_time)
        self._emit("early", out, open_time, close_time)

    # -- two-stream join mode ------------------------------------------------------

    def _on_joint(self, index: int, rows, open_time: float,
                  close_time: float) -> None:
        """One stream's window closed; evaluate when both sides have the
        relation for this boundary."""
        key = round(close_time / self._advance)
        self._pending[index][key] = (list(rows), open_time, close_time)
        if key in self._pending[1 - index]:
            self._evaluate_pair(key)

    def _evaluate_pair(self, key: int) -> None:
        left = self._pending[0].pop(key)
        right = self._pending[1].pop(key)
        # boundaries the other side never produced (before its first
        # event) can no longer match: discard them
        for side in self._pending:
            for stale in [k for k in side if k < key]:
                del side[stale]
        self._evaluate([left[0], right[0]], min(left[1], right[1]),
                       max(left[2], right[2]),
                       len(left[0]) + len(right[0]), self.streams)

    def _port_flushed(self, index: int) -> None:
        """A source stream flushed; once both have, drain unmatched
        boundaries by pairing them with the other side's empty relation."""
        self._flushed[index] = True
        if not all(self._flushed):
            return
        leftovers = sorted(set(self._pending[0]) | set(self._pending[1]))
        for key in leftovers:
            close = key * self._advance
            for i, spec in enumerate(self._window_specs):
                if key not in self._pending[i]:
                    self._pending[i][key] = ([], close - spec.visible, close)
            self._evaluate_pair(key)
        self._flushed = [False, False]

    # -- transform (window-less) mode -------------------------------------------

    def on_tuple(self, row: tuple, event_time: float) -> None:
        self.window_entry("tuple", [row], event_time, event_time)

    def _on_row(self, rows, event_time: float, _close_time) -> None:
        self.stats.tuples_in += 1
        self._evaluate([rows], event_time, event_time, 1, (self.stream,),
                       per_tuple=True)

    def on_heartbeat(self, event_time: float) -> None:
        pass

    def on_flush(self) -> None:
        pass

    # -- observability --------------------------------------------------------

    #: operator timing is armed on one evaluation out of this many; the
    #: rest run through the wrapper's bare pass-through.  The first
    #: evaluation is always timed so EXPLAIN ANALYZE has data at once.
    TIMING_SAMPLE_EVERY = 8

    def _arm_timing(self) -> bool:
        """Flip per-operator timing on/off for the coming evaluation
        according to the sampling schedule.  The operator loop only runs
        when the armed state actually changes."""
        index = self._timing_index
        self._timing_index = index + 1
        timed = index % self.TIMING_SAMPLE_EVERY == 0
        if timed != self._timing_on:
            from repro.obs.service import walk_operators
            for op, _depth, _parent in walk_operators(self._plan.root):
                op.set_timing(timed)
            self._timing_on = timed
        return timed

    def _op_snapshot(self):
        """(operator, tuples_out, wall_seconds) for every instrumented
        operator — the 'before' side of a per-window stats delta."""
        from repro.obs.service import walk_operators
        return [(op, op.stats.tuples_out, op.stats.wall_seconds)
                for op, _depth, _parent in walk_operators(self._plan.root)
                if op.stats is not None]

    def _record_window(self, duration: float, close_time: float) -> None:
        st = self.stats
        st.last_window_seconds = duration
        st.total_window_seconds += duration
        if duration > st.max_window_seconds:
            st.max_window_seconds = duration
        self.obs.on_window_close(self, duration, close_time)

    def explain(self, analyze: bool = False) -> str:
        """The per-window relational plan; with ``analyze``, annotated
        with per-operator stats accumulated since the CQ started.
        Event-time CQs lead with their emit clause and lateness policy,
        sliced CQs with their slice store's grid and reader count."""
        text = self._plan.explain(analyze=analyze)
        if self.is_sliced():
            store = self._window_op.store
            text = (f"Slices: width {store.width}s, "
                    f"store readers {len(store.readers)}\n" + text)
        if self.is_event_time():
            if self.emit_mode == EMIT_PERIODIC:
                emit = f"EVERY {self.emit_every}s"
            else:
                emit = f"ON {self.emit_mode.upper()}"
            header = (f"Emit: {emit} (lateness {self.allowed_lateness}s, "
                      f"policy {self.late_policy}, watermark bound "
                      f"{self.stream.watermark_bound}s)")
            text = header + "\n" + text
        if self.explain_note is not None:
            text = self.explain_note + "\n" + text
        return text
