"""Physical operators in the classic iterator (Volcano) style.

Every operator implements ``rows(ctx)``, a generator of tuples; ``ctx``
is the per-execution context dict (carries ``cq_close`` inside CQs).
The same operators run snapshot queries over tables and per-window
evaluations inside continuous queries — the code reuse the paper calls
out in Section 4.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.types.values import sql_sort_key


class OperatorStats:
    """Per-operator execution counters (attached by :meth:`instrument`).

    ``wall_seconds`` is inclusive time — the operator plus everything
    below it, like Postgres' EXPLAIN ANALYZE "actual time"; time spent
    in the consumer while this generator is suspended is not counted.

    Stats are *sampled*: a CQ arms instrumentation on every Nth window
    via :meth:`Operator.set_timing` and the untimed windows run the
    original uninstrumented iterator, so always-on observability costs
    the hot path nothing.  ``calls`` therefore counts sampled
    executions, the ones ``tuples_out``/``wall_seconds`` cover.
    One-shot EXPLAIN ANALYZE plans stay armed for their whole run.
    """

    __slots__ = ("tuples_out", "calls", "wall_seconds", "batch_rows")

    def __init__(self):
        self.tuples_out = 0
        self.calls = 0
        self.wall_seconds = 0.0
        # rows that flowed through the vectorized (batch) path; stays 0
        # for iterator operators
        self.batch_rows = 0


class Operator:
    """Base class; subclasses yield tuples from :meth:`rows`."""

    #: OperatorStats once instrumented; None on plain plans
    stats: Optional[OperatorStats] = None

    #: execution model; batch operators override with "batch"
    mode = "iterator"

    #: set on every node of a (partially) vectorized plan so EXPLAIN
    #: annotates per-operator modes; plain plans render unchanged
    show_mode = False

    def rows(self, ctx):
        raise NotImplementedError

    def instrument(self) -> None:
        """Wrap this instance's ``rows`` with counters (idempotent).

        Keeps both the plain and the instrumented iterator around so
        :meth:`set_timing` can swap them per evaluation at zero cost to
        the untimed ones.  Starts armed.
        """
        if self.stats is not None:
            return
        self.stats = st = OperatorStats()
        inner = self._rows_plain = self.rows

        def rows(ctx, _inner=inner, _st=st, _pc=time.perf_counter):
            _st.calls += 1
            t0 = _pc()
            for row in _inner(ctx):
                _st.wall_seconds += _pc() - t0
                _st.tuples_out += 1
                yield row
                t0 = _pc()
            _st.wall_seconds += _pc() - t0

        self._rows_timed = rows
        self.rows = rows

    def set_timing(self, active: bool) -> None:
        """Choose the instrumented or the plain iterator for coming
        executions (no-op on uninstrumented operators)."""
        if self.stats is not None:
            self.rows = self._rows_timed if active else self._rows_plain

    def explain(self, depth: int = 0, analyze: bool = False) -> str:
        """A one-line-per-node plan rendering (for tests and debugging).

        With ``analyze`` each node carries the stats accumulated so far
        by its instrumented iterator.
        """
        line = "  " * depth + self._describe()
        if analyze:
            st = self.stats
            if st is None or st.calls == 0:
                line += " (never executed)"
            else:
                line += (f" (actual rows={st.tuples_out} loops={st.calls}"
                         f" time={st.wall_seconds * 1000.0:.3f} ms)")
        if self.show_mode:
            line += f" [mode={self.mode}]"
        lines = [line]
        for child in self._children():
            lines.append(child.explain(depth + 1, analyze))
        return "\n".join(lines)

    def _describe(self) -> str:
        return type(self).__name__

    def _children(self):
        return []


class RowSource(Operator):
    """Rows from a Python sequence or factory (window relations, VALUES)."""

    def __init__(self, source, label: str = "rows"):
        # ``source`` is a list of tuples or a zero-arg callable returning one
        self._source = source
        self._label = label

    def rows(self, ctx):
        source = self._source
        if callable(source):
            source = source()
        yield from source

    def _describe(self):
        return f"RowSource({self._label})"


class SeqScan(Operator):
    """Full scan of an MVCC table under a snapshot resolved at run time.

    ``snapshot_fn`` is called when execution starts; inside a CQ it
    returns the window-consistent snapshot (Section 4 of the paper),
    outside it returns the statement snapshot.
    """

    def __init__(self, table, snapshot_fn: Callable, manager,
                 own_txid_fn: Optional[Callable] = None):
        self.table = table
        self._snapshot_fn = snapshot_fn
        self._manager = manager
        self._own_txid_fn = own_txid_fn

    def rows(self, ctx):
        snapshot = self._snapshot_fn()
        own = self._own_txid_fn() if self._own_txid_fn else None
        for _rid, values in self.table.scan(snapshot, self._manager, own):
            yield values

    def _describe(self):
        return f"SeqScan({self.table.name}, ~{self.table.heap.row_count} rows)"


class IndexScan(Operator):
    """B+tree lookup: equality or range, with MVCC visibility re-check."""

    def __init__(self, table, index, snapshot_fn: Callable, manager,
                 equal_fn: Optional[Callable] = None,
                 range_fn: Optional[Callable] = None,
                 own_txid_fn: Optional[Callable] = None):
        # equal_fn(ctx) -> key tuple; range_fn(ctx) -> (lo, hi, lo_inc, hi_inc)
        self.table = table
        self.index = index
        self._snapshot_fn = snapshot_fn
        self._manager = manager
        self._equal_fn = equal_fn
        self._range_fn = range_fn
        self._own_txid_fn = own_txid_fn

    def rows(self, ctx):
        snapshot = self._snapshot_fn()
        own = self._own_txid_fn() if self._own_txid_fn else None
        if self._equal_fn is not None:
            key = self._equal_fn(ctx)
            if any(v is None for v in key):
                return  # NULL never matches an equality key
            rids = self.index.search(key)
        else:
            low, high, low_inc, high_inc = self._range_fn(ctx)
            rids = self.index.range_scan(low, high, low_inc, high_inc)
        # NULL keys sort last in the tree, so an unbounded-high range
        # would sweep them up; SQL comparisons never match NULL
        key_positions = [
            self.table.schema.index_of(name)
            for name in self.index.column_names
        ]
        for rid in rids:
            values = self.table.fetch(rid, snapshot, self._manager, own)
            if values is None:
                continue
            if any(values[p] is None for p in key_positions):
                continue
            yield values

    def _describe(self):
        kind = "eq" if self._equal_fn else "range"
        return f"IndexScan({self.table.name} via {self.index.name}, {kind})"


class Filter(Operator):
    """WHERE/HAVING: keeps rows whose predicate is strictly true."""

    def __init__(self, child: Operator, predicate: Callable):
        self.child = child
        self._predicate = predicate

    def rows(self, ctx):
        predicate = self._predicate
        for row in self.child.rows(ctx):
            if predicate(row, ctx) is True:
                yield row

    def _children(self):
        return [self.child]


class Project(Operator):
    """Compute the output expressions for each input row."""

    def __init__(self, child: Operator, exprs: Sequence[Callable]):
        self.child = child
        self._exprs = list(exprs)

    def rows(self, ctx):
        exprs = self._exprs
        for row in self.child.rows(ctx):
            yield tuple(e(row, ctx) for e in exprs)

    def _children(self):
        return [self.child]


class NestedLoopJoin(Operator):
    """Inner/left join with an arbitrary predicate (right side cached)."""

    def __init__(self, left: Operator, right: Operator,
                 predicate: Optional[Callable], kind: str, right_width: int):
        self.left = left
        self.right = right
        self._predicate = predicate
        self.kind = kind
        self._right_width = right_width

    def rows(self, ctx):
        right_rows = list(self.right.rows(ctx))
        predicate = self._predicate
        null_pad = (None,) * self._right_width
        for left_row in self.left.rows(ctx):
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if predicate is None or predicate(combined, ctx) is True:
                    matched = True
                    yield combined
            if not matched and self.kind == "LEFT":
                yield left_row + null_pad

    def _children(self):
        return [self.left, self.right]

    def _describe(self):
        return f"NestedLoopJoin({self.kind})"


class HashJoin(Operator):
    """Equi-join.  By default the right input is the build side; with
    ``build_left=True`` (chosen by the planner when the left side is
    estimated smaller — e.g. a window relation joining a big table) the
    left input is hashed and the right probes it.  Output column order is
    always left ++ right either way."""

    def __init__(self, left: Operator, right: Operator,
                 left_keys: Sequence[Callable], right_keys: Sequence[Callable],
                 kind: str, right_width: int,
                 residual: Optional[Callable] = None,
                 build_left: bool = False):
        self.left = left
        self.right = right
        self._left_keys = list(left_keys)
        self._right_keys = list(right_keys)
        self.kind = kind
        self._right_width = right_width
        self._residual = residual
        self.build_left = build_left

    def rows(self, ctx):
        if self.build_left:
            yield from self._rows_build_left(ctx)
        else:
            yield from self._rows_build_right(ctx)

    def _rows_build_right(self, ctx):
        build = {}
        for right_row in self.right.rows(ctx):
            key = tuple(k(right_row, ctx) for k in self._right_keys)
            if any(v is None for v in key):
                continue  # NULL keys never join
            build.setdefault(key, []).append(right_row)
        null_pad = (None,) * self._right_width
        residual = self._residual
        for left_row in self.left.rows(ctx):
            key = tuple(k(left_row, ctx) for k in self._left_keys)
            matched = False
            if not any(v is None for v in key):
                for right_row in build.get(key, ()):
                    combined = left_row + right_row
                    if residual is None or residual(combined, ctx) is True:
                        matched = True
                        yield combined
            if not matched and self.kind == "LEFT":
                yield left_row + null_pad

    def _rows_build_left(self, ctx):
        # build on the left; entries carry a matched flag so LEFT joins
        # can null-extend the untouched ones afterwards
        build = {}
        unmatchable = []  # left rows with NULL keys (LEFT join only)
        for left_row in self.left.rows(ctx):
            key = tuple(k(left_row, ctx) for k in self._left_keys)
            if any(v is None for v in key):
                unmatchable.append(left_row)
                continue
            build.setdefault(key, []).append([left_row, False])
        residual = self._residual
        for right_row in self.right.rows(ctx):
            key = tuple(k(right_row, ctx) for k in self._right_keys)
            if any(v is None for v in key):
                continue
            for entry in build.get(key, ()):
                combined = entry[0] + right_row
                if residual is None or residual(combined, ctx) is True:
                    entry[1] = True
                    yield combined
        if self.kind == "LEFT":
            null_pad = (None,) * self._right_width
            for entries in build.values():
                for left_row, matched in entries:
                    if not matched:
                        yield left_row + null_pad
            for left_row in unmatchable:
                yield left_row + null_pad

    def _children(self):
        return [self.left, self.right]

    def _describe(self):
        side = "build=left" if self.build_left else "build=right"
        return f"HashJoin({self.kind}, {len(self._left_keys)} keys, {side})"


class HashAggregate(Operator):
    """GROUP BY via a hash table; output = group keys ++ aggregate results.

    ``agg_specs`` is a list of ``(Aggregate, arg_fn | None)``; a None
    arg_fn means ``count(*)``.  With no group keys, exactly one output
    row is produced even over empty input (scalar-aggregate semantics).

    The mergeable-partial protocol lives here, once: ``accumulate``
    (input -> partial ``{group key: [state, ...]}``), ``merge_partials``,
    ``finalize`` and ``set_merged`` (pin the finalized rows: the plan
    above runs over a merge made elsewhere) serve sliced windows and
    partitioned CQs; :class:`repro.exec.batch_ops.BatchAggregate` only
    puts vector kernels in front.  Groups come in first-seen order.
    """

    def __init__(self, child: Operator, group_exprs: Sequence[Callable],
                 agg_specs):
        self.child = child
        self._group_exprs = list(group_exprs)
        self._agg_specs = list(agg_specs)
        self._merged = None

    def rows(self, ctx):
        if self._merged is not None:
            yield from self._merged
            return
        yield from self.finalize(self.accumulate(ctx))

    def set_merged(self, rows) -> None:
        self._merged = rows

    def accumulate(self, ctx) -> dict:
        """Aggregate the child's rows into a partial-state dict."""
        return self._reduce_rows(self.child.rows(ctx), ctx)

    def _reduce_rows(self, rows, ctx) -> dict:
        groups: dict = {}
        group_exprs = self._group_exprs
        specs = self._agg_specs
        for row in rows:
            key = tuple(e(row, ctx) for e in group_exprs)
            states = groups.get(key)
            if states is None:
                states = [agg.create() for agg, _ in specs]
                groups[key] = states
            for i, (agg, arg_fn) in enumerate(specs):
                value = arg_fn(row, ctx) if arg_fn is not None else None
                states[i] = agg.add(states[i], value)
        return groups

    def merge_partials(self, partials) -> dict:
        specs = self._agg_specs
        merged: dict = {}
        for part in partials:
            for key, states in part.items():
                current = merged.get(key)
                if current is None:
                    # copy the state lists: partials are reused across
                    # overlapping windows and must never be mutated
                    merged[key] = list(states)
                else:
                    merged[key] = [
                        agg.merge(a, b)
                        for (agg, _), a, b in zip(specs, current, states)
                    ]
        return merged

    def finalize(self, groups: dict):
        specs = self._agg_specs
        if not groups and not self._group_exprs:
            groups = {(): [agg.create() for agg, _ in specs]}
        return [
            key + tuple(agg.result(state)
                        for (agg, _), state in zip(specs, states))
            for key, states in groups.items()
        ]

    def _children(self):
        return [self.child]

    def _describe(self):
        return (f"{type(self).__name__}({len(self._group_exprs)} keys, "
                f"{len(self._agg_specs)} aggs)")


class Sort(Operator):
    """ORDER BY: full in-memory sort, NULLS LAST ascending."""

    def __init__(self, child: Operator, key_fns: Sequence[Callable],
                 descending: Sequence[bool]):
        self.child = child
        self._key_fns = list(key_fns)
        self._descending = list(descending)

    def rows(self, ctx):
        materialised = list(self.child.rows(ctx))
        # stable multi-key sort: apply keys right-to-left
        for key_fn, desc in reversed(list(zip(self._key_fns, self._descending))):
            materialised.sort(
                key=lambda row, f=key_fn: sql_sort_key(f(row, ctx)),
                reverse=desc,
            )
        yield from materialised

    def _children(self):
        return [self.child]


class Limit(Operator):
    """LIMIT/OFFSET."""

    def __init__(self, child: Operator, limit: Optional[int],
                 offset: Optional[int]):
        self.child = child
        self._limit = limit
        self._offset = offset or 0

    def rows(self, ctx):
        if self._limit is not None and self._limit <= 0:
            return
        produced = 0
        skipped = 0
        for row in self.child.rows(ctx):
            if skipped < self._offset:
                skipped += 1
                continue
            produced += 1
            yield row
            if self._limit is not None and produced >= self._limit:
                return  # stop before pulling another row from the child

    def _children(self):
        return [self.child]

    def _describe(self):
        return f"Limit({self._limit}, offset={self._offset})"


class Distinct(Operator):
    """SELECT DISTINCT via a seen-set."""

    def __init__(self, child: Operator):
        self.child = child

    def rows(self, ctx):
        seen = set()
        for row in self.child.rows(ctx):
            if row not in seen:
                seen.add(row)
                yield row

    def _children(self):
        return [self.child]


class Concat(Operator):
    """UNION ALL: left's rows followed by right's."""

    def __init__(self, left: Operator, right: Operator):
        self.left = left
        self.right = right

    def rows(self, ctx):
        yield from self.left.rows(ctx)
        yield from self.right.rows(ctx)

    def _children(self):
        return [self.left, self.right]


class Except(Operator):
    """EXCEPT [ALL]: rows of left not in right.

    Set form removes duplicates; ALL form is bag difference (each right
    occurrence cancels one left occurrence).
    """

    def __init__(self, left: Operator, right: Operator, all_rows: bool):
        self.left = left
        self.right = right
        self.all_rows = all_rows

    def rows(self, ctx):
        counts = {}
        for row in self.right.rows(ctx):
            counts[row] = counts.get(row, 0) + 1
        if self.all_rows:
            for row in self.left.rows(ctx):
                remaining = counts.get(row, 0)
                if remaining > 0:
                    counts[row] = remaining - 1
                else:
                    yield row
        else:
            emitted = set()
            for row in self.left.rows(ctx):
                if row not in counts and row not in emitted:
                    emitted.add(row)
                    yield row

    def _children(self):
        return [self.left, self.right]

    def _describe(self):
        return f"Except(all={self.all_rows})"


class Intersect(Operator):
    """INTERSECT [ALL]: rows present in both inputs."""

    def __init__(self, left: Operator, right: Operator, all_rows: bool):
        self.left = left
        self.right = right
        self.all_rows = all_rows

    def rows(self, ctx):
        counts = {}
        for row in self.right.rows(ctx):
            counts[row] = counts.get(row, 0) + 1
        if self.all_rows:
            for row in self.left.rows(ctx):
                remaining = counts.get(row, 0)
                if remaining > 0:
                    counts[row] = remaining - 1
                    yield row
        else:
            emitted = set()
            for row in self.left.rows(ctx):
                if row in counts and row not in emitted:
                    emitted.add(row)
                    yield row

    def _children(self):
        return [self.left, self.right]

    def _describe(self):
        return f"Intersect(all={self.all_rows})"
