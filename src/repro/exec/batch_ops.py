"""Batch-mode physical operators for the vectorized executor.

A batch operator implements ``batches(ctx)`` — a generator of
:class:`~repro.exec.columnar.ColumnBatch` — and bridges to the iterator
protocol through ``rows(ctx)``, so a batch subtree can sit under any
iterator operator (per-operator mixed mode).  Instrumentation wraps
``batches`` instead of ``rows``; ``OperatorStats.batch_rows`` counts the
rows that flowed through the vectorized path.

:class:`BatchAggregate` is the heart of the incremental window path: it
exposes mergeable *partial* aggregation (``partial_for_rows`` /
``merge_partials``) using exactly the same state shapes as the iterator
aggregates in :mod:`repro.exec.aggregates`, so slice partials computed
vectorized merge with ``Aggregate.merge`` at window close.
"""
from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.exec import operators as ops
from repro.exec.columnar import ColumnBatch, np


class _RowwiseNeeded(Exception):
    """Internal: this batch needs the row-at-a-time fallback."""


class BatchOperator(ops.Operator):
    """Base class for operators that produce column batches."""

    mode = "batch"

    def batches(self, ctx):
        raise NotImplementedError

    def rows(self, ctx):
        # iterator bridge: parents that stayed in iterator mode pull
        # rows; self.batches is looked up per call so instrumentation
        # swaps apply here too
        for batch in self.batches(ctx):
            yield from batch.to_rows()

    def instrument(self) -> None:
        if self.stats is not None:
            return
        self.stats = st = ops.OperatorStats()
        inner = self._batches_plain = self.batches

        def batches(ctx, _inner=inner, _st=st, _pc=time.perf_counter):
            _st.calls += 1
            t0 = _pc()
            for batch in _inner(ctx):
                _st.wall_seconds += _pc() - t0
                _st.tuples_out += batch.length
                _st.batch_rows += batch.length
                yield batch
                t0 = _pc()
            _st.wall_seconds += _pc() - t0

        self._batches_timed = batches
        self.batches = batches

    def set_timing(self, active: bool) -> None:
        if self.stats is not None:
            self.batches = (self._batches_timed if active
                            else self._batches_plain)


class BatchSource(BatchOperator):
    """The batch twin of RowSource: builds one ColumnBatch per pull."""

    def __init__(self, fetch: Callable, types: Sequence, label: str,
                 fallback: ops.Operator, is_stream_source: bool = False):
        self._fetch = fetch
        self.types = list(types)
        self._label = label
        self.fallback = fallback
        self.is_stream_source = is_stream_source

    def batches(self, ctx):
        yield ColumnBatch.from_rows(self._fetch(), self.types)

    def _describe(self):
        return f"BatchSource({self._label})"


class BatchFilter(BatchOperator):
    """WHERE over batches: computes the predicate kernel, compresses."""

    def __init__(self, child: BatchOperator, kernel: Callable):
        self.child = child
        self._kernel = kernel

    def batches(self, ctx):
        kernel = self._kernel
        for batch in self.child.batches(ctx):
            values, mask = kernel(batch, ctx)
            keep = values if mask is None else (values & ~mask)
            if keep.all():
                yield batch
            else:
                yield batch.take(keep)

    def _children(self):
        return [self.child]


class BatchProject(BatchOperator):
    """Projection over batches: one kernel per output column."""

    def __init__(self, child: BatchOperator, kernels: Sequence[Callable]):
        self.child = child
        self._kernels = list(kernels)

    def batches(self, ctx):
        kernels = self._kernels
        for batch in self.child.batches(ctx):
            columns = []
            masks = []
            for kernel in kernels:
                values, mask = kernel(batch, ctx)
                columns.append(values)
                masks.append(mask)
            yield ColumnBatch(columns, masks, batch.length)

    def _children(self):
        return [self.child]


# ---------------------------------------------------------------------------
# vectorized aggregation
# ---------------------------------------------------------------------------


_INT_MAX = None
_INT_MIN = None


def _int_sentinels():
    global _INT_MAX, _INT_MIN
    if _INT_MAX is None:
        info = np.iinfo(np.int64)
        _INT_MAX, _INT_MIN = info.max, info.min
    return _INT_MAX, _INT_MIN


class VectorAgg:
    """One aggregate column computed vectorized per batch.

    ``kind`` is one of ``count_star``, ``count``, ``sum``, ``avg``,
    ``min``, ``max``; ``partial`` returns one iterator-shaped state per
    group (see :mod:`repro.exec.aggregates` for the shapes).
    """

    def __init__(self, kind: str, arg_kernel: Optional[Callable]):
        self.kind = kind
        self._arg_kernel = arg_kernel

    def partial(self, batch: ColumnBatch, ctx, codes, order, starts,
                counts, g: int) -> List:
        kind = self.kind
        if kind == "count_star":
            return counts.tolist()
        values, mask = self._arg_kernel(batch, ctx)
        if mask is None:
            valid_counts = counts
        else:
            valid_counts = np.bincount(codes[~mask], minlength=g)
        if kind == "count":
            return valid_counts.tolist()
        if kind in ("min", "max") and values.dtype == object:
            # np.minimum/maximum over object lanes is not worth trusting
            raise _RowwiseNeeded
        sorted_values = values[order]
        sorted_mask = None if mask is None else mask[order]
        if kind == "sum":
            if sorted_mask is not None:
                zero = 0 if values.dtype != np.float64 else 0.0
                sorted_values = np.where(sorted_mask, zero, sorted_values)
            sums = np.add.reduceat(sorted_values, starts).tolist()
            return [None if valid_counts[i] == 0 else sums[i]
                    for i in range(g)]
        if kind == "avg":
            floats = sorted_values.astype(np.float64)
            if sorted_mask is not None:
                floats = np.where(sorted_mask, 0.0, floats)
            totals = np.add.reduceat(floats, starts).tolist()
            vc = valid_counts.tolist()
            # Avg state is (total, count); an empty group keeps (0.0, 0)
            return [(totals[i] if vc[i] else 0.0, vc[i]) for i in range(g)]
        # min / max
        if sorted_mask is not None:
            if values.dtype == np.float64:
                fill = np.inf if kind == "min" else -np.inf
            else:
                hi, lo = _int_sentinels()
                fill = hi if kind == "min" else lo
            sorted_values = np.where(sorted_mask, fill, sorted_values)
        reducer = np.minimum if kind == "min" else np.maximum
        extremes = reducer.reduceat(sorted_values, starts).tolist()
        return [None if valid_counts[i] == 0 else extremes[i]
                for i in range(g)]


class BatchAggregate(ops.HashAggregate):
    """Vectorized GROUP BY (zero or one group key): the hash aggregate
    with vector kernels in front of its rows loop.

    The partial protocol, the finalize and the pin (``set_merged``) are
    :class:`~repro.exec.operators.HashAggregate`'s; this class reduces a
    column batch to the same partial dict — same state tuples, same
    first-seen group order — with numpy kernels, and hands a batch the
    kernels cannot take exactly (a NULL group key, min/max over an
    object lane) to the inherited loop.  A numeric group lane is
    grouped by ``np.unique``; an object lane (text) is hashed through a
    dict, as the rows loop groups it, so it needs no sort of Python
    strings and its groups come out first-seen as they are found.
    """

    mode = "batch"

    def __init__(self, child, group_kernel: Optional[Callable],
                 vector_aggs: Sequence[VectorAgg],
                 fallback_group_fns, fallback_specs):
        super().__init__(child, fallback_group_fns, fallback_specs)
        self._group_kernel = group_kernel
        self._vector_aggs = list(vector_aggs)
        self._timed = True

    # the benchmark ledger times these where it finds them: on this class
    merge_partials = ops.HashAggregate.merge_partials
    finalize = ops.HashAggregate.finalize

    def set_timing(self, active: bool) -> None:
        super().set_timing(active)
        self._timed = active

    def accumulate(self, ctx) -> dict:
        """Aggregate the child's batches into a partial-state dict."""
        parts = []
        st = self.stats
        for batch in self.child.batches(ctx):
            if st is not None and self._timed:
                st.batch_rows += batch.length
            parts.append(self._batch_partial(batch, ctx))
        return parts[0] if len(parts) == 1 else self.merge_partials(parts)

    def partial_for_rows(self, batch: ColumnBatch, ctx) -> dict:
        """One batch's partial states."""
        return self._batch_partial(batch, ctx)

    def _batch_partial(self, batch: ColumnBatch, ctx) -> dict:
        n = batch.length
        if n == 0:
            return {}
        if self._group_kernel is None:
            codes = np.zeros(n, dtype=np.intp)
            keys = [()]
        else:
            group_values, group_mask = self._group_kernel(batch, ctx)
            if group_mask is not None and group_mask.any():
                # NULL group keys are rare; keep exact dict semantics
                return self._reduce_rows(batch.to_rows(), ctx)
            if group_values.dtype == object:
                # hash, as the rows loop does: codes in first-seen order
                values = group_values.tolist()
                key_values = list(dict.fromkeys(values))
                code_of = dict(zip(key_values, range(len(key_values))))
                codes = np.fromiter(map(code_of.__getitem__, values),
                                    dtype=np.intp, count=n)
            else:
                uniques, first_index, codes = np.unique(
                    group_values, return_index=True, return_inverse=True)
                # np.unique sorts; renumber the groups first-seen
                first_seen = np.argsort(first_index, kind="stable")
                rank = np.empty_like(first_seen)
                rank[first_seen] = np.arange(len(first_seen))
                codes = rank[codes]
                key_values = uniques[first_seen].tolist()
            keys = [(k,) for k in key_values]
        g = len(keys)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        starts = np.searchsorted(sorted_codes, np.arange(g))
        counts = np.bincount(codes, minlength=g)
        try:
            per_agg = [va.partial(batch, ctx, codes, order, starts,
                                  counts, g)
                       for va in self._vector_aggs]
        except _RowwiseNeeded:
            return self._reduce_rows(batch.to_rows(), ctx)
        return dict(zip(keys, zip(*per_agg) if per_agg else [()] * g))
