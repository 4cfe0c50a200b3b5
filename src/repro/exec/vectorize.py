"""Plan conversion pass: iterator operators -> batch operators.

Runs on a freshly-built CQ plan (never on snapshot plans).  Conversion
is bottom-up and *per-operator*: each Filter / Project / HashAggregate
whose expressions have numpy kernels and whose child converted becomes
its batch twin; anything else keeps the iterator implementation and
pulls rows from the batch subtree through the ``rows()`` bridge (mixed
mode).  A bare converted source under an iterator parent is demoted
back — batching rows just to unbatch them buys nothing.

The planner attaches the conversion inputs at plan build time:

- ``RowSource.vector_source`` — ``(fetch, types, label, is_stream)``,
  set by the CQ's source resolver for window relations;
- ``Filter.vector_info`` — ``(predicate_ast, layout)``;
- ``Project.vector_info`` — ``(item_asts, layout)``;
- ``HashAggregate.vector_info`` — ``(group_exprs, agg_calls, layout)``.
"""
from __future__ import annotations

from typing import Tuple

from repro.exec import batch_ops, operators as ops
from repro.exec.vector import NotVectorizable, compile_batch_expr, expr_family
from repro.sql import ast

#: aggregate functions with a vectorized partial implementation;
#: everything else (count distinct, median, stddev, bool_and, ...)
#: keeps the iterator HashAggregate — the documented mixed-mode case
VECTOR_AGG_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


def walk(root: ops.Operator):
    stack = [root]
    while stack:
        op = stack.pop()
        yield op
        stack.extend(op._children())


def vectorize_plan(root: ops.Operator) -> Tuple[ops.Operator, bool]:
    """Return (new_root, changed)."""
    new_root = _demote(_convert(root))
    changed = any(
        isinstance(op, (batch_ops.BatchOperator, batch_ops.BatchAggregate))
        for op in walk(new_root)
    )
    if changed:
        # EXPLAIN annotates every node of a (partially) vectorized plan
        # with its mode; untouched plans render exactly as before
        for op in walk(new_root):
            op.show_mode = True
    return new_root, changed


def _demote(node: ops.Operator) -> ops.Operator:
    """Under an iterator parent a bare BatchSource is pure overhead."""
    if isinstance(node, batch_ops.BatchSource):
        return node.fallback
    return node


def _convert(op: ops.Operator) -> ops.Operator:
    if isinstance(op, ops.RowSource):
        info = getattr(op, "vector_source", None)
        if info is not None:
            fetch, types, label, is_stream = info
            return batch_ops.BatchSource(fetch, types, label, op, is_stream)
        return op

    if isinstance(op, ops.Filter):
        child = _convert(op.child)
        info = getattr(op, "vector_info", None)
        if info is not None and isinstance(child, batch_ops.BatchOperator):
            predicate, layout = info
            flags = {"context": False}
            try:
                # Filter keeps rows whose predicate `is True`; only a
                # genuinely boolean kernel reproduces that
                if expr_family(predicate, layout) != "bool":
                    raise NotVectorizable("non-boolean predicate")
                kernel = compile_batch_expr(predicate, layout, flags)
            except NotVectorizable:
                op.child = _demote(child)
                return op
            return batch_ops.BatchFilter(child, kernel, flags["context"],
                                         repr(predicate))
        op.child = _demote(child)
        return op

    if isinstance(op, ops.Project):
        child = _convert(op.child)
        info = getattr(op, "vector_info", None)
        # projections over a BatchAggregate stay in iterator mode: the
        # aggregate output is a handful of rows per window, where batch
        # construction costs more than it saves
        if info is not None and isinstance(child, batch_ops.BatchOperator):
            item_exprs, layout = info
            flags = {"context": False}
            try:
                kernels = [compile_batch_expr(e, layout, flags)
                           for e in item_exprs]
            except NotVectorizable:
                op.child = _demote(child)
                return op
            return batch_ops.BatchProject(child, kernels, flags["context"],
                                          repr(item_exprs))
        op.child = _demote(child)
        return op

    if isinstance(op, ops.HashAggregate):
        child = _convert(op.child)
        info = getattr(op, "vector_info", None)
        if info is not None and isinstance(child, batch_ops.BatchOperator):
            converted = _convert_aggregate(op, child, info)
            if converted is not None:
                return converted
        op.child = _demote(child)
        return op

    # every other operator stays as-is; recurse into its inputs
    for attr in ("child", "left", "right"):
        node = getattr(op, attr, None)
        if isinstance(node, ops.Operator):
            setattr(op, attr, _demote(_convert(node)))
    return op


def _convert_aggregate(op: ops.HashAggregate, child, info):
    group_exprs, agg_calls, layout = info
    if len(group_exprs) > 1:
        # multi-key grouping falls back to the iterator HashAggregate
        return None
    flags = {"context": False}
    try:
        group_kernel = (compile_batch_expr(group_exprs[0], layout, flags)
                        if group_exprs else None)
        vector_aggs = []
        for call in agg_calls:
            name = call.name.lower()
            if call.distinct:
                raise NotVectorizable("DISTINCT aggregate")
            star = bool(call.args) and isinstance(call.args[0], ast.Star)
            if star or not call.args:
                if name != "count":
                    raise NotVectorizable(name)
                vector_aggs.append(batch_ops.VectorAgg("count_star", None))
                continue
            if name not in VECTOR_AGG_NAMES:
                raise NotVectorizable(name)
            arg = call.args[0]
            if name != "count" and expr_family(arg, layout) != "num":
                # sum/avg/min/max kernels reduce numeric lanes only
                # (count(x) just needs the null mask, any type goes)
                raise NotVectorizable(f"{name} over non-numeric argument")
            arg_kernel = compile_batch_expr(arg, layout, flags)
            vector_aggs.append(batch_ops.VectorAgg(name, arg_kernel))
    except NotVectorizable:
        return None
    return batch_ops.BatchAggregate(
        child, group_kernel, vector_aggs,
        op._group_exprs, op._agg_specs, flags["context"],
        repr((group_exprs, agg_calls)))
