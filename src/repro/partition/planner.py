"""Partition-aware plan split.

A CQ runs partitioned when its plan factors into::

    coordinator:  final/merge stage  (everything above the aggregate)
    workers:      per-partition window aggregation (aggregate + below)

The aggregate operator is the split point — ``HashAggregate``, or the
vectorized ``BatchAggregate`` that inherits its mergeable partial
protocol — and ``ContinuousQuery.split_at`` is told it on both sides:
each worker's CQ reduces its shard's window to one partial, and the
coordinator's CQ takes the shards' partials as its window, merges and
finalizes them and runs the unchanged post-aggregate plan (HAVING,
projection with ``cq_close``, ORDER BY, LIMIT) with the aggregate pinned
to the merged rows.  Nothing about the TruSQL surface changes ("One SQL
to Rule Them All": the split is invisible).

``partition_plan`` validates the shape and returns the split; it
raises :class:`PartitionError` with a reason for plans the partitioned
engine cannot run (joins, UNBOUNDED windows, multi-aggregate trees,
EMIT ON CHANGE / EVERY early emission).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import PartitionError
from repro.exec import batch_ops
from repro.exec.operators import HashAggregate, RowSource
from repro.obs.service import walk_operators


@dataclass
class PartitionPlan:
    """The split of one CQ: its merge aggregate + source stream name."""

    agg: object         # BatchAggregate | HashAggregate (merge point)
    stream_name: str    # the partitioned source stream


def _fail(cq, reason: str):
    error = PartitionError(
        f"CQ {getattr(cq, 'name', '?')!r} cannot run partitioned: "
        f"{reason} (see docs/PARTITION.md for the supported plan shape)")
    error.reason = reason
    raise error


def partition_plan(cq) -> PartitionPlan:
    """Validate ``cq`` for partitioned execution and locate the merge
    aggregate.  The same checks hold for the coordinator's plan and the
    workers' (they are built from the same SQL)."""
    from repro.streaming.cq import ContinuousQuery

    if not isinstance(cq, ContinuousQuery):
        _fail(cq, "only continuous queries are supported")
    if cq.is_join():
        _fail(cq, "two-stream joins are not yet partitionable")
    spec = cq.window_spec
    if spec is None or spec.kind != "time":
        _fail(cq, "a time window (VISIBLE/ADVANCE) is required")
    if math.isinf(spec.visible):
        _fail(cq, "UNBOUNDED windows do not partition")
    from repro.eventtime.operator import EMIT_ON_WATERMARK
    if cq.emit_mode not in (None, EMIT_ON_WATERMARK):
        _fail(cq, "EMIT ON CHANGE / EMIT EVERY early emission is "
                   "per-shard speculative state and is not supported")

    ops = [op for op, _d, _p in walk_operators(cq._plan.root)]
    if any(len(op._children()) > 1 for op in ops):
        _fail(cq, "the plan is not a single operator chain")
    aggs = [op for op in ops if isinstance(op, HashAggregate)]
    if len(aggs) != 1:
        _fail(cq, f"exactly one aggregation is required, found {len(aggs)}")
    leaves = [op for op in ops if not op._children()]
    if len(leaves) != 1 or not isinstance(
            leaves[0], (RowSource, batch_ops.BatchSource)):
        _fail(cq, "the aggregate must read the stream's window relation "
                  "directly (no subqueries or table scans below it)")
    return PartitionPlan(agg=aggs[0], stream_name=cq.stream.name)
