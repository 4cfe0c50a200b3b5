"""The streaming engine: streams, windows, continuous queries, shared
slice aggregation, channels/active tables, and recovery.

This package implements the paper's Sections 2–4: windows turn a stream
into a sequence of relations (Figure 1); continuous queries re-run a
relational plan per window (RSTREAM semantics); derived streams are
always-on CQs (Example 3); channels persist them into active tables
(Example 4); aggregate CQs share per-slice partial state (Section 2.2,
refs [4, 12]); and runtime state recovers the paper's one way, rebuilt
from the active table by replaying the stream tail (Section 4).
"""

from repro.streaming.streams import BaseStream, DerivedStream, StreamConsumer
from repro.streaming.windows import (
    RowWindowOperator,
    TimeWindowOperator,
    WindowCountOperator,
    WindowSpec,
)
from repro.streaming.cq import ContinuousQuery, CQStats
from repro.streaming.channels import Channel
from repro.streaming.views import StreamingView
from repro.streaming.shared import SliceStore
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.recovery import recover_from_active_table

__all__ = [
    "recover_from_active_table",
    "BaseStream",
    "DerivedStream",
    "StreamConsumer",
    "WindowSpec",
    "TimeWindowOperator",
    "RowWindowOperator",
    "WindowCountOperator",
    "ContinuousQuery",
    "CQStats",
    "Channel",
    "StreamingView",
    "SliceStore",
    "StreamingRuntime",
]
