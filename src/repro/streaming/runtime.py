"""StreamingRuntime: owns all live streaming objects of a database.

Creates base streams, derived streams (always-on CQs, Example 3),
ad-hoc CQs (returned to the client as subscriptions), and channels
(Example 4).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.catalog import catalog as cat
from repro.catalog.schema import Schema
from repro.errors import StreamingError, UnknownObjectError
from repro.sql import ast
from repro.streaming.channels import Channel
from repro.streaming.cq import ContinuousQuery
from repro.streaming.streams import BaseStream, DerivedStream


class StreamingRuntime:
    """The always-on half of a stream-relational database."""

    def __init__(self, catalog, txn_manager,
                 default_retention: Optional[float] = None,
                 disorder_policy: str = "raise",
                 vectorize: bool = True):
        self.catalog = catalog
        self.txn_manager = txn_manager
        self.vectorize = vectorize
        self.default_retention = default_retention
        self.disorder_policy = disorder_policy
        self.supervisor = None  # set by Database.enable_supervision
        self.faults = None      # optional FaultInjector, set by Database
        self.obs = None         # Observability facade, set by Database
        # fn(stream, kind, row, event_time) wired onto every base stream
        # when replication logging is enabled (Database sets this)
        self.stream_logger = None
        # (sender, seq) of the idempotent ingest batch being applied, if
        # any; the replication logger tags each row's WAL record with it
        # so recovery can drop rows of a batch whose dedup marker never
        # became durable (Database.ingest_batch sets/clears this)
        self.current_batch = None
        self._cqs: Dict[str, object] = {}
        self._derived_order: List[DerivedStream] = []
        self._counter = 0

    # -- stream objects ---------------------------------------------------------

    def create_base_stream(self, name: str, schema: Schema,
                           retention: Optional[float] = None,
                           watermark_bound: Optional[float] = None,
                           partition_by: Optional[str] = None
                           ) -> BaseStream:
        stream = BaseStream(
            name, schema,
            disorder_policy=self.disorder_policy,
            retention=retention if retention is not None
            else self.default_retention,
            watermark_bound=watermark_bound,
            partition_by=partition_by,
        )
        stream.faults = self.faults
        stream.replication_log = self.stream_logger
        if self.obs is not None:
            self.obs.bind_stream(stream)
        self.catalog.add_relation(name, cat.STREAM, stream)
        if self.supervisor is not None:
            self.supervisor.adopt_stream(stream)
        return stream

    def create_derived_stream(self, name: str,
                              select: ast.Select) -> DerivedStream:
        """CREATE STREAM name AS SELECT ... — instantiated immediately
        and runs until dropped ("always on", Section 3.2)."""
        cq = self._make_cq(select, name=f"derived:{name}")
        derived = DerivedStream(name, cq.output_schema,
                                retention=self.default_retention)
        derived.cq = cq
        cq.add_sink(derived.on_record)
        cq.attach()
        self.catalog.add_relation(name, cat.DERIVED_STREAM, derived)
        self._cqs[cq.name] = cq
        self._derived_order.append(derived)
        if self.supervisor is not None:
            self.supervisor.adopt_cq(cq)
        return derived

    def drop_stream(self, name: str) -> None:
        kind = self.catalog.relation_kind(name)
        obj = self.catalog.drop_relation(name)
        if kind == cat.DERIVED_STREAM:
            if obj.cq is not None:
                obj.cq.stop()
                self._cqs.pop(obj.cq.name, None)
            if obj in self._derived_order:
                self._derived_order.remove(obj)
        if self.supervisor is not None:
            self.supervisor.release(
                obj.cq if kind == cat.DERIVED_STREAM else obj)

    # -- continuous queries --------------------------------------------------------

    def create_cq(self, select: ast.Select, name: Optional[str] = None,
                  params=None):
        """Instantiate and attach a CQ; returns the CQ object."""
        cq = self._make_cq(select, name, params)
        cq.attach()
        self._cqs[cq.name] = cq
        if self.supervisor is not None:
            self.supervisor.adopt_cq(cq)
        return cq

    def _make_cq(self, select: ast.Select, name: Optional[str] = None,
                 params=None):
        if name is None:
            self._counter += 1
            name = f"cq_{self._counter}"
        cq = ContinuousQuery(name, select, self.catalog, self.txn_manager,
                             params=params, obs=self.obs,
                             vectorize=self.vectorize)
        cq.faults = self.faults
        cq.late_handler = self._quarantine_late
        return cq

    def _quarantine_late(self, cq_name: str, row, event_time: float,
                         watermark: float, expired: bool) -> None:
        """Dead-letter one late row with the structured late-event
        reason (supervisor's quarantine record shape).  Without a
        supervisor the dead-letter policy degrades to drop-with-count."""
        supervisor = self.supervisor
        if supervisor is None:
            return
        from repro.eventtime.lateness import LATE_EVENT, late_reason
        supervisor.quarantine(
            cq_name, LATE_EVENT, late_reason(event_time, watermark, expired),
            [row], open_time=event_time, close_time=watermark)

    def stop_cq(self, cq) -> None:
        cq.stop()
        self._cqs.pop(cq.name, None)

    def cqs(self):
        return dict(self._cqs)

    # -- channels -----------------------------------------------------------------

    def create_channel(self, name: str, source_name: str, table,
                       mode: str) -> Channel:
        kind = self.catalog.relation_kind(source_name)
        if kind not in (cat.STREAM, cat.DERIVED_STREAM):
            raise UnknownObjectError(
                f"channel source {source_name!r} is not a stream")
        source = self.catalog.get_relation(source_name)
        channel = Channel(name, source, table, self.txn_manager, mode)
        channel.faults = self.faults
        if self.obs is not None:
            self.obs.bind_channel(channel)
        channel.attach()
        self.catalog.add_channel(name, channel)
        if self.supervisor is not None:
            self.supervisor.adopt_channel(channel)
        return channel

    def drop_channel(self, name: str) -> None:
        channel = self.catalog.drop_channel(name)
        channel.detach()
        if self.supervisor is not None:
            self.supervisor.release(channel)

    # -- time control ----------------------------------------------------------------

    def heartbeat_all(self, event_time: float) -> None:
        """Advance every base stream's clock (punctuation broadcast)."""
        for _name, stream in self.catalog.relations(cat.STREAM):
            stream.advance_to(event_time)

    def flush_all(self) -> None:
        """End-of-input: emit every pending window, upstream first."""
        for _name, stream in self.catalog.relations(cat.STREAM):
            stream.flush()
        for derived in self._derived_order:
            derived.flush()

    def get_stream(self, name: str) -> BaseStream:
        kind = self.catalog.relation_kind(name)
        if kind == cat.STREAM:
            return self.catalog.get_relation(name)
        if kind == cat.DERIVED_STREAM:
            raise StreamingError(
                f"{name!r} is a derived stream; data cannot be inserted into it"
            )
        raise UnknownObjectError(f"stream {name!r} does not exist")
