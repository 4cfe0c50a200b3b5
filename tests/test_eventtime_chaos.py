"""Chaos scenarios for the ``eventtime.watermark_persist`` crashpoint.

The promise under test: :meth:`Database.inject_watermark` advances the
stream's watermark (closing windows) and *then* makes the advance
durable with a WAL flush.  A crash between the two must never corrupt
event-time state:

* in-process, the advance has already happened — a retry is idempotent
  (the watermark is monotone) and simply completes the flush;
* across a real crash, the unflushed advance is lost — recovery lands
  the watermark exactly on the durable state (observation-derived from
  replayed rows plus flushed injections), and re-closing the windows
  after a retry emits each window exactly once, with no spurious
  emit-then-retract pair.
"""

import pytest

from repro import Database
from repro.errors import FaultInjected
from repro.faults import FaultInjector
from repro.replication import open_database

STREAM_DDL = ("CREATE STREAM s (v integer, ts timestamp CQTIME USER) "
              "WATERMARK '5 seconds'")
CQ_SQL = ("SELECT count(*) FROM s <VISIBLE '10 seconds'> "
          "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")


class TestWatermarkPersistCrashpoint:
    def test_in_process_retry_is_idempotent(self):
        faults = FaultInjector(seed=13)
        faults.arm("eventtime.watermark_persist", count=1)
        db = Database(fault_injector=faults)
        db.execute(STREAM_DDL)
        sub = db.subscribe(CQ_SQL)
        db.insert_stream("s", [(1, 3.0), (2, 8.0)])
        with pytest.raises(FaultInjected):
            db.inject_watermark("s", 20.0)
        # the advance took effect before the crashpoint: windows closed
        stream = db.runtime.get_stream("s")
        assert stream.watermark == 20.0
        first = sub.poll()
        assert [(w.kind, w.close_time) for w in first] == [
            ("window", 10.0), ("window", 20.0)]
        # the fault is spent; the retry completes the flush and closes
        # nothing twice (monotone watermark: no second emission)
        assert db.inject_watermark("s", 20.0) == 20.0
        assert sub.poll() == []
        db.close()

    def test_crash_lands_watermark_on_durable_state(self, tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        faults = FaultInjector(seed=13)
        faults.arm("eventtime.watermark_persist", count=1)
        db = open_database(wal_path=wal_path, stream_retention=3600.0,
                           fault_injector=faults)
        db.execute(STREAM_DDL)
        db.insert_stream("s", [(1, 3.0), (2, 8.0), (3, 12.0)])
        db.storage.wal.flush()  # the rows are durable
        with pytest.raises(FaultInjected):
            db.inject_watermark("s", 50.0)  # the advance is not
        assert db.runtime.get_stream("s").watermark == 50.0
        # kill -9: no close(), no flush — the buffered advance is lost

        recovered = open_database(wal_path=wal_path,
                                  stream_retention=3600.0)
        try:
            stream = recovered.runtime.get_stream("s")
            # observation-derived only: max event time 12 minus bound 5;
            # the torn injection neither persisted nor corrupted
            assert stream.watermark == 7.0
            assert stream.tracker.max_event_time == 12.0

            # a fresh CQ sees each window exactly once when the client
            # retries the injection — no spurious emit-then-retract
            sub = recovered.subscribe(CQ_SQL)
            assert recovered.inject_watermark("s", 50.0) == 50.0
            windows = sub.poll()
            assert all(w.kind == "window" for w in windows)
            closes = [w.close_time for w in windows]
            assert closes == sorted(set(closes))
        finally:
            recovered.close()

    def test_flushed_injection_survives_crash(self, tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        db = open_database(wal_path=wal_path, stream_retention=3600.0)
        db.execute(STREAM_DDL)
        db.insert_stream("s", [(1, 3.0)])
        db.inject_watermark("s", 40.0)  # unfaulted: flushed
        # kill -9 without close: the flush already happened

        recovered = open_database(wal_path=wal_path,
                                  stream_retention=3600.0)
        try:
            stream = recovered.runtime.get_stream("s")
            assert stream.watermark == 40.0
            # monotone across recovery: replayed observations cannot
            # drag it back down
            recovered.insert_stream("s", [(2, 10.0)])
            assert stream.watermark == 40.0
        finally:
            recovered.close()
