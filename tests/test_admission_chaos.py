"""Chaos scenarios for the ``admission.*`` crashpoints.

Two faults, one promise each:

* ``admission.quota_check`` — the admission decision itself dies
  mid-flight.  The batch must be *refused with a retry hint*, never
  half-applied: rejection, not corruption.
* ``admission.dedup_persist`` — the engine dies between applying a
  batch's rows and making its dedup marker durable.  In-process the
  marker is still recorded (a retry acks duplicate); after a real
  crash the lost marker means recovery discards the batch's rows as a
  torn batch — and the client's retry is accepted fresh.  Both paths
  end with every row applied exactly once.
"""

import pytest

from repro import Database
from repro import client
from repro.clock import ManualClock
from repro.errors import AdmissionError, FaultInjected
from repro.faults import FaultInjector
from repro.replication import open_database
from repro.server import ServerThread

STREAM_DDL = "CREATE STREAM s (v integer, ts timestamp CQTIME USER)"


class TestQuotaCheckCrashpoint:
    def test_refusal_not_corruption(self):
        faults = FaultInjector(seed=11)
        faults.arm("admission.quota_check", count=1)
        clk = ManualClock()
        with ServerThread(clock=clk, fault_injector=faults) as st:
            conn = client.connect(st.host, st.port, tenant="acme",
                                  clock=clk)
            try:
                conn.execute(STREAM_DDL)
                with pytest.raises(AdmissionError) as info:
                    conn.ingest("s", [(1, 1.0), (2, 2.0)], retry=False)
                assert info.value.reason == "fault"
                assert info.value.retryable
                # nothing reached the engine
                assert conn.query(
                    "SELECT tuples FROM repro_streams").scalar() == 0
                # the fault is spent: a plain retry goes through whole
                assert conn.ingest("s", [(1, 1.0), (2, 2.0)]) == 2
                assert conn.query(
                    "SELECT tuples FROM repro_streams").scalar() == 2
                assert st.db.admission.tenant("acme").batches_rejected == 1
            finally:
                conn.close()

    def test_client_auto_retry_rides_through(self):
        faults = FaultInjector(seed=11)
        faults.arm("admission.quota_check", count=1)
        clk = ManualClock()
        with ServerThread(clock=clk, fault_injector=faults) as st:
            conn = client.connect(st.host, st.port, clock=clk)
            try:
                conn.execute(STREAM_DDL)
                # the retryable refusal is absorbed by the client's own
                # backoff loop; the caller just sees an admitted batch
                assert conn.ingest("s", [(1, 1.0)]) == 1
                assert conn.query(
                    "SELECT tuples FROM repro_streams").scalar() == 1
            finally:
                conn.close()


class TestDedupPersistCrashpoint:
    def batch(self, seqs, at=1.0):
        return [(seq, at + i) for i, seq in enumerate(seqs)]

    def test_in_process_retry_is_duplicate(self):
        faults = FaultInjector(seed=7)
        faults.arm("admission.dedup_persist", count=1)
        db = Database(fault_injector=faults)
        db.execute(STREAM_DDL)
        with pytest.raises(FaultInjected):
            db.ingest_batch("s", [(1, 1.0), (2, 2.0)],
                            sender="c1", seq=1)
        # the rows went in and the marker was recorded in memory, so an
        # in-process client retry does not double-apply
        replay = db.ingest_batch("s", [(1, 1.0), (2, 2.0)],
                                 sender="c1", seq=1)
        assert replay == {"accepted": 0, "shed": 0, "dropped": 0,
                          "duplicate": 2}
        assert db.query("SELECT tuples FROM repro_streams").scalar() == 2
        db.close()

    def test_crash_discards_torn_batch_and_retry_lands_fresh(self,
                                                             tmp_path):
        wal_path = str(tmp_path / "wal.jsonl")
        faults = FaultInjector(seed=7)
        # after=1: let batch 1's marker persist cleanly, kill batch 2's
        faults.arm("admission.dedup_persist", count=1, after=1)
        db = open_database(wal_path=wal_path, stream_retention=3600.0,
                           fault_injector=faults)
        db.execute(STREAM_DDL)
        # batch 1 commits cleanly: rows + marker in one flush
        db.ingest_batch("s", self.batch([1, 2], at=1.0),
                        sender="c1", seq=1)
        # batch 2 dies between row apply and marker persist
        with pytest.raises(FaultInjected):
            db.ingest_batch("s", self.batch([3, 4], at=3.0),
                            sender="c1", seq=2)
        # the engine lives on; batch 3's marker flush makes batch 2's
        # rows durable too — but batch 2's marker was never written, so
        # the log now holds exactly half of that batch
        db.ingest_batch("s", self.batch([5], at=5.0), sender="c1", seq=3)
        db.close()

        recovered = open_database(wal_path=wal_path,
                                  stream_retention=3600.0)
        try:
            # recovery kept batches 1 and 3 whole and discarded batch
            # 2's marker-less rows as a torn batch
            stats = recovered.recovery_stats
            assert stats["torn_batch_rows"] == 2
            assert stats["dedup_markers"] == 2
            assert recovered.query(
                "SELECT tuples FROM repro_streams").scalar() == 3
            # the client's retry of batch 2 is accepted fresh ...
            retry = recovered.ingest_batch(
                "s", self.batch([3, 4], at=6.0), sender="c1", seq=2)
            assert retry["accepted"] == 2 and retry["duplicate"] == 0
            # ... and a replay of batch 1 is still a duplicate
            replay = recovered.ingest_batch(
                "s", self.batch([1, 2], at=7.0), sender="c1", seq=1)
            assert replay["duplicate"] == 2
            assert recovered.query(
                "SELECT tuples FROM repro_streams").scalar() == 5
        finally:
            recovered.close()
