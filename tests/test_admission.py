"""Admission control: tenants, quotas, rate limits, tiered shedding,
weighted fair scheduling, and idempotent ingest.

Everything time-sensitive runs on a :class:`~repro.clock.ManualClock`
— no test here sleeps to make a token bucket refill or a retry back
off.  Server-side tests share one manual clock between the client and
the server, so a client-side ``sleep(retry_after)`` *is* the bucket's
refill.
"""

import pytest

from repro import Database
from repro import client
from repro.admission import (
    AdmissionController,
    DedupIndex,
    TokenBucket,
    WeightedFairQueue,
)
from repro.clock import ManualClock
from repro.errors import AdmissionError, ExecutionError, ProtocolError
from repro.server import ServerThread

STREAM_DDL = "CREATE STREAM s (v integer, ts timestamp CQTIME USER)"


# ---------------------------------------------------------------------------
# token bucket
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_starts_full_and_spends(self):
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=ManualClock())
        assert bucket.try_take(5) == 0.0
        assert bucket.admitted == 5

    def test_refills_at_rate(self):
        clk = ManualClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=clk)
        bucket.try_take(5)
        wait = bucket.try_take(3)
        assert wait == pytest.approx(0.3)
        assert bucket.rejected == 1
        clk.advance(wait)
        assert bucket.try_take(3) == 0.0

    def test_never_exceeds_burst(self):
        clk = ManualClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=clk)
        clk.advance(100.0)
        assert bucket.available() == 5.0

    def test_full_bucket_overdraft_admits_oversized_batch(self):
        clk = ManualClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=clk)
        # a batch bigger than burst could never be admitted strictly;
        # a full bucket takes it and goes into debt
        assert bucket.try_take(20) == 0.0
        assert bucket.tokens == -15.0
        # the debt is repaid before anything else gets in
        assert bucket.try_take(1) > 0.0
        clk.advance(1.6)  # 16 tokens: debt + 1
        assert bucket.try_take(1) == 0.0

    def test_configure_clamps_balance(self):
        bucket = TokenBucket(rate=10.0, burst=50.0, clock=ManualClock())
        bucket.configure(burst=5.0)
        assert bucket.tokens == 5.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=5)
        with pytest.raises(ValueError):
            TokenBucket(rate=5, burst=-1)


# ---------------------------------------------------------------------------
# dedup index
# ---------------------------------------------------------------------------


class TestDedupIndex:
    def test_fresh_seq_not_seen_then_recorded(self):
        idx = DedupIndex()
        assert not idx.seen("s", "c1", 1)
        idx.record("s", "c1", 1)
        assert idx.seen("s", "c1", 1)
        assert idx.duplicates == 1

    def test_senders_and_streams_are_independent(self):
        idx = DedupIndex()
        idx.record("s", "c1", 1)
        assert not idx.seen("s", "c2", 1)
        assert not idx.seen("t", "c1", 1)

    def test_below_window_floor_is_conservatively_seen(self):
        idx = DedupIndex(window=8)
        idx.record("s", "c1", 100)
        # 92 is exactly the floor (high - window): treated as applied
        assert idx.seen("s", "c1", 92)
        # gaps inside the window are genuinely unseen
        assert not idx.seen("s", "c1", 95)

    def test_recent_set_stays_bounded(self):
        idx = DedupIndex(window=16)
        for seq in range(1, 1000):
            idx.record("s", "c1", seq)
        state = idx._senders[("s", "c1")]
        assert len(state.recent) <= 2 * 16
        assert idx.watermark("s", "c1") == 999

    def test_forget_stream(self):
        idx = DedupIndex()
        idx.record("s", "c1", 1)
        idx.forget_stream("s")
        assert not idx.seen("s", "c1", 1)
        assert idx.sender_count() == 0


# ---------------------------------------------------------------------------
# weighted fair queue
# ---------------------------------------------------------------------------


class TestWeightedFairQueue:
    def test_system_lane_has_strict_priority(self):
        q = WeightedFairQueue()
        q.put_fair("acme", 1.0, "tenant-job")
        q.put("system-job")
        assert q.get() == "system-job"
        assert q.get() == "tenant-job"

    def test_weights_share_service_proportionally(self):
        q = WeightedFairQueue()
        for i in range(8):
            q.put_fair("light", 1.0, ("light", i))
            q.put_fair("heavy", 3.0, ("heavy", i))
        first8 = [q.get()[0] for _ in range(8)]
        served = q.lane_served()
        assert served["heavy"] >= 2 * served["light"]
        assert "light" in first8  # fairness, not starvation

    def test_idle_lane_rejoins_without_banked_credit(self):
        q = WeightedFairQueue()
        for i in range(10):
            q.put_fair("busy", 1.0, i)
        for _ in range(10):
            q.get()
        # a lane that was idle all along must not now monopolise
        q.put_fair("busy", 1.0, "busy-next")
        q.put_fair("newcomer", 1.0, "new-1")
        q.put_fair("newcomer", 1.0, "new-2")
        first_two = {q.get(), q.get()}
        assert "busy-next" in first_two  # not starved behind newcomer

    def test_none_lane_falls_back_to_system(self):
        q = WeightedFairQueue()
        q.put_fair(None, 1.0, "untenanted")
        q.put_fair("acme", 1.0, "tenanted")
        assert q.get() == "untenanted"

    def test_close_drains_then_stops(self):
        q = WeightedFairQueue()
        q.put_fair("acme", 1.0, "last-job")
        q.close()
        assert q.get() == "last-job"
        assert q.get() is None

    def test_lane_depths(self):
        q = WeightedFairQueue()
        q.put_fair("acme", 1.0, "a")
        q.put("sys")
        depths = q.lane_depths()
        assert depths == {"acme": 1, "(system)": 1}


# ---------------------------------------------------------------------------
# the admission controller
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def controller(self, **kwargs):
        ctl = AdmissionController(clock=ManualClock(), **kwargs)
        ctl.enabled = True
        return ctl

    def test_disabled_controller_admits_everything(self):
        ctl = AdmissionController(clock=ManualClock())
        ctl.configure_tenant("acme", row_quota=1)
        assert ctl.admit("acme", 10 ** 6, 10 ** 9) == "admit"

    def test_row_quota_is_a_durable_refusal(self):
        ctl = self.controller()
        ctl.configure_tenant("acme", row_quota=10)
        assert ctl.admit("acme", 8, 100) == "admit"
        ctl.record_result("acme", 8, 0, 0, 100)
        with pytest.raises(AdmissionError) as info:
            ctl.admit("acme", 3, 50)
        assert info.value.retry_after_ms is None
        assert not info.value.retryable
        assert info.value.reason == "row-quota"
        # a batch that still fits goes through
        assert ctl.admit("acme", 2, 50) == "admit"

    def test_byte_quota(self):
        ctl = self.controller()
        ctl.configure_tenant("acme", byte_quota=100)
        with pytest.raises(AdmissionError) as info:
            ctl.admit("acme", 1, 101)
        assert info.value.reason == "byte-quota"

    def test_rate_limit_is_retryable_with_refill_hint(self):
        ctl = self.controller()
        ctl.configure_tenant("acme", rate_limit=10.0, burst=5.0)
        assert ctl.admit("acme", 5, 10) == "admit"
        with pytest.raises(AdmissionError) as info:
            ctl.admit("acme", 5, 10)
        assert info.value.retryable
        assert info.value.reason == "rate-limit"
        assert info.value.retry_after_ms >= 500  # 5 rows at 10 rows/s
        ctl.clock.advance(info.value.retry_after_ms / 1000.0)
        assert ctl.admit("acme", 5, 10) == "admit"

    def test_soft_depth_rejects_bulk_keeps_trickle(self):
        ctl = self.controller()
        ctl.depth_probe = lambda: ctl.soft_depth
        with pytest.raises(AdmissionError) as info:
            ctl.admit("acme", ctl.bulk_rows, 100)
        assert info.value.reason == "overload"
        assert info.value.retryable
        assert ctl.admit("acme", 1, 10) == "admit"
        assert ctl.tier() == 1

    def test_hard_depth_sheds(self):
        ctl = self.controller()
        ctl.depth_probe = lambda: ctl.hard_depth
        assert ctl.admit("acme", 5, 50) == "shed"
        assert ctl.tier() == 2
        assert ctl.tenant("acme").rows_shed == 5
        assert ctl.batches_shed == 1

    def test_defaults_apply_retroactively(self):
        ctl = self.controller()
        ctl.tenant("early")
        ctl.set_default("row_quota", 5)
        with pytest.raises(AdmissionError):
            ctl.admit("early", 6, 10)
        with pytest.raises(AdmissionError):
            ctl.admit("late", 6, 10)

    def test_session_binding_counts(self):
        ctl = self.controller()
        ctl.bind_session("acme")
        ctl.bind_session("acme")
        assert ctl.tenant("acme").sessions == 2
        ctl.release_session("acme")
        ctl.release_session("acme")
        ctl.release_session("acme")  # over-release is harmless
        assert ctl.tenant("acme").sessions == 0

    def test_view_rows_shape(self):
        ctl = self.controller()
        ctl.configure_tenant("acme", rate_limit=100.0, weight=2.0)
        rows = ctl.tenants_rows()
        assert len(rows) == 1 and len(rows[0]) == 15
        assert rows[0][0] == "acme" and rows[0][2] == 2.0
        (row,) = ctl.admission_rows()
        assert len(row) == 15
        assert row[0] is True  # enabled


# ---------------------------------------------------------------------------
# embedded database surfaces: SET/SHOW, views, counted ingest, dedup
# ---------------------------------------------------------------------------


class TestDatabaseSurfaces:
    @pytest.fixture
    def db(self):
        db = Database(clock=ManualClock())
        db.execute(STREAM_DDL)
        yield db
        db.close()

    def test_set_show_roundtrip(self, db):
        db.execute("SET admission = on")
        assert db.query("SHOW admission").scalar() in ("on", True)
        db.execute("SET tenant_rate_limit = 100")
        db.execute("SET tenant_row_quota = 1000")
        db.execute("SET dedup_window = 64")
        assert db.admission.defaults["rate_limit"] == 100
        assert db.admission.defaults["row_quota"] == 1000
        assert db.admission.dedup.window == 64
        db.execute("SET tenant_rate_limit = off")
        assert db.admission.defaults["rate_limit"] is None

    def test_bad_option_values_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SET tenant_rate_limit = 0")
        with pytest.raises(ExecutionError):
            db.execute("SET admission_soft_depth = 0")

    def test_counted_ingest_ack_is_consistent(self, db):
        counts = db.ingest_batch("s", [(1, 1.0), (2, 2.0)])
        assert counts == {"accepted": 2, "shed": 0, "dropped": 0,
                          "duplicate": 0}

    def test_idempotent_replay_acks_duplicate(self, db):
        first = db.ingest_batch("s", [(1, 1.0), (2, 2.0)],
                                sender="c1", seq=1)
        replay = db.ingest_batch("s", [(1, 1.0), (2, 2.0)],
                                 sender="c1", seq=1)
        assert first["accepted"] == 2 and replay["accepted"] == 0
        assert replay["duplicate"] == 2
        assert db.query(
            "SELECT tuples FROM repro_streams").scalar() == 2

    def test_out_of_order_seqs_within_window(self, db):
        db.ingest_batch("s", [(5, 5.0)], sender="c1", seq=5)
        # seq arrives out of order (event time still advances)
        counts = db.ingest_batch("s", [(3, 6.0)], sender="c1", seq=3)
        assert counts["accepted"] == 1
        assert db.ingest_batch("s", [(3, 7.0)], sender="c1",
                               seq=3)["duplicate"] == 1

    def test_drop_stream_forgets_dedup_state(self, db):
        db.ingest_batch("s", [(1, 1.0)], sender="c1", seq=1)
        db.execute("DROP STREAM s")
        db.execute(STREAM_DDL)
        counts = db.ingest_batch("s", [(1, 1.0)], sender="c1", seq=1)
        assert counts["accepted"] == 1

    def test_admission_views_exist(self, db):
        (row,) = db.query(
            "SELECT enabled, tier, tenants FROM repro_admission").rows
        assert row[0] is False and row[1] == 0
        db.admission.tenant("acme")
        names = [r[0] for r in db.query(
            "SELECT name FROM repro_tenants").rows]
        assert names == ["acme"]

    def test_admission_metrics_registered(self, db):
        db.ingest_batch("s", [(1, 1.0)], sender="c1", seq=1)
        db.ingest_batch("s", [(1, 1.0)], sender="c1", seq=1)
        rows = dict((name, value) for name, _kind, value, *_rest
                    in db.query(
                        "SELECT name, kind, value, count, p50, p95, p99 "
                        "FROM repro_metrics").rows
                    if name.startswith("admission."))
        assert rows.get("admission.duplicates") == 1

    def test_dedup_markers_survive_recovery(self, tmp_path):
        from repro.replication import open_database
        wal_path = str(tmp_path / "wal.jsonl")
        db = open_database(wal_path=wal_path, stream_retention=600.0)
        db.execute(STREAM_DDL)
        db.ingest_batch("s", [(1, 1.0), (2, 2.0)], sender="c1", seq=7)
        db.close()
        recovered = open_database(wal_path=wal_path,
                                  stream_retention=600.0)
        try:
            assert recovered.admission.dedup.watermark("s", "c1") == 7
            replay = recovered.ingest_batch(
                "s", [(1, 3.0), (2, 4.0)], sender="c1", seq=7)
            assert replay["duplicate"] == 2
            assert recovered.query(
                "SELECT tuples FROM repro_streams").scalar() == 2
        finally:
            recovered.close()

    def test_batch_record_without_durable_marker_is_discarded_whole(
            self, tmp_path):
        """The marker's flush tears the marker itself: the batch's one
        rows record is durable, its marker is not, so recovery drops
        every row of it and the client's retry lands exactly once."""
        from repro.faults import FaultInjector
        from repro.replication import open_database
        from repro.storage.wal import stream_points
        wal_path = str(tmp_path / "wal")
        db = open_database(wal_path=wal_path, stream_retention=600.0)
        db.execute(STREAM_DDL)
        first = [(i, float(i)) for i in range(1, 6)]
        second = [(i, float(i)) for i in range(6, 14)]
        db.ingest_batch("s", first, sender="c1", seq=1)
        # only the log is fault-armed: the stream keeps its fast path
        faults = FaultInjector(seed=7)
        db.storage.wal.faults = faults
        faults.arm("wal.torn_write", probability=1.0, count=1)
        db.ingest_batch("s", second, sender="c1", seq=2)
        tagged = [r for r in db.storage.wal.records
                  if r.kind == "stream_rows" and r.rid == ("c1", 2)]
        assert [len(stream_points(r)) for r in tagged] == [len(second)]
        db.close()

        recovered = open_database(wal_path=wal_path,
                                  stream_retention=600.0)
        try:
            stats = recovered.recovery_stats
            assert stats["torn_batch_rows"] == len(second)
            assert stats["stream_tuples"] == len(first)
            assert stats["dedup_markers"] == 1
            retry = recovered.ingest_batch("s", second,
                                           sender="c1", seq=2)
            assert retry["accepted"] == len(second)
            assert retry["duplicate"] == 0
            again = recovered.ingest_batch("s", second,
                                           sender="c1", seq=2)
            assert again["accepted"] == 0
            assert again["duplicate"] == len(second)
            assert [row for _t, row in recovered.get_stream("s")
                    .replay_since(float("-inf"))] == first + second
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# server integration: hello binding, wire errors, client retry, reaper
# ---------------------------------------------------------------------------


class TestServerAdmission:
    def test_hello_binds_tenant_and_views_show_it(self):
        with ServerThread() as st:
            conn = client.connect(st.host, st.port, tenant="acme")
            try:
                assert conn.tenant == "acme"
                assert conn.query(
                    "SELECT tenant FROM repro_connections").rows \
                    == [("acme",)]
                assert conn.query(
                    "SELECT name, sessions FROM repro_tenants").rows \
                    == [("acme", 1)]
            finally:
                conn.close()

    def test_untenanted_session_uses_default(self):
        with ServerThread() as st:
            conn = client.connect(st.host, st.port)
            try:
                assert conn.query(
                    "SELECT tenant FROM repro_connections").rows \
                    == [("default",)]
            finally:
                conn.close()

    def test_ingest_ack_counts_on_the_wire(self):
        with ServerThread() as st:
            conn = client.connect(st.host, st.port)
            try:
                conn.execute(STREAM_DDL)
                ack = conn.ingest("s", [(1, 1.0), (2, 2.0)],
                                  sender="c1", seq=1)
                assert ack == 2  # IngestAck still compares as an int
                assert (ack.accepted, ack.shed, ack.duplicate) == (2, 0, 0)
                replay = conn.ingest("s", [(1, 1.0), (2, 2.0)],
                                     sender="c1", seq=1)
                assert replay == 0 and replay.duplicate == 2
                assert conn.query(
                    "SELECT tuples FROM repro_streams").scalar() == 2
            finally:
                conn.close()

    def test_sender_without_seq_rejected_client_side(self):
        with ServerThread() as st:
            conn = client.connect(st.host, st.port)
            try:
                conn.execute(STREAM_DDL)
                with pytest.raises(ProtocolError):
                    conn.ingest("s", [(1, 1.0)], sender="c1")
            finally:
                conn.close()

    def test_quota_refusal_travels_typed(self):
        with ServerThread() as st:
            conn = client.connect(st.host, st.port, tenant="acme")
            try:
                conn.execute(STREAM_DDL)
                conn.execute("SET admission = on")
                conn.execute("SET tenant_row_quota = 2")
                conn.ingest("s", [(1, 1.0), (2, 2.0)])
                with pytest.raises(AdmissionError) as info:
                    conn.ingest("s", [(3, 3.0)])
                assert info.value.retry_after_ms is None
                assert not info.value.retryable
                assert info.value.tenant == "acme"
                assert info.value.reason == "row-quota"
            finally:
                conn.close()

    def test_replay_at_quota_is_acked_duplicate_not_refused(self):
        # a retry of an already-applied batch must come back as a
        # duplicate ack even when the tenant has since hit its quota —
        # otherwise the client can never learn the batch landed
        with ServerThread() as st:
            conn = client.connect(st.host, st.port, tenant="acme")
            try:
                conn.execute(STREAM_DDL)
                conn.execute("SET admission = on")
                conn.execute("SET tenant_row_quota = 6")
                ack = conn.ingest("s", [(i, float(i)) for i in range(1, 6)],
                                  sender="agent", seq=1)
                assert ack.accepted == 5
                replay = conn.ingest("s",
                                     [(i, float(i)) for i in range(1, 6)],
                                     sender="agent", seq=1, retry=False)
                assert replay.accepted == 0
                assert replay.duplicate == 5
                # the replay consumed no quota: a fresh 1-row batch
                # still fits under the 6-row cap
                ack2 = conn.ingest("s", [(6, 6.0)], sender="agent", seq=2)
                assert ack2.accepted == 1
                rows = conn.query(
                    "SELECT rows_ingested, duplicates "
                    "FROM repro_tenants").rows
                assert rows == [(6, 5)]  # duplicates counts rows
            finally:
                conn.close()

    def test_duplicate_batch_does_not_charge_byte_quota(self):
        with ServerThread() as st:
            conn = client.connect(st.host, st.port, tenant="acme")
            try:
                conn.execute(STREAM_DDL)
                conn.execute("SET admission = on")
                conn.ingest("s", [(1, 1.0)], sender="agent", seq=1)
                before = conn.query(
                    "SELECT bytes_ingested FROM repro_tenants").rows[0][0]
                conn.ingest("s", [(1, 1.0)], sender="agent", seq=1,
                            retry=False)
                after = conn.query(
                    "SELECT bytes_ingested FROM repro_tenants").rows[0][0]
                assert after == before
            finally:
                conn.close()

    def test_byte_quota_counts_the_ingest_frame(self):
        from repro.server.protocol import encode_frame
        with ServerThread() as st:
            conn = client.connect(st.host, st.port, tenant="acme")
            try:
                conn.execute(STREAM_DDL)
                conn.ingest("s", [(1, 1.0), (2, 2.0)])
                sent = encode_frame({
                    "id": conn._request_counter, "op": "ingest",
                    "stream": "s"}, [(1, 1.0), (2, 2.0)])
                assert conn.query(
                    "SELECT bytes_ingested FROM repro_tenants"
                ).rows[0][0] == len(sent) - 4     # body, not the prefix
            finally:
                conn.close()

    def test_client_retries_rate_limit_on_shared_manual_clock(self):
        clk = ManualClock()
        with ServerThread(clock=clk) as st:
            conn = client.connect(st.host, st.port, tenant="acme",
                                  clock=clk)
            try:
                conn.execute(STREAM_DDL)
                conn.execute("SET admission = on")
                conn.execute("SET tenant_rate_limit = 100")
                conn.execute("SET tenant_burst = 5")
                assert conn.ingest("s", [(i, float(i))
                                         for i in range(5)]) == 5
                before = clk.monotonic()
                # bucket is empty: the server refuses with a retry hint,
                # the client sleeps it off (advancing the shared clock,
                # which *is* the refill) and retries to success
                ack = conn.ingest("s", [(i, 10.0 + i) for i in range(5)])
                assert ack == 5
                assert clk.monotonic() >= before + 0.05
                tenant = st.db.admission.tenant("acme")
                assert tenant.batches_rejected >= 1
                assert tenant.rows_ingested == 10
            finally:
                conn.close()

    def test_retry_false_surfaces_the_error(self):
        clk = ManualClock()
        with ServerThread(clock=clk) as st:
            conn = client.connect(st.host, st.port, clock=clk)
            try:
                conn.execute(STREAM_DDL)
                conn.execute("SET admission = on")
                conn.execute("SET tenant_rate_limit = 10")
                conn.execute("SET tenant_burst = 1")
                conn.ingest("s", [(1, 1.0)], retry=False)
                with pytest.raises(AdmissionError):
                    conn.ingest("s", [(2, 2.0)], retry=False)
            finally:
                conn.close()

    def test_shed_tier_acks_but_drops_to_dead_letters(self):
        with ServerThread(supervised=True) as st:
            conn = client.connect(st.host, st.port, tenant="noisy")
            try:
                conn.execute(STREAM_DDL)
                conn.execute("SET admission = on")
                st.db.admission.hard_depth = 0  # force tier 2
                ack = conn.ingest("s", [(1, 1.0), (2, 2.0)])
                assert ack == 0 and ack.shed == 2
                assert conn.query(
                    "SELECT tuples FROM repro_streams "
                    "WHERE name = 's'").scalar() == 0
                letters = st.db.supervisor.dead_letter_rows()
                assert any("noisy" in reason
                           for _seq, _src, _kind, reason, *_ in letters)
            finally:
                conn.close()

    def test_fair_scheduling_splits_engine_turns_by_weight(self):
        with ServerThread() as st:
            heavy = client.connect(st.host, st.port, tenant="heavy")
            light = client.connect(st.host, st.port, tenant="light")
            try:
                heavy.execute(STREAM_DDL)
                st.db.admission.configure_tenant("heavy", weight=4.0)
                st.db.admission.configure_tenant("light", weight=1.0)
                for i in range(20):
                    heavy.ingest("s", [(i, float(i))])
                    light.query("SELECT 1")
                served = st.server.executor.lane_served()
                assert served["heavy"] > 0 and served["light"] > 0
            finally:
                heavy.close()
                light.close()

    def test_idle_reaper_on_manual_clock(self):
        clk = ManualClock()
        with ServerThread(clock=clk, idle_timeout=30.0,
                          reap_interval=0.05) as st:
            conn = client.connect(st.host, st.port)
            try:
                assert conn.query("SELECT 1").scalar() == 1
                clk.advance(31.0)  # no sleeping matched to the timeout
                import time as _time
                deadline = _time.monotonic() + 10.0
                while _time.monotonic() < deadline:
                    if not st.server.connection_rows():
                        break
                    _time.sleep(0.02)
                assert not st.server.connection_rows()
            finally:
                conn.close()


# ---------------------------------------------------------------------------
# the \tenants CLI command
# ---------------------------------------------------------------------------


class TestTenantsCommand:
    def test_tenants_command_embedded(self):
        import io
        from repro.cli import Shell
        out = io.StringIO()
        shell = Shell(out=out)
        shell.handle_line("SET admission = on")
        shell.db.admission.tenant("acme")
        shell.handle_line("\\tenants")
        text = out.getvalue()
        assert "-- admission" in text
        assert "acme" in text
        shell.db.close()
