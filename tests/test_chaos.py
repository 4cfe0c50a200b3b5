"""Chaos harness: the clickstream pipeline under randomized faults.

The paper's pitch is an *always-on* engine (Sections 1, 3.1): ingest,
window, archive — continuously, in production, where disks hiccup and
user expressions blow up.  This suite runs the Example-1 clickstream
pipeline twice — once fault-free (the reference), once with a seeded
:class:`~repro.faults.FaultInjector` arming five distinct fault types —
and checks that the supervised run

* never leaks a fault to ``insert_stream``/``advance_streams`` callers,
* is bit-for-bit deterministic under a fixed seed,
* archives *exactly* the reference rows for every window no dead letter
  touched (unaffected-window consistency),
* accounts for every missing or short window in ``repro_dead_letters``,
* leaves a WAL whose replay is a durable prefix of the archive even
  with torn records in the log.

The injector is disarmed once ingest finishes — the storm passes before
the verification queries run — but its statistics are snapshotted first.
"""

from collections import Counter

import pytest

from repro import Database
from repro.faults import FaultInjector
from repro.workloads.clickstream import ClickstreamGenerator, URL_STREAM_DDL
from tests.conftest import rebuilt_from

SEED = 2009          # fixed: the whole suite must replay identically
N_EVENTS = 1500
BATCH = 50

PIPELINE_DDL = """
CREATE STREAM url_counts AS
    SELECT url, count(*) hits, cq_close(*)
    FROM url_stream <VISIBLE '1 minute'> GROUP BY url;
CREATE TABLE url_archive (url varchar(1024), hits bigint, stime timestamp);
CREATE CHANNEL url_channel FROM url_counts INTO url_archive APPEND;
CREATE TABLE url_latest (url varchar(1024), hits bigint, stime timestamp);
CREATE CHANNEL latest_channel FROM url_counts INTO url_latest REPLACE;
"""

#: the five fault types the chaos run injects: disk I/O error, torn WAL
#: record, poison window (a CQ's plan raising), raising subscriber
#: during fan-out, and a failing channel archive write.  ``after=4`` on
#: the torn write spares the DDL records at the head of the log so the
#: replay test exercises data truncation, not schema loss.
CHAOS_FAULTS = [
    ("disk.read_page", 0.50, 3, 0),
    ("wal.torn_write", 0.30, 2, 4),
    ("cq.window", 0.35, 3, 0),
    ("stream.deliver", 0.003, 3, 0),
    ("channel.write", 0.30, 2, 0),
]


def make_injector():
    injector = FaultInjector(SEED)
    for name, probability, count, after in CHAOS_FAULTS:
        injector.arm(name, probability=probability, count=count, after=after)
    return injector


def workload():
    gen = ClickstreamGenerator(n_urls=200, n_clients=8,
                               rate_per_second=4.0, seed=7)
    return gen.batch(N_EVENTS)


def run(injector):
    """One end-to-end pipeline run; faults must never escape to us.

    ``buffer_pages=2`` keeps the pool smaller than the archive so the
    REPLACE channel's scans genuinely hit the (faulty) disk.
    """
    db = Database(supervised=True, fault_injector=injector,
                  stream_retention=3600.0, buffer_pages=2)
    db.execute(URL_STREAM_DDL)
    db.execute_script(PIPELINE_DDL)
    events = workload()
    for i in range(0, len(events), BATCH):
        db.insert_stream("url_stream", events[i:i + BATCH])
    db.advance_streams(events[-1][1] + 120.0)
    stats, view = None, None
    if injector is not None:
        stats = {name: fires for name, _armed, _p, _ev, fires
                 in injector.stats_rows()}
        view = db.query("SELECT crashpoint, fires FROM repro_crashpoints "
                        "WHERE fires > 0").rows
        injector.disarm()
    return db, stats, view


def by_close(rows):
    """archive rows -> {close_time: multiset of (url, hits)}"""
    out = {}
    for url, hits, stime in rows:
        out.setdefault(stime, Counter())[(url, hits)] += 1
    return out


@pytest.fixture(scope="module")
def chaos():
    return run(make_injector())   # an escaping fault fails the suite here


@pytest.fixture(scope="module")
def reference():
    db, _stats, _view = run(None)
    return db


class TestChaosRun:
    def test_all_five_fault_types_fired(self, chaos):
        _db, fired, _view = chaos
        for name, _probability, _count, _after in CHAOS_FAULTS:
            assert fired[name] >= 1, f"{name} never fired; retune the seed"
        assert len(CHAOS_FAULTS) >= 5

    def test_no_fault_reached_the_inserter(self, chaos):
        """run() completing is the real assertion; double-check that the
        supervisor, not the caller, absorbed every failure."""
        db, fired, _view = chaos
        assert sum(fired.values()) >= 5
        assert db.supervisor.dead_letter_log  # something was quarantined
        stream = db.get_stream("url_stream")
        assert stream.tuples_in == N_EVENTS

    def test_chaos_run_is_deterministic(self, chaos):
        db_a, _fired, _view = chaos
        db_b, _fired_b, _view_b = run(make_injector())
        assert sorted(db_a.table_rows("url_archive")) \
            == sorted(db_b.table_rows("url_archive"))
        letters = lambda db: [(l.source, l.kind, l.reason)  # noqa: E731
                              for l in db.supervisor.dead_letter_log]
        assert letters(db_a) == letters(db_b)

    def test_unaffected_windows_match_reference_exactly(self, chaos,
                                                        reference):
        """Every window no dead letter touched is byte-identical to the
        fault-free run."""
        db, _fired, _view = chaos
        ref = by_close(reference.table_rows("url_archive"))
        got = by_close(db.table_rows("url_archive"))
        affected = {l.close_time for l in db.supervisor.dead_letter_log
                    if l.close_time is not None}
        # a cold restart (no recoverable state) loses in-flight window
        # content; everything from the first quarantine onward is then
        # suspect, so widen the affected set past any restart-loss
        if any(l.kind == "restart-loss"
               for l in db.supervisor.dead_letter_log):
            horizon = min(affected) if affected else 0.0
            affected |= {c for c in got if c >= horizon}
        clean = [c for c in ref if c not in affected]
        assert clean, "chaos affected every window; lower the fault rates"
        for close in clean:
            assert got.get(close) == ref[close], f"window {close} diverged"
        # and nothing was fabricated: every clean chaos window exists in
        # the reference too
        for close in got:
            if close not in affected:
                assert close in ref

    def test_every_lost_window_is_accounted_in_dead_letters(self, chaos,
                                                            reference):
        db, _fired, _view = chaos
        ref = by_close(reference.table_rows("url_archive"))
        got = by_close(db.table_rows("url_archive"))
        accounted = {l.close_time for l in db.supervisor.dead_letter_log
                     if l.close_time is not None}
        lossy = any(l.kind == "restart-loss"
                    for l in db.supervisor.dead_letter_log)
        for close in ref:
            if got.get(close) != ref[close]:
                assert close in accounted or lossy, \
                    f"window {close} lost without a dead letter"

    def test_dead_letters_queryable_through_system_view(self, chaos):
        db, _fired, _view = chaos
        result = db.query("SELECT count(*) FROM repro_dead_letters")
        assert result.scalar() == len(db.supervisor.dead_letter_log)
        kinds = {row[0] for row in db.query(
            "SELECT kind FROM repro_dead_letters").rows}
        assert len(kinds) >= 2  # several distinct failure modes surfaced
        names = [row[0] for row in db.query(
            "SELECT name FROM repro_supervisor_status").rows]
        assert "url_channel" in names and "latest_channel" in names

    def test_crashpoint_stats_visible(self, chaos):
        """The ``repro_crashpoints`` view (snapshotted while the storm
        was still live) agrees with the injector's own counters."""
        _db, fired, view = chaos
        assert {name for name, _fires in view} \
            == {name for name, fires in fired.items() if fires > 0}

    def test_wal_replay_after_torn_writes_is_a_prefix(self, chaos):
        """Torn WAL records truncate replay at the first invalid record:
        the recovered archive is a (possibly shorter) prefix of what the
        live database archived — never divergent, never fabricated."""
        db, fired, _view = chaos
        wal = db.storage.wal
        assert fired["wal.torn_write"] >= 1 and wal.torn_records >= 1
        recovered = rebuilt_from(wal)
        live = Counter(db.table_rows("url_archive"))
        replayed = Counter(recovered.table_rows("url_archive"))
        assert replayed <= live          # durable prefix, nothing invented
        assert sum(replayed.values()) < sum(live.values())
