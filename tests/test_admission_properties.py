"""Property tests for the admission-control invariants.

Two promises are load-bearing enough to deserve hypothesis rather than
examples:

* a token bucket **never over-admits**: across any interleaving of
  clock advances and take attempts, the rows admitted are bounded by
  ``burst + rate * elapsed`` plus at most one batch of overdraft
  (the full-bucket escape hatch for oversized batches);
* idempotent ingest is **exactly-once**: for any sequence of batch
  attempts (fresh, replayed, reordered) each ``(stream, sender, seq)``
  is applied at most once — including when the engine is killed and
  rebuilt from its WAL mid-sequence.
"""

from hypothesis import given, settings, strategies as st

from repro import Database
from repro.admission import DedupIndex, TokenBucket
from repro.clock import ManualClock
from repro.replication import open_database

# an operation stream for the bucket: either time passes or a take
_advance = st.tuples(st.just("advance"),
                     st.floats(min_value=0.0, max_value=5.0,
                               allow_nan=False, allow_infinity=False))
_take = st.tuples(st.just("take"), st.integers(min_value=1, max_value=40))


class TestTokenBucketProperties:
    @given(rate=st.floats(min_value=0.5, max_value=100.0),
           burst=st.floats(min_value=1.0, max_value=50.0),
           ops=st.lists(st.one_of(_advance, _take), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_never_over_admits(self, rate, burst, ops):
        clk = ManualClock()
        bucket = TokenBucket(rate, burst, clock=clk)
        elapsed = 0.0
        admitted = 0
        max_batch = 0
        for op, value in ops:
            if op == "advance":
                clk.advance(value)
                elapsed += value
            else:
                if bucket.try_take(value) == 0.0:
                    admitted += value
                    max_batch = max(max_batch, value)
        # the long-run bound: initial burst + refill, plus at most one
        # batch of overdraft from the full-bucket rule
        assert admitted <= burst + rate * elapsed + max_batch + 1e-6

    @given(rate=st.floats(min_value=0.5, max_value=100.0),
           burst=st.floats(min_value=1.0, max_value=50.0),
           ops=st.lists(_take, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_wait_hint_is_sufficient(self, rate, burst, ops):
        """Sleeping exactly the returned wait always gets the batch in."""
        clk = ManualClock()
        bucket = TokenBucket(rate, burst, clock=clk)
        for _op, n in ops:
            wait = bucket.try_take(n)
            if wait > 0.0:
                clk.advance(wait + 1e-9)
                assert bucket.try_take(n) == 0.0


class TestDedupProperties:
    @given(window=st.integers(min_value=4, max_value=64),
           attempts=st.lists(
               st.tuples(st.sampled_from(["c1", "c2"]),
                         st.integers(min_value=1, max_value=100)),
               max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_each_seq_applied_at_most_once(self, window, attempts):
        idx = DedupIndex(window=window)
        applied = set()
        for sender, seq in attempts:
            if not idx.seen("s", sender, seq):
                # "apply" the batch, then record it — exactly the
                # engine's order in Database.ingest_batch
                assert (sender, seq) not in applied, \
                    "a sequence number was admitted twice"
                applied.add((sender, seq))
                idx.record("s", sender, seq)


class TestReplayAfterRestartProperties:
    @given(batches=st.lists(
        st.integers(min_value=1, max_value=30),
        min_size=1, max_size=12, unique=True),
        cut=st.integers(min_value=0, max_value=12))
    @settings(max_examples=25, deadline=None)
    def test_resend_after_crash_is_exactly_once(self, tmp_path_factory,
                                                batches, cut):
        """Kill the engine after ``cut`` batches, rebuild from the WAL,
        re-send *everything*: every row lands exactly once."""
        tmp = tmp_path_factory.mktemp("dedup-replay")
        wal_path = str(tmp / "wal.jsonl")
        db = open_database(wal_path=wal_path, stream_retention=3600.0)
        db.execute(
            "CREATE STREAM s (v integer, ts timestamp CQTIME USER)")
        clock = 0.0
        for seq in batches[:cut]:
            clock += 1.0
            db.ingest_batch("s", [(seq, clock)], sender="c1", seq=seq)
        db.close()  # the WAL is all that survives

        recovered = open_database(wal_path=wal_path,
                                  stream_retention=3600.0)
        try:
            for seq in batches:  # full replay, prefix included
                clock += 1.0
                recovered.ingest_batch("s", [(seq, clock)],
                                       sender="c1", seq=seq)
            tuples = recovered.query(
                "SELECT tuples FROM repro_streams").scalar()
            assert tuples == len(batches)
        finally:
            recovered.close()
