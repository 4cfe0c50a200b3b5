"""A sliding window closes in a constant number of merges.

A sliced CQ's window arrives as the partials of the slices it covers;
the CQ's :class:`~repro.streaming.cq.SlidingMerge` keeps two stacks over
them, so a close reuses the merges of the window before it instead of
folding all W = VISIBLE / ADVANCE partials again.  What is pinned here:

* **merges** — pairwise merges per close, amortized over a long
  arrival-time run, stay at most 3 whatever W is (a left fold makes
  W - 1);
* **answers** — every merged window equals a fresh left fold of its
  partials, key order included, also when an event-time late row
  re-seals a covered slice and after the correction;
* **sharing** — no input partial changes: two readers of one store see
  the same partial objects, unchanged;
* **memory** — the stacks never hold more entries than the rows of the
  slices they cover, and where keys do not repeat they make no more
  merges than the fold;
* **hash grouping** — a text-keyed batch partial is the rows loop's,
  first-seen order included; a NULL key still takes the rows loop.
"""

import copy
import random

import pytest

from repro import Database
from repro.exec import operators as ops
from repro.streaming.cq import FailedPartial
from repro.streaming.shared import SliceStore

DDL = "CREATE STREAM s (k varchar(10), v integer, ts timestamp CQTIME USER)"


def sliding(visible, advance=1):
    return (f"SELECT k, count(*) AS n, sum(v) AS total, max(v) AS hi "
            f"FROM s <VISIBLE '{visible} seconds' ADVANCE '{advance} "
            f"seconds'> GROUP BY k")


def watch(cq):
    """Count the CQ's pairwise merges, and check every merged window
    against a fresh left fold of its partials and the stacks against
    their memory bound.  Returns the running tallies."""
    agg = cq._agg
    tally = {"merges": 0, "windows": 0, "fold": 0, "peak": 0}
    merge_partials = agg.merge_partials

    def counting(parts):
        parts = list(parts)
        tally["merges"] += max(len(parts) - 1, 0)
        return merge_partials(parts)

    agg.merge_partials = counting
    merge = cq._merge

    def checked(partials):
        out = merge(partials)
        if isinstance(out, FailedPartial):
            return out
        fresh = ops.HashAggregate.merge_partials(agg, list(partials))
        assert list(out.items()) == list(fresh.items())
        stacks = cq._stacks
        assert stacks.entries <= stacks.covered_rows
        tally["windows"] += 1
        tally["fold"] += max(len(partials) - 1, 0)
        tally["peak"] = max(tally["peak"], stacks.entries)
        return out

    cq._merge = checked
    return tally


def feed(db, rows, chunk=500):
    for i in range(0, len(rows), chunk):
        db.ingest_batch("s", rows[i:i + chunk])


def keyed_rows(n, keys, rate, seed=2009):
    rnd = random.Random(seed)
    return [(f"k{rnd.randrange(keys)}", rnd.randrange(-50, 100),
             (i + 0.5) / rate) for i in range(n)]


# -- merges per close -----------------------------------------------------------


@pytest.mark.parametrize("visible, keys, rate, seconds", [
    (5, 20, 200, 200), (10, 20, 200, 200), (60, 300, 400, 150)],
    ids=["W=5", "W=10", "W=60-300-keys"])
def test_a_long_run_merges_at_most_three_times_a_close(visible, keys, rate,
                                                       seconds):
    db = Database()
    db.execute(DDL)
    sub = db.subscribe(sliding(visible))
    cq = sub.cq
    assert cq.is_sliced()
    tally = watch(cq)
    feed(db, keyed_rows(rate * seconds, keys, rate))
    assert tally["windows"] >= seconds - 1
    # a left fold makes W - 1 merges a full window: 4, 9, 59
    assert tally["fold"] > (visible - 1) * (seconds - 2 * visible)
    assert tally["merges"] <= 3 * tally["windows"]
    if visible > 10:
        return      # the iterator gear would take W times as long
    reference = Database(vectorize=False)
    reference.execute(DDL)
    want = reference.subscribe(sliding(visible))
    feed(reference, keyed_rows(rate * seconds, keys, rate))
    assert [(w.close_time, w.rows) for w in sub.poll()] == \
        [(w.close_time, w.rows) for w in want.poll()]


def test_a_tumbling_window_holds_nothing():
    db = Database()
    db.execute(DDL)
    cq = db.subscribe(sliding(2, 2)).cq
    tally = watch(cq)
    feed(db, keyed_rows(2000, 5, 100))
    assert tally["windows"] > 5 and tally["merges"] == 0
    assert cq._stacks.entries == 0 and cq._stacks.covered_rows == 0


# -- event time: late rows and corrections ----------------------------------------

ET_DDL = DDL + " WATERMARK '5 seconds'"
ET_SELECT = (sliding(10, 2) + " EMIT ON WATERMARK ALLOW LATENESS "
             "'30 seconds' RETRACT")


def test_a_late_row_reseals_and_every_window_is_a_fresh_fold():
    """A late row re-seals a covered slice: the correction's window and
    the normal closes after it equal fresh left folds, and the record
    sequence is the iterator gear's."""
    rnd = random.Random(7)
    rows = [(f"k{rnd.randrange(6)}", rnd.randrange(10), i * 0.25)
            for i in range(400)]
    late = [("k1", 1000, 40.5), ("k9", 7, 61.0), ("k2", -3, 41.0)]
    batches = [rows[:200], late[:1], rows[200:300], late[1:], rows[300:]]
    out = {}
    for vectorize in (True, False):
        db = Database(vectorize=vectorize)
        db.execute(ET_DDL)
        sub = db.subscribe(ET_SELECT)
        if vectorize:
            assert sub.cq.is_sliced()
            tally = watch(sub.cq)
        for batch in batches:
            db.insert_stream("s", batch)
        db.flush_streams()
        out[vectorize] = [(w.kind, w.close_time, w.rows) for w in sub.poll()]
    kinds = [kind for kind, _close, _rows in out[True]]
    assert kinds.count("correct") >= 3 and kinds.count("retract") >= 3
    assert out[True] == out[False]
    assert tally["windows"] == len(out[True]) - kinds.count("retract")


# -- shared partials --------------------------------------------------------------


def test_two_readers_never_change_a_shared_partial(monkeypatch):
    sealed = []
    seal = SliceStore.seal

    def recording(self, index, rows, reduce):
        partial = seal(self, index, rows, reduce)
        if not any(partial is seen for seen, _copy in sealed):
            sealed.append((partial, copy.deepcopy(partial)))
        return partial

    monkeypatch.setattr(SliceStore, "seal", recording)
    db = Database()
    db.execute(DDL)
    five = db.subscribe(sliding(5))
    ten = db.subscribe(sliding(10))
    assert five.cq.shared and ten.cq.shared
    tallies = [watch(five.cq), watch(ten.cq)]
    rows = keyed_rows(6000, 12, 100)
    for i in range(0, len(rows), 250):
        db.ingest_batch("s", rows[i:i + 250])
        for partial, before in sealed:
            assert partial == before
    assert all(t["merges"] < t["fold"] for t in tallies)
    # 60 s of rows close at 1 .. 59: one partial per slice, both readers
    assert len(sealed) == 59


# -- memory -----------------------------------------------------------------------


def test_unique_keys_fold_within_the_bound_and_no_more_merges():
    """No key repeats: the stacks would hold a suffix per slice over
    ever more keys, so they never flip; every window folds."""
    db = Database()
    db.execute(DDL)
    cq = db.subscribe(sliding(60)).cq
    tally = watch(cq)
    rows = [(f"u{i}", i % 10, (i + 0.5) / 50) for i in range(50 * 150)]
    feed(db, rows)
    assert tally["windows"] >= 140
    assert tally["merges"] <= tally["fold"]
    assert not cq._stacks._suffix
    assert 0 < tally["peak"] <= 60 * 50


# -- hash grouping of text keys ---------------------------------------------------


def batch_agg(select):
    db = Database()
    db.execute("CREATE STREAM s (k varchar(10), n integer, x double, "
               "v integer, ts timestamp CQTIME USER)")
    cq = db.subscribe(select).cq
    assert cq.is_sliced()
    return cq


@pytest.mark.parametrize("key", ["k", "n", "x"])
def test_a_batch_partial_is_the_rows_loops(key):
    cq = batch_agg(f"SELECT {key}, count(*) AS c, sum(v) AS t, avg(v) AS m "
                   f"FROM s <VISIBLE '4 seconds' ADVANCE '2 seconds'> "
                   f"GROUP BY {key}")
    rnd = random.Random(43)
    words = ["pear", "fig", "apple", "kiwi", "date", "lime"]
    rows = [(rnd.choice(words), rnd.randrange(5), rnd.choice([0.5, -1.0, 2.0]),
             rnd.randrange(100), float(i)) for i in range(300)]
    got = cq._reduce(rows)
    want = cq._agg._reduce_rows(rows, {})
    assert list(got.items()) == list(want.items())
    assert all(type(states) is tuple for states in got.values())


def test_a_null_key_takes_the_rows_loop(monkeypatch):
    cq = batch_agg("SELECT k, count(*) AS c, sum(v) AS t FROM s "
                   "<VISIBLE '4 seconds' ADVANCE '2 seconds'> GROUP BY k")
    loops = []
    reduce_rows = type(cq._agg)._reduce_rows

    def counting(self, rows, ctx):
        loops.append(len(rows))
        return reduce_rows(self, rows, ctx)

    monkeypatch.setattr(type(cq._agg), "_reduce_rows", counting)
    rows = [("b", 1, 0.0, 5, 0.0), (None, 2, 0.0, 6, 1.0),
            ("a", 3, 0.0, 7, 2.0), ("b", 4, 0.0, 8, 3.0)]
    assert list(cq._reduce(rows).items()) == [
        (("b",), (2, 13)), ((None,), (1, 6)), (("a",), (1, 7))]
    assert loops == [4]
    assert list(cq._reduce([r for r in rows if r[0]]).items()) == [
        (("b",), (2, 13)), (("a",), (1, 7))]
    assert loops == [4]
