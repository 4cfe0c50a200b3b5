"""A CQ the vectorizer refuses still slices.

Slicing needs a mergeable aggregate of constant-size state, not a
vector kernel: a plan whose aggregate stays an iterator
``HashAggregate`` (a two-key ``GROUP BY``, ``stddev``, ``bool_and``, a
``?`` or a ``LIKE`` below the aggregate) reduces each slice with the
aggregate's own rows loop and closes a window through the same slice
store, two stacks and pin as the batch gear.  What is pinned here:

* **answers** — each refused shape, under arrival and event time,
  tumbling and five slices long, is sliced, says so in EXPLAIN and
  answers exactly as ``vectorize=False`` (its doubles are multiples of
  0.25, so every summation order is exact);
* **work** — every row is reduced once, and two equal-key CQs read
  one store; a late row re-seals a row-gear slice and corrects the
  window as the iterator gear does;
* **refusals** — a growing state (``median``, ``string_agg``,
  ``count(DISTINCT)``), ``cq_close`` or a subquery below the aggregate,
  and a join stay unsliced;
* **delivery** — an arrival-time row-gear window takes no frame whole,
  so the stream's per-row path is unchanged; a per-row frame is
  coerced once, a column at a time, and a bad row is refused as
  before;
* **merge** — ``HashAggregate.merge_partials`` merges shared keys a
  column at a time and equals the state-by-state fold it replaced.
"""

import copy
import math
import random

import pytest

from repro import Database
from repro.catalog.schema import Schema
from repro.errors import ConstraintError
from repro.exec import aggregates
from repro.exec import operators as ops
from repro.streaming.streams import BaseStream

DDL = ("CREATE STREAM s (k varchar(8), j integer, v double, "
       "ts timestamp CQTIME USER)")
ET_DDL = DDL + " WATERMARK '3 seconds'"
WINDOWS = {"tumbling": "<VISIBLE '4 seconds' ADVANCE '4 seconds'>",
           "W=5": "<VISIBLE '10 seconds' ADVANCE '2 seconds'>"}
#: the refused shapes: (select with ``{w}`` for the window, parameters)
SHAPES = {
    "two keys": ("SELECT k, j, count(*) AS n, sum(v) AS t, min(v) AS lo "
                 "FROM s {w} GROUP BY k, j", None),
    # a batch filter under an iterator aggregate (mixed mode)
    "stddev_pop": ("SELECT k, stddev_pop(v) AS sd, avg(v) AS m FROM s {w} "
                   "WHERE v > 0.5 GROUP BY k", None),
    "bool_and": ("SELECT k, bool_and(v > 2) AS b, max(v) AS hi FROM s {w} "
                 "GROUP BY k", None),
    "parameter": ("SELECT k, count(*) AS n, sum(v) AS t FROM s {w} "
                  "WHERE v > ? GROUP BY k", (1.0,)),
    "refused filter": ("SELECT k, count(*) AS n, max(v) AS hi FROM s {w} "
                       "WHERE k LIKE 'a%' GROUP BY k", None),
}


def make_rows(n, seed=2009, rate=10.0):
    rnd = random.Random(seed)
    return [(rnd.choice(["a", "b", "ab", "c"]), rnd.randrange(3),
             rnd.randrange(-8, 20) / 4, i / rate) for i in range(n)]


def engine(vectorize, event_time=False):
    db = Database(vectorize=vectorize)
    db.execute(ET_DDL if event_time else DDL)
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1)")
    return db


def feed(db, rows, chunk=40):
    for i in range(0, len(rows), chunk):
        db.insert_stream("s", rows[i:i + chunk])
    db.flush_streams()


def records(sub):
    return [(w.kind, w.open_time, w.close_time, w.rows) for w in sub.poll()]


def run_both(sql, params, rows, event_time=False):
    """The CQ on the default engine and on ``vectorize=False``: (sub,
    its records, the iterator gear's records)."""
    out = []
    for vectorize in (True, False):
        db = engine(vectorize, event_time)
        sub = db.subscribe(sql, params)
        feed(db, rows)
        out.append((sub, records(sub)))
    (sub, got), (_spec, want) = out
    return sub, got, want


# -- answers ----------------------------------------------------------------------


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("event_time", [False, True],
                         ids=["arrival", "event"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_refused_shape_slices_and_answers_as_the_iterator_gear(
        shape, event_time, window):
    sql, params = SHAPES[shape]
    sub, got, want = run_both(sql.format(w=WINDOWS[window]), params,
                              make_rows(300), event_time)
    cq = sub.cq
    assert cq.is_sliced()
    text = cq.explain()
    assert "Slices: width" in text
    assert "HashAggregate(" in text and "BatchAggregate" not in text
    assert len(want) > 5 and any(rows for *_w, rows in want)
    assert got == want


def test_every_row_is_reduced_once(monkeypatch):
    """The refused CQ aggregates each row into its slice once; unsliced,
    every row would be aggregated once per window it is visible in."""
    reduced = []
    reduce_rows = ops.HashAggregate._reduce_rows

    def counting(self, rows, ctx):
        rows = list(rows)
        reduced.append(len(rows))
        return reduce_rows(self, rows, ctx)

    monkeypatch.setattr(ops.HashAggregate, "_reduce_rows", counting)
    db = engine(True)
    sql, _params = SHAPES["two keys"]
    sub = db.subscribe(sql.format(w=WINDOWS["W=5"]))
    rows = make_rows(600)
    feed(db, rows)
    assert len(sub.poll()) >= 30
    assert sum(reduced) == len(rows)
    assert sub.cq._window_op.store.rows_reduced == len(rows)


def test_two_equal_key_row_gear_cqs_share_a_store():
    sql = ("SELECT k, j, count(*) AS n, sum(v) AS t FROM s "
           "<VISIBLE '{}' ADVANCE '2 seconds'> GROUP BY k, j")
    rows = make_rows(500)
    outs = []
    for vectorize in (True, False):
        db = engine(vectorize)
        subs = [db.subscribe(sql.format("10 seconds")),
                db.subscribe(sql.format("20 seconds"))]
        feed(db, rows)
        outs.append([records(sub) for sub in subs])
        if vectorize:
            stores = db.get_stream("s").slice_stores
            assert all(sub.cq.is_sliced() and sub.cq.shared for sub in subs)
            assert len(stores) == 1 and len(stores[0].readers) == 2
            assert stores[0].rows_reduced == len(rows)
    assert outs[0] == outs[1]


def test_a_late_row_reseals_a_row_gear_slice():
    """A straggler inside the lateness bound re-seals its slice, and the
    retract/correct pair and every close after it are the iterator
    gear's."""
    sql = ("SELECT k, j, count(*) AS n, sum(v) AS t FROM s "
           "<VISIBLE '10 seconds' ADVANCE '2 seconds'> GROUP BY k, j "
           "EMIT ON WATERMARK ALLOW LATENESS '30 seconds' RETRACT")
    rows = make_rows(400)
    late = [("zz", 7, 5.0, 15.25), ("a", 1, 2.5, 25.0)]
    frames = [rows[:250], late[:1], rows[250:320], late[1:], rows[320:]]
    outs = []
    for vectorize in (True, False):
        db = engine(vectorize, event_time=True)
        sub = db.subscribe(sql)
        for frame in frames:
            db.insert_stream("s", frame)
        db.flush_streams()
        outs.append(records(sub))
        if vectorize:
            assert sub.cq.is_sliced()
    kinds = [kind for kind, *_rest in outs[0]]
    assert kinds.count("retract") >= 2 and kinds.count("correct") >= 2
    assert outs[0] == outs[1]


# -- refusals ---------------------------------------------------------------------


UNSLICED = {
    "median": "SELECT k, median(v) FROM s {w} GROUP BY k",
    "string_agg": "SELECT j, string_agg(k) FROM s {w} GROUP BY j",
    "count distinct": "SELECT k, count(DISTINCT j) FROM s {w} GROUP BY k",
    "cq_close below": ("SELECT k, count(*) FROM s {w} "
                       "WHERE ts < cq_close(*) GROUP BY k, j"),
    "subquery below": ("SELECT k, count(*) FROM s {w} "
                       "WHERE j IN (SELECT a FROM t) GROUP BY k, j"),
    "join": ("SELECT s.k, count(*) FROM s {w} JOIN t ON s.j = t.a "
             "GROUP BY s.k, s.j"),
}


@pytest.mark.parametrize("shape", sorted(UNSLICED))
def test_these_stay_unsliced(shape):
    sql = UNSLICED[shape].format(w=WINDOWS["W=5"])
    sub, got, want = run_both(sql, None, make_rows(200))
    assert not sub.cq.is_sliced()
    assert "Slices:" not in sub.cq.explain()
    assert got == want and len(got) > 5


# -- delivery ---------------------------------------------------------------------


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_a_row_gear_window_keeps_the_stream_on_the_per_row_path(
        monkeypatch):
    """A batch-gear window takes a frame whole; beside a row-gear one,
    which does not, the frame goes row by row, one ``insert`` a row."""
    inserts = count_calls(monkeypatch, BaseStream, "insert")
    db = engine(True)
    batch = db.subscribe("SELECT k, count(*) FROM s "
                         f"{WINDOWS['W=5']} GROUP BY k")
    rows = make_rows(120)
    db.insert_stream("s", rows[:60])
    assert inserts == []
    sql, _params = SHAPES["two keys"]
    row_gear = db.subscribe(sql.format(w=WINDOWS["W=5"]))
    assert batch.cq.is_sliced() and row_gear.cq.is_sliced()
    assert getattr(row_gear.cq._window_op, "on_tuples", None) is None
    db.insert_stream("s", rows[60:])
    assert len(inserts) == 60


@pytest.mark.parametrize("event_time", [False, True],
                         ids=["arrival", "event"])
def test_a_per_row_frame_is_coerced_once(monkeypatch, event_time):
    db = engine(True, event_time)
    # two unsliced windows (arrival time) or a disordered frame (event
    # time) take the per-row path
    subs = [db.subscribe(UNSLICED["median"].format(w=WINDOWS["W=5"]))
            for _ in range(2)]
    rows = make_rows(100)
    if event_time:
        rows[10], rows[11] = rows[11], rows[10]
    inserts = count_calls(monkeypatch, BaseStream, "insert")
    bulk = count_calls(monkeypatch, Schema, "coerce_rows")
    single = count_calls(monkeypatch, Schema, "coerce_row")
    db.insert_stream("s", rows)
    assert (len(bulk), len(single), len(inserts)) == (1, 0, len(rows))
    db.flush_streams()
    want = engine(False, event_time)
    spec = want.subscribe(UNSLICED["median"].format(w=WINDOWS["W=5"]))
    want.insert_stream("s", rows)
    want.flush_streams()
    assert records(subs[0]) == records(spec)


BAD_ROWS = {
    "arity": ("a", 1, 2.0),
    "not a row": 7,
    "null time": ("a", 1, 2.0, None),
    "not finite": ("a", 1, 2.0, math.inf),
}


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
@pytest.mark.parametrize("event_time", [False, True],
                         ids=["arrival", "event"])
def test_a_bad_row_applies_the_rows_before_it(event_time, bad):
    """Rows 0..k-1 stay applied and row k is refused with what a lone
    insert of it says, named by its index when it breaks a constraint."""
    sql = UNSLICED["median"].format(w=WINDOWS["W=5"])
    rows = make_rows(12)
    k = 5
    out = []
    for frame in (rows[:k] + [BAD_ROWS[bad]] + rows[k:], rows[:k]):
        db = engine(True, event_time)
        subs = [db.subscribe(sql) for _ in range(2)]
        stream = db.get_stream("s")
        if len(frame) == k:
            db.insert_stream("s", frame)
        else:
            with pytest.raises(Exception) as alone:
                stream.insert(BAD_ROWS[bad])
            with pytest.raises(type(alone.value)) as caught:
                db.insert_stream("s", frame)
            message = str(alone.value)
            if isinstance(alone.value, ConstraintError):
                message = f"row {k}: {message}"
            assert str(caught.value) == message
        assert stream.tuples_in == k
        db.flush_streams()
        out.append(records(subs[0]))
    assert out[0] == out[1] and out[0]


# -- the column-at-a-time merge ----------------------------------------------------


def fold(specs, partials):
    """The state-by-state fold ``merge_partials`` replaced."""
    merges = [agg.merge for agg, _ in specs]
    parts = iter(partials)
    merged = dict(next(parts, {}))
    for part in parts:
        both = {key: tuple([merge(a, b) for merge, a, b
                            in zip(merges, merged[key], part[key])])
                for key in merged.keys() & part.keys()}
        merged.update(part)
        merged.update(both)
    return merged


NUMBERS = [None, 0, 3, -2, 2.5, -0.0, math.nan, math.inf, True, False, 7,
           1.0]
TEXTS = [None, "a", "b", "", "ab"]
#: aggregate -> a random state of it
STATES = {
    "count": (aggregates.CountStar, lambda r: r.randrange(5)),
    "sum": (aggregates.Sum, lambda r: r.choice(NUMBERS)),
    "min": (lambda: aggregates._Extreme(False), lambda r: r.choice(NUMBERS)),
    "max": (lambda: aggregates._Extreme(True), lambda r: r.choice(NUMBERS)),
    "min text": (lambda: aggregates._Extreme(False),
                 lambda r: r.choice(TEXTS)),
    "max text": (lambda: aggregates._Extreme(True),
                 lambda r: r.choice(TEXTS)),
    "sum text": (aggregates.Sum, lambda r: r.choice(TEXTS)),
    "avg": (aggregates.Avg, lambda r: (r.choice([0.0, 1.5, -2.0]),
                                       r.randrange(3))),
    "variance": (lambda: aggregates.Variance(False, True),
                 lambda r: (r.randrange(3), 1.5, 2.25)),
    "bool_and": (aggregates.BoolAnd, lambda r: r.choice([None, True, False])),
    "bool_or": (aggregates.BoolOr, lambda r: r.choice([None, True, False])),
}
KEYS = [("a",), ("b",), (None,), (1,), (1.0, "x"), ("c",), ()]


def outcome(merge, agg, partials):
    try:
        return "ok", repr(list(merge(agg._agg_specs, partials).items()))
    except Exception as exc:        # noqa: BLE001 — compared, not hidden
        return type(exc), str(exc)


def random_partials(rnd, makers):
    return [{key: tuple(state(rnd) for _make, state in makers)
             for key in rnd.sample(KEYS, rnd.randrange(len(KEYS) + 1))}
            for _ in range(rnd.randrange(5))]


@pytest.mark.parametrize("seed", range(40))
def test_the_column_merge_is_the_state_by_state_fold(seed):
    rnd = random.Random(seed)
    names = rnd.sample(sorted(STATES), rnd.randrange(4))     # () too
    makers = [STATES[name] for name in names]
    agg = ops.HashAggregate(None, [], [(make(), None) for make, _s in makers])
    new = lambda specs, parts: agg.merge_partials(parts)    # noqa: E731
    for _ in range(25):
        partials = random_partials(rnd, makers)
        before = copy.deepcopy(partials)
        got = outcome(new, agg, partials)
        assert repr(partials) == repr(before)           # nothing mutated
        assert got == outcome(fold, agg, partials), names


@pytest.mark.parametrize("name", ["min", "max", "sum"])
def test_a_kind_clash_raises_the_folds_error(name):
    make, _state = STATES[name]
    agg = ops.HashAggregate(None, [], [(aggregates.CountStar(), None),
                                       (make(), None)])
    partials = [{("a",): (1, 4), ("b",): (1, 2.5)},
                {("b",): (2, 1.0), ("a",): (1, "text")}]
    got = outcome(lambda s, p: agg.merge_partials(p), agg, partials)
    assert got == outcome(fold, agg, partials)
    assert got[0] != "ok"
