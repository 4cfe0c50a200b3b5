"""Property-based parity: the vectorized executor vs the iterator.

Three layers, each pinned to the row-at-a-time semantics:

- *kernels*: ``compile_batch_expr`` against ``compile_expr`` over random
  batches with NULLs, empty batches, and single-row batches — including
  SQL three-valued logic (Kleene AND/OR, non-Kleene BETWEEN, IN with a
  NULL item) and error parity (division by zero);
- *aggregates*: the sliced/batched aggregation against the iterator
  HashAggregate through a full CQ (``Database(vectorize=...)``) — equal
  up to the one float rule (``tests/test_cq_oracle.float_sum``): a
  double ``sum`` / ``avg`` may differ in its last digits, since numpy
  adds pairwise; ``tests/test_differential.py`` draws the rest;
- *mixed mode*: a plan with an unconvertible operator keeps a batch
  source below an iterator aggregate and still matches.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.errors import ExecutionError
from repro.exec.columnar import ColumnBatch
from repro.exec.expressions import RowLayout, compile_expr
from repro.sql.parser import parse_statement
from repro.types.datatypes import (BooleanType, DoubleType, IntegerType,
                                   VarcharType)
from tests.test_cq_oracle import float_sum
from tests.test_differential import Config, run

# schema shared by the kernel tests: two doubles, two ints, a bool, a str
COLUMNS = ["a", "b", "i", "j", "p", "s"]
TYPES = [DoubleType(), DoubleType(), IntegerType(), IntegerType(),
         BooleanType(), VarcharType(16, "varchar")]
LAYOUT = RowLayout([(None, name, t) for name, t in zip(COLUMNS, TYPES)])


def expr_of(fragment):
    return parse_statement(f"SELECT {fragment} FROM t").items[0].expr


def run_iterator(expr, rows):
    fn = compile_expr(expr, LAYOUT)
    return [fn(row, {}) for row in rows]


def run_batch(expr, rows):
    from repro.exec.vector import compile_batch_expr
    kernel = compile_batch_expr(expr, LAYOUT)
    batch = ColumnBatch.from_rows(rows, TYPES)
    values, mask = kernel(batch, {})
    out = values.tolist() if hasattr(values, "tolist") else list(values)
    if mask is not None:
        out = [None if m else v for v, m in zip(out, mask.tolist())]
    return out


def assert_lanes_equal(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if isinstance(e, float) and isinstance(g, float):
            assert g == e or math.isclose(g, e, rel_tol=1e-12), (g, e)
        else:
            assert g == e, (g, e)


finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)
nullable_double = st.one_of(st.none(), finite)
nullable_int = st.one_of(st.none(), st.integers(-2**31, 2**31))
nullable_bool = st.one_of(st.none(), st.booleans())
nullable_str = st.one_of(st.none(), st.sampled_from(["", "a", "b", "xyz"]))

row_strategy = st.tuples(nullable_double, nullable_double, nullable_int,
                         nullable_int, nullable_bool, nullable_str)
# min_size=0 covers the empty batch; Hypothesis shrinks through size 1
rows_strategy = st.lists(row_strategy, min_size=0, max_size=40)

# every vectorizable expression shape; divisors are made non-zero so the
# lanes are comparable (error parity is its own test below)
EXPRESSIONS = [
    "a + b", "a - b", "a * b", "-a",
    "a / 3.5", "i % 7", "(i + 1000) / (j * j + 1)",
    "i + j * 2",
    "a < b", "a <= b", "a > b", "a >= b", "a = b", "a <> b",
    "i >= j", "i = j",
    "s = 'a'", "s <> 'xyz'",
    "p AND i < j", "p OR a > 0.0", "NOT p",
    "a IS NULL", "a IS NOT NULL", "s IS NULL",
    "i BETWEEN j AND 100", "a BETWEEN -1.5 AND 1.5",
    "i NOT BETWEEN -10 AND 10",
    "i IN (1, 2, 3)", "s IN ('a', 'b')", "i NOT IN (0, 5)",
]


class TestKernelParity:
    @pytest.mark.parametrize("fragment", EXPRESSIONS)
    @settings(max_examples=40, deadline=None)
    @given(rows=rows_strategy)
    def test_kernel_matches_iterator(self, fragment, rows):
        expr = expr_of(fragment)
        assert_lanes_equal(run_batch(expr, rows),
                           run_iterator(expr, rows))

    @pytest.mark.parametrize("fragment", EXPRESSIONS)
    def test_empty_batch(self, fragment):
        assert run_batch(expr_of(fragment), []) == []

    @pytest.mark.parametrize("fragment", EXPRESSIONS)
    def test_all_null_single_row(self, fragment):
        rows = [(None,) * len(COLUMNS)]
        expr = expr_of(fragment)
        assert_lanes_equal(run_batch(expr, rows),
                           run_iterator(expr, rows))

    @pytest.mark.parametrize("fragment", ["i / j", "i % j"])
    def test_division_by_zero_parity(self, fragment):
        rows = [(1.0, 1.0, 10, 0, True, "a")]
        expr = expr_of(fragment)
        with pytest.raises(ExecutionError, match="division by zero"):
            run_iterator(expr, rows)
        with pytest.raises(ExecutionError, match="division by zero"):
            run_batch(expr, rows)

    def test_null_divisor_is_null_not_error(self):
        rows = [(1.0, 1.0, 10, None, True, "a")]
        expr = expr_of("i / j")
        assert run_iterator(expr, rows) == [None]
        assert run_batch(expr, rows) == [None]

    @pytest.mark.parametrize("fragment", [
        "i IN (1, NULL)",       # NULL literal has no type family
        "s || 'x'",             # string concat
        "CASE WHEN p THEN 1 ELSE 2 END",
        "s LIKE 'a%'",
    ])
    def test_unvectorizable_shapes_raise(self, fragment):
        """Shapes with no kernel must refuse loudly (the planner then
        keeps the iterator operator) rather than diverge silently."""
        from repro.exec.vector import NotVectorizable, compile_batch_expr
        with pytest.raises(NotVectorizable):
            compile_batch_expr(expr_of(fragment), LAYOUT)


# ---------------------------------------------------------------------------
# end-to-end: whole CQs, vectorize on vs off
# ---------------------------------------------------------------------------


AGG_QUERY = ("SELECT k, count(*), count(v), sum(v), avg(v), min(v), max(v) "
             "FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY k")
FILTER_QUERY = ("SELECT sum(v), count(*) "
                "FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> "
                "WHERE v IS NOT NULL AND v > -500000.0 AND k <> 9")

events_strategy = st.lists(
    st.tuples(st.integers(0, 3),                     # group key
              st.one_of(st.none(), finite),          # value (nullable)
              st.integers(0, 90)),                   # event time, seconds
    min_size=1, max_size=60,
).map(lambda evs: sorted(evs, key=lambda e: e[2]))


def run_cq(query, events, vectorize):
    db = Database(vectorize=vectorize)
    db.execute("CREATE STREAM s (k integer, v double, "
               "ts timestamp CQTIME USER)")
    sub = db.subscribe(query)
    db.insert_stream("s", [(k, v, float(t)) for k, v, t in events])
    db.advance_streams(float(events[-1][2]) + 60.0)
    return [(w.close_time, sorted(w.rows)) for w in sub.poll()]


class TestEndToEndParity:
    def test_grouped_aggregates_match(self):
        """A step program through the differential machine: doubles of
        every magnitude, both gears, the oracle's float rule."""
        rows = [("abc"[i % 3], (-1.5) ** (i % 23) * 10.0 ** (i % 13),
                 float(i)) for i in range(60)]
        run(Config(doubles=True, window=(20.0, 10.0), order_by=False),
            *[("send", rows[i:i + 7]) for i in range(0, len(rows), 7)])

    def test_grouped_sum_is_summation_order_sensitive(self):
        # the two executors add these doubles in different orders, so
        # sum / avg differ in the last digit: the float rule holds both
        events = [(0, -1.0, 0), (0, 171766514971.0, 0),
                  (0, 377989298917.87115, 0)]
        batch, rows = (run_cq(AGG_QUERY, events, gear)
                       for gear in (True, False))
        assert batch != rows
        values = [v for _k, v, _t in events]
        want = [(0, 3, 3, float_sum(values), float_sum(values, mean=True),
                 min(values), max(values))]
        for got in (batch, rows):
            assert [window for _close, window in got if window] \
                == [want, want]

    @settings(max_examples=25, deadline=None)
    @given(events=events_strategy)
    def test_filtered_aggregates_match(self, events):
        assert run_cq(FILTER_QUERY, events, True) == \
            run_cq(FILTER_QUERY, events, False)

    def test_mixed_mode_unconvertible_aggregate(self):
        """count(DISTINCT ...) has no batch kernel: the aggregate stays
        an iterator operator over a batch source, and the results still
        match the fully-iterator plan."""
        query = ("SELECT count(DISTINCT k), sum(v) "
                 "FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> "
                 "WHERE v >= 0.0")
        events = [(k, float(k * 7 % 5), t)
                  for t, k in enumerate(range(40))]
        db = Database()
        db.execute("CREATE STREAM s (k integer, v double, "
                   "ts timestamp CQTIME USER)")
        sub = db.subscribe(query)
        text = db.explain(f"EXPLAIN {query}")
        assert "[mode=batch]" in text and "[mode=iterator]" in text
        assert "BatchSource(s) [mode=batch]" in text
        assert "HashAggregate" in text          # not BatchAggregate
        db.insert_stream("s", [(k, v, float(t)) for k, v, t in events])
        db.advance_streams(float(events[-1][2]) + 60.0)
        got = [(w.close_time, sorted(w.rows)) for w in sub.poll()]
        assert got == run_cq(query, events, False)


# ---------------------------------------------------------------------------
# one partial protocol: the two gears' aggregates share the rows loop, the
# merge and the finalize, so their partial dicts are the same dict
# ---------------------------------------------------------------------------


def both_gears(query):
    """(cq, split aggregate) on the batch gear and on the iterator gear."""
    pairs = []
    for vectorize in (True, False):
        db = Database(vectorize=vectorize)
        db.execute("CREATE STREAM s (k integer, v double, "
                   "ts timestamp CQTIME USER)")
        cq = db.subscribe(query).cq
        pairs.append((cq, cq._split[0]))
    return pairs


def partial_of(cq, agg, rows):
    cq._batches[0] = rows
    try:
        return agg.accumulate({})
    finally:
        cq._batches[0] = []


class TestOnePartialProtocol:
    INTEGRAL = ("SELECT k, count(*), count(v), sum(v), min(v), max(v) "
                "FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> "
                "GROUP BY k")
    SCALAR = ("SELECT count(*), sum(v), avg(v), max(v) "
              "FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'>")

    def test_the_batch_aggregate_is_the_hash_aggregate(self):
        from repro.exec.batch_ops import BatchAggregate
        from repro.exec.operators import HashAggregate
        (_cq, batch), (_cq2, rowwise) = both_gears(self.INTEGRAL)
        assert type(batch) is BatchAggregate and type(rowwise) is HashAggregate
        assert isinstance(batch, HashAggregate)
        for name in ("merge_partials", "finalize", "set_merged", "rows",
                     "_reduce_rows"):
            assert getattr(BatchAggregate, name) is getattr(HashAggregate,
                                                            name), name
        # ... while the ledger still finds the three it times on the class
        for name in ("partial_for_rows", "merge_partials", "finalize"):
            assert name in vars(BatchAggregate), name

    @pytest.mark.parametrize("rows", [
        [],                                                     # empty input
        [(2, 1.0, 0.0), (None, 2.0, 1.0), (1, None, 2.0),      # NULL key
         (None, 4.0, 3.0), (2, 8.0, 4.0)],
        [(3, 1.0, 0.0), (1, 2.0, 1.0), (3, 4.0, 2.0),          # kernels only
         (2, None, 3.0), (1, 8.0, 4.0)],
    ], ids=["empty", "null-key", "first-seen-order"])
    def test_identical_partials_key_order_included(self, rows):
        (bcq, batch), (rcq, rowwise) = both_gears(self.INTEGRAL)
        got = partial_of(bcq, batch, rows)
        want = partial_of(rcq, rowwise, rows)
        assert list(got.items()) == list(want.items())
        halves = [rows[:2], rows[2:]]
        merged = [agg.merge_partials([partial_of(cq, agg, half)
                                      for half in halves])
                  for cq, agg in ((bcq, batch), (rcq, rowwise))]
        assert list(merged[0].items()) == list(merged[1].items()) \
            == list(want.items())
        assert batch.finalize(merged[0]) == rowwise.finalize(merged[1])

    @pytest.mark.parametrize("rows", [
        [], [(1, None, 0.0)], [(1, 2.0, 0.0), (2, 4.0, 1.0), (3, None, 2.0)],
    ], ids=["empty", "all-null", "some"])
    def test_scalar_aggregates(self, rows):
        (bcq, batch), (rcq, rowwise) = both_gears(self.SCALAR)
        got = partial_of(bcq, batch, rows)
        assert list(got.items()) == \
            list(partial_of(rcq, rowwise, rows).items())
        # no group key: one output row even over nothing at all
        assert batch.finalize(batch.merge_partials([got, {}])) == \
            rowwise.finalize(rowwise.merge_partials([got]))
        assert len(batch.finalize({})) == 1
        assert batch.finalize({}) == rowwise.finalize({})
