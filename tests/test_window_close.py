"""What a sliced window close costs, and that it still answers the same.

A close merges the covered slices' partials, finalizes the merged groups
and runs the projection over them; the slices were reduced from column
batches.  Each step has a fast path — a merge a dict at a time, a
finalize with no call per aggregate when every state is its own result,
a projection of bare columns picked in C, a column converted only when a
kernel reads it — and each is pinned here to the generic path it
replaces: same dict, same key order, same rows, same lanes and masks, no
input state mutated.  The last class is a structural guard on the
ledger's ``embedded_multi_cq`` shapes (a count, not a timer).
"""

import copy
import importlib.util
import os
import random
import re
import sys

import numpy as np
import pytest

from repro import Database
from repro.exec import aggregates
from repro.exec import operators as ops
from repro.exec.aggregates import make_aggregate
from repro.exec.columnar import ColumnBatch, _convert
from repro.exec.expressions import RowLayout, compile_expr
from repro.sql.parser import parse_statement
from repro.types.datatypes import (BooleanType, DoubleType, IntegerType,
                                   VarcharType)

LEDGER_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "ledger")

#: one of every aggregate kind: (name, distinct)
KINDS = [("count", False), ("count", True), ("sum", False), ("avg", False),
         ("min", False), ("max", False), ("stddev", False),
         ("var_pop", False), ("bool_and", False), ("bool_or", False),
         ("string_agg", False), ("median", False)]


def aggregate_node(kinds, keys=1):
    """A HashAggregate over nothing, with ``keys`` group keys and one
    spec per kind (its argument is column 1 of the row)."""
    specs = [(make_aggregate(name, distinct), lambda row, ctx: row[1])
             for name, distinct in kinds]
    group = [lambda row, ctx, i=i: row[0] for i in range(keys)]
    return ops.HashAggregate(ops.RowSource([]), group, specs)


def value_for(name, rnd):
    if name.startswith("bool"):
        return rnd.choice([True, False, None])
    return rnd.choice([None, 1, 2, 3, 5, 8])


def partials(node, kinds, n, keys, rnd):
    """``n`` partials over the key pool ``keys``, reduced by the node's
    own rows loop (a value column of the first kind's type)."""
    name = kinds[0][0]
    out = []
    for _ in range(n):
        rows = [(rnd.choice(keys), value_for(name, rnd))
                for _ in range(rnd.randint(0, 6))]
        out.append(node._reduce_rows(rows, {}))
    return out


def loop_merge(node, parts):
    """The merge as one loop over every key of every partial."""
    merged = {}
    for part in parts:
        for key, states in part.items():
            current = merged.get(key)
            merged[key] = tuple(states) if current is None else tuple(
                agg.merge(a, b)
                for (agg, _), a, b in zip(node._agg_specs, current, states))
    return merged


def generic_finalize(node, groups):
    specs = node._agg_specs
    if not groups and not node._group_exprs:
        groups = {(): [agg.create() for agg, _ in specs]}
    return [key + tuple(agg.result(state)
                        for (agg, _), state in zip(specs, states))
            for key, states in groups.items()]


class TestMergePartials:
    @pytest.mark.parametrize("kinds", [[kind] for kind in KINDS]
                             + [[("count", False), ("sum", False),
                                 ("max", False)]],
                             ids=lambda k: "+".join(n for n, _ in k))
    @pytest.mark.parametrize("pool", [["a", "b", "c"], None],
                             ids=["overlapping", "disjoint"])
    def test_the_loops_dict_key_order_included(self, kinds, pool):
        node = aggregate_node(kinds)
        rnd = random.Random(2009)
        for _ in range(30):
            if pool is None:        # every partial its own keys
                parts = [partials(node, kinds, 1, [f"{i}{j}" for j in "xy"],
                                  rnd)[0] for i in range(4)]
            else:
                parts = partials(node, kinds, rnd.randint(0, 5), pool, rnd)
            before = copy.deepcopy(parts)
            merged = node.merge_partials(parts)
            assert list(merged.items()) == \
                list(loop_merge(node, before).items())
            # no input partial, and no state inside one, was changed
            assert parts == before

    def test_no_state_object_is_mutated(self):
        """Set, tuple and list states: the merged dict never hands a
        later merge a state object it shares with an input partial."""
        kinds = [("count", True), ("avg", False), ("var_pop", False),
                 ("string_agg", False), ("median", False)]
        node = aggregate_node(kinds)
        parts = [node._reduce_rows([("a", 1), ("b", 2)], {}),
                 node._reduce_rows([("a", 3)], {}),
                 node._reduce_rows([("b", 4), ("a", 1)], {})]
        before = copy.deepcopy(parts)
        ids = [[id(s) for s in states] for part in parts
               for states in part.values()]
        once = node.merge_partials(parts)
        twice = node.merge_partials([once, parts[0]])
        assert parts == before
        assert [[id(s) for s in states] for part in parts
                for states in part.values()] == ids
        assert once[("a",)][0] == {1, 3} and twice[("a",)][0] == {1, 3}
        assert once[("a",)][3] == ["1", "3", "1"]

    def test_one_partial_and_none(self):
        node = aggregate_node([("sum", False)])
        part = node._reduce_rows([("a", 1), ("b", 2)], {})
        assert node.merge_partials([part]) == part
        assert node.merge_partials([part]) is not part
        assert node.merge_partials([]) == {}


class TestFinalize:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: "_".join(
        map(str, k)))
    @pytest.mark.parametrize("keys", [1, 0], ids=["grouped", "scalar"])
    def test_every_kind_matches_the_generic_path(self, kind, keys):
        node = aggregate_node([kind], keys)
        rnd = random.Random(7)
        groups = node._reduce_rows(
            [(rnd.choice("ab"), value_for(kind[0], rnd)) for _ in range(9)],
            {})
        if keys == 0:
            groups = {(): states for states in groups.values()} or {}
        for case in (groups, {}):
            assert node.finalize(case) == generic_finalize(node, case)

    def test_the_empty_scalar_aggregate(self):
        node = aggregate_node([("count", False), ("sum", False),
                               ("max", False)], keys=0)
        assert node._states_are_results
        assert node.finalize({}) == [(0, None, None)]

    def test_only_state_valued_results_skip_the_call(self):
        rnd = random.Random(3)
        for name, distinct in KINDS:
            agg = make_aggregate(name, distinct)
            node = aggregate_node([(name, distinct)])
            assert node._states_are_results is agg.result_is_state
            if agg.result_is_state:
                state = agg.create()
                for _ in range(5):
                    state = agg.add(state, value_for(name, rnd))
                assert agg.result(state) is state, name
        assert not aggregate_node([("count", False),
                                   ("avg", False)])._states_are_results
        flagged = {cls.__name__ for cls in vars(aggregates).values()
                   if isinstance(cls, type)
                   and issubclass(cls, aggregates.Aggregate)
                   and cls.result_is_state}
        assert flagged == {"CountStar", "Count", "Sum", "_Extreme",
                           "BoolAnd", "BoolOr"}


def mode_of(project):
    """Which way a Project builds its rows."""
    return {True: "row", None: "evaluate"}.get(project._pick, "pick")


class TestProject:
    LAYOUT = RowLayout([(None, "a", IntegerType()),
                        (None, "b", VarcharType(4, "varchar")),
                        (None, "c", DoubleType())])
    ROWS = [(1, "x", 2.5), (2, None, -1.0), (3, "z", None)]

    @pytest.mark.parametrize("select, mode", [
        ("a, b, c", "row"), ("c, a, b", "pick"), ("b, c", "pick"),
        ("c", "pick"), ("a, a + 1", "evaluate"), ("b, ?", "evaluate"),
        ("cq_close(*), a, b, c", "evaluate"),
    ], ids=["identity", "permutation", "subset", "one", "arithmetic",
            "parameter", "cq_close"])
    def test_each_mode_yields_the_generic_rows(self, select, mode):
        items = parse_statement(f"SELECT {select} FROM t").items
        exprs = [compile_expr(item.expr, self.LAYOUT) for item in items]
        node = ops.Project(ops.RowSource(self.ROWS), exprs)
        assert mode_of(node) == mode
        ctx = {"cq_close": 10.0, "params": [9]}
        got = list(node.rows(ctx))
        assert got == [tuple(e(row, ctx) for e in exprs)
                       for row in self.ROWS]
        assert all(type(row) is tuple for row in got)
        if mode == "row":
            assert all(a is b for a, b in zip(got, self.ROWS))

    @pytest.mark.parametrize("select", ["a, b, c", "c, a", "b", "a + 1"])
    def test_explain_keeps_the_project_node(self, select):
        db = Database()
        db.execute("CREATE TABLE t (a integer, b varchar(4), c double)")
        db.execute("INSERT INTO t VALUES (1, 'x', 2.5), (2, NULL, -1.0)")
        assert db.explain(f"SELECT {select} FROM t") == \
            "Project\n  SeqScan(t, ~2 rows)"

    def test_a_cq_projects_the_aggregates_row_as_the_iterator_does(self):
        """``SELECT k, count(*), sum(v) … GROUP BY k`` projects exactly
        the aggregate's output row; a permutation picks from it, and
        ``cq_close(*)`` beside the columns is evaluated per row.  All
        answer as the iterator gear does, EXPLAIN's Project node kept."""
        queries = {
            "row": "SELECT k, count(*) AS n, sum(v) AS t FROM s "
                   "<VISIBLE '10 seconds'> GROUP BY k",
            "pick": "SELECT sum(v) AS t, k FROM s "
                    "<VISIBLE '10 seconds'> GROUP BY k",
            "evaluate": "SELECT cq_close(*), k, count(*) AS n FROM s "
                        "<VISIBLE '10 seconds'> GROUP BY k"}
        out = {}
        for vectorize in (True, False):
            db = Database(vectorize=vectorize)
            db.execute("CREATE STREAM s (k varchar(4), v integer, "
                       "ts timestamp CQTIME USER)")
            subs = {mode: db.subscribe(sql) for mode, sql in queries.items()}
            for mode, sub in subs.items():
                root = sub.cq._plan.root
                assert isinstance(root, ops.Project)
                assert mode_of(root) == mode
                assert any(line.startswith("Project") for line
                           in db.explain(queries[mode]).splitlines())
            db.insert_stream("s", [("a", 1, 1.0), ("b", 2, 2.0),
                                   ("a", 4, 3.0), ("c", 8, 12.0)])
            db.advance_streams(40.0)
            out[vectorize] = {mode: [(w.close_time, w.rows)
                                     for w in sub.poll()]
                              for mode, sub in subs.items()}
        assert out[True] == out[False]
        assert out[True]["row"][0] == (10.0, [("a", 2, 5), ("b", 1, 2)])
        assert out[True]["pick"][0] == (10.0, [(5, "a"), (2, "b")])
        assert out[True]["evaluate"][0] == (10.0, [(10.0, "a", 2),
                                                   (10.0, "b", 1)])


TYPES = [DoubleType(), IntegerType(), BooleanType(), VarcharType(8, "varchar")]


def eager(rows, types):
    """Every column converted up front: ``(values, mask)`` per column."""
    return [_convert([row[i] for row in rows], t)
            for i, t in enumerate(types)]


def same_lane(got, want):
    """Equal dtype and values, and the same NULL lanes (a mask of None
    and one with no lane set both say there is none)."""
    values, mask = got
    want_values, want_mask = want
    assert values.dtype == want_values.dtype
    assert values.tolist() == want_values.tolist()
    nulls = [] if mask is None else mask.tolist()
    want_nulls = [] if want_mask is None else want_mask.tolist()
    assert [i for i, m in enumerate(nulls) if m] == \
        [i for i, m in enumerate(want_nulls) if m]


class TestColumnBatch:
    ROWS = [(1.5, 1, True, "a"), (None, 2, False, None), (2.5, None, None, "c"),
            (0.0, 4, True, "d"), (7.25, 2 ** 70, False, "e")]

    def test_columns_convert_on_first_read(self):
        batch = ColumnBatch.from_rows(self.ROWS, TYPES)
        assert batch.columns == [None] * 4
        assert batch.to_rows() is self.ROWS
        for i, want in enumerate(eager(self.ROWS, TYPES)):
            same_lane(batch.column(i), want)
            assert batch.columns[i] is batch.column(i)[0]     # once
        # an int past int64 keeps its exact value in an object lane
        assert batch.column(1)[0].dtype == object

    def test_take_compresses_what_is_converted_and_nothing_else(self):
        batch = ColumnBatch.from_rows(self.ROWS, TYPES)
        values, mask = batch.column(0)
        keep = ~mask & (np.nan_to_num(values) > 1.0)
        taken = batch.take(keep)
        assert taken.length == 3
        assert taken.columns[1:] == [None, None, None]
        kept = [row for row, k in zip(self.ROWS, keep.tolist()) if k]
        assert taken.to_rows() == kept
        for i, want in enumerate(eager(self.ROWS, TYPES)):
            values, mask = want
            same_lane(taken.column(i),
                      (values[keep], None if mask is None else mask[keep]))
        # what a filter leaves (no NULL left in column 3) reads as eager
        # conversion of the surviving rows would
        for i, want in enumerate(eager(kept, TYPES)):
            if i != 1:      # 2**70 alone: an object lane either way
                same_lane(taken.column(i), want)

    def test_an_empty_batch(self):
        batch = ColumnBatch.from_rows([], TYPES)
        assert batch.length == 0 and batch.to_rows() == []
        for i, t in enumerate(TYPES):
            values, mask = batch.column(i)
            assert len(values) == 0 and mask is None

    @pytest.mark.parametrize("query, rows", [
        ("SELECT k, count(*), sum(v) FROM s <VISIBLE '10 seconds'> "
         "GROUP BY k",
         [(None, 1.0, 1.0), ("a", 2.0, 2.0), (None, 4.0, 3.0)]),
        ("SELECT k, min(k), max(k) FROM s <VISIBLE '10 seconds'> "
         "GROUP BY k",
         [("b", 1.0, 1.0), ("a", 2.0, 2.0), ("b", 4.0, 3.0)]),
    ], ids=["null-group-key", "object-min-max"])
    def test_the_rows_loop_fallback_reads_the_batchs_rows(self, query, rows):
        """A NULL group key and min/max over an object lane leave the
        kernels for the rows loop, through ``to_rows``: same partial,
        same output as the iterator gear."""
        out = []
        for vectorize in (True, False):
            db = Database(vectorize=vectorize)
            db.execute("CREATE STREAM s (k varchar(4), v double, "
                       "ts timestamp CQTIME USER)")
            sub = db.subscribe(query)
            db.insert_stream("s", rows)
            db.advance_streams(30.0)
            out.append([(w.close_time, w.rows) for w in sub.poll()])
        assert out[0] == out[1] and out[0]


def ledger_workloads():
    """``benchmarks/ledger/workloads.py``, imported by path (it imports
    its siblings by bare name)."""
    sys.path.insert(0, LEDGER_DIR)
    try:
        spec = importlib.util.spec_from_file_location(
            "ledger_workloads_guard", os.path.join(LEDGER_DIR, "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(LEDGER_DIR)
        for name in ("harness", "layers"):
            sys.modules.pop(name, None)


class TestStructuralGuard:
    """The close's fast paths stay taken on the ledger's
    ``embedded_multi_cq`` shapes — counted, so a regression fails here
    rather than as a slower bench run."""

    @pytest.fixture(scope="class")
    def shapes(self):
        return ledger_workloads().VECTOR_CQS

    @staticmethod
    def read_columns(sql, names):
        """The stream columns a CQ's text names."""
        words = set(re.findall(r"\w+", sql))
        return {i for i, name in enumerate(names) if name in words}

    def test_a_slice_batch_converts_only_the_columns_its_plan_reads(
            self, shapes, monkeypatch):
        from repro.workloads.security import (SECURITY_STREAM_DDL,
                                              SecurityEventGenerator)
        events = SecurityEventGenerator(seed=2009).batch(3000)
        for sql in shapes:
            db = Database()
            db.execute(SECURITY_STREAM_DDL)
            names = [c.name for c in db.get_stream("security_events").schema]
            sub = db.subscribe(sql)
            assert sub.cq.is_sliced(), sql
            made = []
            real = ColumnBatch.from_rows.__func__

            def from_rows(cls, rows, types, _made=made, _real=real):
                _made.append(_real(cls, rows, types))
                return _made[-1]
            monkeypatch.setattr(ColumnBatch, "from_rows",
                                classmethod(from_rows))
            db.insert_stream("security_events", events)
            db.advance_streams(events[-1][0] + 20.0)
            monkeypatch.undo()
            assert sub.poll() and made, sql
            reads = self.read_columns(sql, names)
            assert 0 < len(reads) < len(names)
            for batch in made:
                converted = {i for i, arr in enumerate(batch.columns)
                             if arr is not None}
                assert converted <= reads, (sql, converted, reads)
            assert {i for batch in made for i, arr
                    in enumerate(batch.columns) if arr is not None}, sql

    def test_merging_disjoint_partials_calls_no_merge(self, shapes,
                                                      monkeypatch):
        calls = []
        for cls in (aggregates.CountStar, aggregates.Sum,
                    aggregates._Extreme):
            real = cls.merge

            def merge(self, a, b, _real=real):
                calls.append(type(self).__name__)
                return _real(self, a, b)
            monkeypatch.setattr(cls, "merge", merge)
        for sql in shapes:
            db = Database()
            db.execute("CREATE STREAM security_events (etime timestamp "
                       "CQTIME USER, src_ip varchar(50), dst_ip varchar(50), "
                       "dst_port integer, action varchar(10), "
                       "severity integer, bytes_sent bigint)")
            agg = db.subscribe(sql).cq._agg
            # a column of states merges through the builtin, when the
            # aggregate has one: count those calls too
            for spec, _arg in agg._agg_specs:
                def fast(a, b, _real=spec.fast_merge,
                         _name=type(spec).__name__):
                    calls.append(_name)
                    return _real(a, b)
                spec.fast_merge = fast
            parts = [{(f"k{i}-{j}",): [1, 2][:len(agg._agg_specs)]
                      for j in range(50)} for i in range(5)]
            merged = agg.merge_partials(parts)
            assert len(merged) == 250 and not calls, sql
            agg.merge_partials([parts[0], parts[0]])
            assert len(calls) == 50 * len(agg._agg_specs), sql
            calls.clear()
