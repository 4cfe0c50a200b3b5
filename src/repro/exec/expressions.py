"""Compiling AST expressions to Python closures.

A compiled expression is ``f(row, ctx) -> value`` where ``row`` is the
input tuple and ``ctx`` is a per-batch context dict.  The context carries
streaming values that are constant within one window evaluation — most
importantly ``cq_close`` (the paper's ``cq_close(*)`` function, Example 3,
which "returns the timestamp at the close of the relevant window").
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import BindError, ExecutionError, TypeError_
from repro.sql import ast
from repro.types.datatypes import (
    BooleanType,
    DataType,
    DoubleType,
    IntegerType,
    IntervalType,
    TimestampType,
    VarcharType,
    type_from_name,
)
from repro.types.temporal import format_timestamp
from repro.types.values import sql_compare, sql_like

#: functions evaluated from the per-batch context, not the row
CONTEXT_FUNCTIONS = {"cq_close", "cq_open"}


class PlannedSubquery(ast.Expr):
    """An uncorrelated subquery already planned by the planner.

    ``kind`` is ``'in'``, ``'exists'`` or ``'scalar'``.  The subplan is
    evaluated lazily, once per execution context (so inside a CQ it
    re-runs each window, seeing the window-consistent snapshot).
    """

    def __init__(self, plan, kind: str, negated: bool = False,
                 result_type: Optional["DataType"] = None, operand=None):
        self.plan = plan
        self.kind = kind
        self.negated = negated
        self.result_type = result_type
        self.operand = operand  # the LHS expression of IN

    def __repr__(self):
        return f"PlannedSubquery({self.kind})"


def _subquery_rows(planned: PlannedSubquery, ctx):
    """Evaluate (or reuse) the subquery's rows for this execution."""
    if ctx is None:
        return list(planned.plan.execute({}))
    cache = ctx.setdefault("_subqueries", {})
    key = id(planned)
    if key not in cache:
        cache[key] = list(planned.plan.execute(ctx))
    return cache[key]


class RowLayout:
    """Maps (alias, column) names to tuple positions with types.

    ``entries`` is a list of ``(alias, name, DataType)``; alias may be
    None for computed columns.
    """

    def __init__(self, entries):
        self.entries = [(a.lower() if a else None, n.lower(), t)
                        for a, n, t in entries]

    def __len__(self):
        return len(self.entries)

    def resolve(self, table, name):
        """Return (index, type); raises BindError on missing/ambiguous."""
        name = name.lower()
        if table is not None:
            table = table.lower()
            matches = [
                (i, t) for i, (a, n, t) in enumerate(self.entries)
                if a == table and n == name
            ]
        else:
            matches = [
                (i, t) for i, (a, n, t) in enumerate(self.entries)
                if n == name
            ]
        if not matches:
            qual = f"{table}.{name}" if table else name
            raise BindError(f"column {qual!r} does not exist")
        if len(matches) > 1:
            raise BindError(f"column reference {name!r} is ambiguous")
        return matches[0]

    def columns_of(self, table):
        """All (index, name, type) belonging to alias ``table``."""
        table = table.lower()
        return [
            (i, n, t) for i, (a, n, t) in enumerate(self.entries)
            if a == table
        ]

    def concat(self, other: "RowLayout") -> "RowLayout":
        out = RowLayout([])
        out.entries = self.entries + other.entries
        return out

    def names(self):
        return [n for _a, n, _t in self.entries]

    def types(self):
        return [t for _a, _n, t in self.entries]


# ---------------------------------------------------------------------------
# scalar function registry
# ---------------------------------------------------------------------------


def _null_guard(fn):
    def wrapped(*args):
        if any(a is None for a in args):
            return None
        return fn(*args)
    return wrapped


def _substr(s, start, length=None):
    start = int(start) - 1  # SQL is 1-based
    if start < 0:
        start = 0
    if length is None:
        return s[start:]
    return s[start:start + int(length)]


def _round(x, digits=0):
    return round(float(x), int(digits))


_TRUNC_UNITS = {
    "second": 1.0,
    "minute": 60.0,
    "hour": 3600.0,
    "day": 86400.0,
    "week": 7 * 86400.0,
}


def _date_trunc(unit, ts):
    width = _TRUNC_UNITS.get(str(unit).lower())
    if width is None:
        raise ExecutionError(f"date_trunc: unknown unit {unit!r}")
    return math.floor(ts / width) * width


def _split_part(s, delimiter, n):
    parts = str(s).split(str(delimiter))
    index = int(n) - 1
    if 0 <= index < len(parts):
        return parts[index]
    return ""


def _strpos(s, needle):
    return str(s).find(str(needle)) + 1


def _left(s, n):
    n = int(n)
    return str(s)[:n] if n >= 0 else str(s)[:n or None]


def _right(s, n):
    n = int(n)
    if n <= 0:
        return str(s)[-n if n else len(str(s)):]
    return str(s)[-n:]


def _lpad(s, width, fill=" "):
    text = str(s)
    width = int(width)
    if len(text) >= width:
        return text[:width]
    pad = str(fill) * width
    return pad[:width - len(text)] + text


SCALAR_FUNCTIONS = {
    "lower": (_null_guard(lambda s: str(s).lower()), VarcharType(None, "text")),
    "upper": (_null_guard(lambda s: str(s).upper()), VarcharType(None, "text")),
    "initcap": (_null_guard(lambda s: str(s).title()),
                VarcharType(None, "text")),
    "trim": (_null_guard(lambda s: str(s).strip()), VarcharType(None, "text")),
    "ltrim": (_null_guard(lambda s: str(s).lstrip()),
              VarcharType(None, "text")),
    "rtrim": (_null_guard(lambda s: str(s).rstrip()),
              VarcharType(None, "text")),
    "replace": (_null_guard(lambda s, old, new: str(s).replace(str(old),
                                                               str(new))),
                VarcharType(None, "text")),
    "split_part": (_null_guard(_split_part), VarcharType(None, "text")),
    "strpos": (_null_guard(_strpos), IntegerType()),
    "position": (_null_guard(lambda needle, s: _strpos(s, needle)),
                 IntegerType()),
    "left": (_null_guard(_left), VarcharType(None, "text")),
    "right": (_null_guard(_right), VarcharType(None, "text")),
    "repeat": (_null_guard(lambda s, n: str(s) * max(0, int(n))),
               VarcharType(None, "text")),
    "lpad": (_null_guard(_lpad), VarcharType(None, "text")),
    "reverse": (_null_guard(lambda s: str(s)[::-1]),
                VarcharType(None, "text")),
    "starts_with": (_null_guard(lambda s, p: str(s).startswith(str(p))),
                    BooleanType()),
    "sign": (_null_guard(lambda x: (x > 0) - (x < 0)), IntegerType()),
    "trunc": (_null_guard(lambda x: math.trunc(x)), IntegerType("bigint")),
    "exp": (_null_guard(math.exp), DoubleType()),
    "length": (_null_guard(lambda s: len(str(s))), IntegerType()),
    "abs": (_null_guard(abs), DoubleType()),
    "round": (_null_guard(_round), DoubleType()),
    "floor": (_null_guard(lambda x: math.floor(x)), IntegerType("bigint")),
    "ceil": (_null_guard(lambda x: math.ceil(x)), IntegerType("bigint")),
    "ceiling": (_null_guard(lambda x: math.ceil(x)), IntegerType("bigint")),
    "sqrt": (_null_guard(math.sqrt), DoubleType()),
    "ln": (_null_guard(math.log), DoubleType()),
    "log": (_null_guard(math.log10), DoubleType()),
    "power": (_null_guard(lambda x, y: float(x) ** float(y)), DoubleType()),
    "mod": (_null_guard(lambda x, y: x % y), IntegerType("bigint")),
    "substr": (_null_guard(_substr), VarcharType(None, "text")),
    "substring": (_null_guard(_substr), VarcharType(None, "text")),
    "concat": (lambda *a: "".join(str(x) for x in a if x is not None),
               VarcharType(None, "text")),
    "date_trunc": (_null_guard(_date_trunc), TimestampType()),
    "to_timestamp": (_null_guard(lambda x: float(x)), TimestampType()),
    "format_timestamp": (_null_guard(format_timestamp), VarcharType(None, "text")),
    "greatest": (lambda *a: max((x for x in a if x is not None), default=None),
                 DoubleType()),
    "least": (lambda *a: min((x for x in a if x is not None), default=None),
              DoubleType()),
}


# ---------------------------------------------------------------------------
# arithmetic / logic helpers (three-valued)
# ---------------------------------------------------------------------------


def _arith(op, left, right):
    if left is None or right is None:
        return None
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise ExecutionError("division by zero")
            result = left / right
            return result
        if op == "%":
            if right == 0:
                raise ExecutionError("division by zero")
            return left % right
    except TypeError as exc:
        raise TypeError_(f"bad operands for {op}: {left!r}, {right!r}") from exc
    raise ExecutionError(f"unknown operator {op}")


def _and(left, right):
    # three-valued AND
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _or(left, right):
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


_COMPARE_OPS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


def compile_expr(expr: ast.Expr, layout: RowLayout):
    """Compile ``expr`` against ``layout``; returns ``f(row, ctx)``."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, ctx: value

    if isinstance(expr, ast.ColumnRef):
        index, _type = layout.resolve(expr.table, expr.name)
        return lambda row, ctx: row[index]

    if isinstance(expr, ast.Parameter):
        position = expr.index

        def parameter(row, ctx):
            params = (ctx or {}).get("params")
            if params is None or position >= len(params):
                raise ExecutionError(
                    f"statement needs at least {position + 1} parameter(s)"
                )
            return params[position]
        return parameter

    if isinstance(expr, ast.Star):
        raise BindError("'*' is not valid in this context")

    if isinstance(expr, ast.BinaryOp):
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)
        op = expr.op
        if op == "AND":
            return lambda row, ctx: _and(left(row, ctx), right(row, ctx))
        if op == "OR":
            return lambda row, ctx: _or(left(row, ctx), right(row, ctx))
        if op in _COMPARE_OPS:
            test = _COMPARE_OPS[op]

            def compare(row, ctx, left=left, right=right, test=test):
                c = sql_compare(left(row, ctx), right(row, ctx))
                if c is None:
                    return None
                return test(c)
            return compare
        if op == "||":
            def concat(row, ctx, left=left, right=right):
                lhs, rhs = left(row, ctx), right(row, ctx)
                if lhs is None or rhs is None:
                    return None
                return str(lhs) + str(rhs)
            return concat
        return lambda row, ctx: _arith(op, left(row, ctx), right(row, ctx))

    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand, layout)
        if expr.op == "NOT":
            def negate(row, ctx):
                value = operand(row, ctx)
                if value is None:
                    return None
                return not value
            return negate
        if expr.op == "-":
            def minus(row, ctx):
                value = operand(row, ctx)
                return None if value is None else -value
            return minus
        return operand

    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand, layout)
        if expr.negated:
            return lambda row, ctx: operand(row, ctx) is not None
        return lambda row, ctx: operand(row, ctx) is None

    if isinstance(expr, ast.Like):
        operand = compile_expr(expr.operand, layout)
        pattern = compile_expr(expr.pattern, layout)
        ci = expr.case_insensitive
        negated = expr.negated

        def like(row, ctx):
            result = sql_like(operand(row, ctx), pattern(row, ctx), ci)
            if result is None:
                return None
            return not result if negated else result
        return like

    if isinstance(expr, ast.InList):
        operand = compile_expr(expr.operand, layout)
        items = [compile_expr(item, layout) for item in expr.items]
        negated = expr.negated

        def contains(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row, ctx)
                if candidate is None:
                    saw_null = True
                    continue
                c = sql_compare(value, candidate)
                if c == 0:
                    return False if negated else True
            if saw_null:
                return None
            return True if negated else False
        return contains

    if isinstance(expr, ast.Between):
        operand = compile_expr(expr.operand, layout)
        low = compile_expr(expr.low, layout)
        high = compile_expr(expr.high, layout)
        negated = expr.negated

        def between(row, ctx):
            value = operand(row, ctx)
            lo_cmp = sql_compare(value, low(row, ctx))
            hi_cmp = sql_compare(value, high(row, ctx))
            if lo_cmp is None or hi_cmp is None:
                return None
            inside = lo_cmp >= 0 and hi_cmp <= 0
            return not inside if negated else inside
        return between

    if isinstance(expr, ast.Cast):
        operand = compile_expr(expr.operand, layout)
        target = type_from_name(expr.type_name, expr.length)
        return lambda row, ctx: target.coerce(operand(row, ctx))

    if isinstance(expr, ast.CaseExpr):
        return _compile_case(expr, layout)

    if isinstance(expr, ast.FunctionCall):
        return _compile_function(expr, layout)

    if isinstance(expr, PlannedSubquery):
        return _compile_subquery(expr, layout)

    if isinstance(expr, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
        raise BindError(
            "subquery reached the compiler unplanned; subqueries are only "
            "supported where the planner binds them (WHERE/SELECT/HAVING)"
        )

    raise BindError(f"cannot compile expression {expr!r}")


def _compile_subquery(expr: PlannedSubquery, layout: RowLayout):
    if expr.kind == "exists":
        negated = expr.negated

        def exists(row, ctx):
            found = bool(_subquery_rows(expr, ctx))
            return not found if negated else found
        return exists

    if expr.kind == "scalar":
        def scalar(row, ctx):
            rows = _subquery_rows(expr, ctx)
            if not rows:
                return None
            if len(rows) > 1:
                raise ExecutionError(
                    "scalar subquery produced more than one row")
            return rows[0][0]
        return scalar

    # kind == 'in'
    operand = compile_expr(expr.operand, layout)
    negated = expr.negated

    def in_subquery(row, ctx, operand=operand):
        value = operand(row, ctx)
        if value is None:
            return None
        rows = _subquery_rows(expr, ctx)
        saw_null = False
        for candidate_row in rows:
            candidate = candidate_row[0]
            if candidate is None:
                saw_null = True
                continue
            if sql_compare(value, candidate) == 0:
                return False if negated else True
        if saw_null:
            return None
        return True if negated else False
    return in_subquery


def _compile_case(expr: ast.CaseExpr, layout: RowLayout):
    branches = [
        (compile_expr(when, layout), compile_expr(then, layout))
        for when, then in expr.branches
    ]
    default = compile_expr(expr.default, layout) if expr.default else None
    if expr.operand is not None:
        operand = compile_expr(expr.operand, layout)

        def simple_case(row, ctx):
            subject = operand(row, ctx)
            for when, then in branches:
                if sql_compare(subject, when(row, ctx)) == 0:
                    return then(row, ctx)
            return default(row, ctx) if default else None
        return simple_case

    def searched_case(row, ctx):
        for when, then in branches:
            if when(row, ctx) is True:
                return then(row, ctx)
        return default(row, ctx) if default else None
    return searched_case


def _compile_function(expr: ast.FunctionCall, layout: RowLayout):
    name = expr.name
    if name in CONTEXT_FUNCTIONS:
        def from_context(row, ctx, name=name):
            if ctx is None or name not in ctx:
                raise ExecutionError(
                    f"{name}(*) is only valid in a continuous query"
                )
            return ctx[name]
        return from_context

    if name == "coalesce":
        args = [compile_expr(a, layout) for a in expr.args]

        def coalesce(row, ctx):
            for arg in args:
                value = arg(row, ctx)
                if value is not None:
                    return value
            return None
        return coalesce

    if name == "nullif":
        if len(expr.args) != 2:
            raise BindError("nullif takes exactly 2 arguments")
        first = compile_expr(expr.args[0], layout)
        second = compile_expr(expr.args[1], layout)

        def nullif(row, ctx):
            a = first(row, ctx)
            if sql_compare(a, second(row, ctx)) == 0:
                return None
            return a
        return nullif

    entry = SCALAR_FUNCTIONS.get(name)
    if entry is None:
        raise BindError(f"unknown function {name!r}")
    fn, _result_type = entry
    args = [compile_expr(a, layout) for a in expr.args]
    return lambda row, ctx: fn(*[a(row, ctx) for a in args])


# ---------------------------------------------------------------------------
# type inference (best-effort; used to name/type derived schemas)
# ---------------------------------------------------------------------------


def infer_type(expr: ast.Expr, layout: RowLayout) -> DataType:
    """Best-effort static type of ``expr`` (defaults to double/text)."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, bool):
            return BooleanType()
        if isinstance(value, int):
            return IntegerType("bigint")
        if isinstance(value, float):
            return DoubleType()
        if isinstance(value, str):
            return VarcharType(None, "text")
        return VarcharType(None, "text")
    if isinstance(expr, ast.ColumnRef):
        _index, datatype = layout.resolve(expr.table, expr.name)
        return datatype
    if isinstance(expr, ast.Cast):
        return type_from_name(expr.type_name, expr.length)
    if isinstance(expr, (ast.IsNull, ast.Like, ast.InList, ast.Between)):
        return BooleanType()
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return BooleanType()
        return infer_type(expr.operand, layout)
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR") or expr.op in _COMPARE_OPS:
            return BooleanType()
        if expr.op == "||":
            return VarcharType(None, "text")
        left = infer_type(expr.left, layout)
        right = infer_type(expr.right, layout)
        if isinstance(left, TimestampType) or isinstance(right, TimestampType):
            if isinstance(left, TimestampType) and isinstance(right, TimestampType):
                return IntervalType()
            return TimestampType()
        if isinstance(left, IntegerType) and isinstance(right, IntegerType) \
                and expr.op != "/":
            return IntegerType("bigint")
        return DoubleType()
    if isinstance(expr, ast.CaseExpr):
        for _when, then in expr.branches:
            return infer_type(then, layout)
        return VarcharType(None, "text")
    if isinstance(expr, PlannedSubquery):
        if expr.kind in ("exists", "in"):
            return BooleanType()
        return expr.result_type or VarcharType(None, "text")
    if isinstance(expr, (ast.InSubquery, ast.Exists)):
        return BooleanType()
    if isinstance(expr, ast.FunctionCall):
        if expr.name in CONTEXT_FUNCTIONS:
            return TimestampType()
        if expr.name == "coalesce" and expr.args:
            return infer_type(expr.args[0], layout)
        if expr.name == "nullif" and expr.args:
            return infer_type(expr.args[0], layout)
        entry = SCALAR_FUNCTIONS.get(expr.name)
        if entry is not None:
            return entry[1]
    return VarcharType(None, "text")


def default_name(expr: ast.Expr) -> str:
    """Column name SQL would assign to an unaliased select item."""
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        return expr.name
    if isinstance(expr, ast.Cast):
        return default_name(expr.operand)
    if isinstance(expr, ast.CaseExpr):
        return "case"
    return "?column?"
