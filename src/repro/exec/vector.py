"""Batch expression compiler: AST -> numpy kernels.

Mirrors :mod:`repro.exec.expressions` exactly, but over
:class:`~repro.exec.columnar.ColumnBatch` lanes instead of single rows.
A compiled kernel is ``f(batch, ctx) -> (values, mask)`` where ``values``
is a numpy array of the expression result per lane and ``mask`` is
``None`` (no NULLs) or a boolean array with ``True`` marking NULL lanes.
Masked lanes of ``values`` hold unspecified fill and must not be read.

The compiler is deliberately partial: anything whose numpy translation
could *diverge* from the iterator semantics (LIKE, CASE, casts, string
functions, subqueries, cross-type-family comparisons, `sqrt`/`ln` domain
errors, ...) raises :class:`NotVectorizable`, and the planner keeps the
iterator operator for that part of the plan.  SQL three-valued logic
(Kleene AND/OR, the non-Kleene BETWEEN, IN with NULL items) is
reproduced bit-for-bit; see tests/test_vectorized_parity.py.
"""
from __future__ import annotations

from typing import Optional

from repro.errors import ExecutionError
from repro.exec.columnar import ColumnBatch, np
from repro.exec.expressions import CONTEXT_FUNCTIONS, RowLayout, infer_type
from repro.sql import ast
from repro.types.datatypes import (
    BooleanType,
    DoubleType,
    IntegerType,
    IntervalType,
    TimestampType,
    VarcharType,
)


class NotVectorizable(Exception):
    """The expression has no numpy kernel; use the iterator compiler."""


_NUMERIC_TYPES = (IntegerType, DoubleType, TimestampType, IntervalType)


def _family(expr: ast.Expr, layout: RowLayout) -> Optional[str]:
    """Coarse type family used to gate comparisons/arithmetic.

    ``sql_compare`` raises across string/number and bool/string, so the
    vectorized path only compares within one family; anything uncertain
    returns None and the expression falls back to the iterator.
    """
    datatype = infer_type(expr, layout)
    if isinstance(datatype, _NUMERIC_TYPES):
        return "num"
    if isinstance(datatype, BooleanType):
        return "bool"
    if isinstance(datatype, VarcharType):
        # infer_type defaults unknown expressions to text; only trust a
        # string family when the expression provably produces strings
        if isinstance(expr, ast.ColumnRef):
            return "str"
        if isinstance(expr, ast.Literal) and isinstance(expr.value, str):
            return "str"
        return None
    return None


#: public name used by the plan-conversion pass
def expr_family(expr: ast.Expr, layout: RowLayout) -> Optional[str]:
    return _family(expr, layout)


def _comparable(left_family: Optional[str], right_family: Optional[str]) -> bool:
    if left_family is None or right_family is None:
        return False
    if "str" in (left_family, right_family):
        return left_family == right_family
    # bool-vs-number compares as floats, same as sql_compare
    return True


def _union(ma, mb):
    if ma is None:
        return mb
    if mb is None:
        return ma
    return ma | mb


def _masked_out(n, part_dtype):
    return np.zeros(n, dtype=part_dtype)


def compile_batch_expr(expr: ast.Expr, layout: RowLayout, flags: dict):
    """Compile ``expr`` to a batch kernel or raise NotVectorizable.

    ``flags`` collects compile-time facts about the kernel tree; the
    slicing eligibility check reads ``flags['context']`` (True when the
    expression reads ``cq_close``/``cq_open``, which vary per window and
    therefore must not be evaluated per slice).
    """
    if isinstance(expr, ast.Literal):
        return _literal_kernel(expr.value)

    if isinstance(expr, ast.ColumnRef):
        index, _type = layout.resolve(expr.table, expr.name)

        def column(batch: ColumnBatch, ctx):
            return batch.columns[index], batch.masks[index]
        return column

    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        if op in ("AND", "OR"):
            return _logic_kernel(expr, layout, flags)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _compare_kernel(expr, layout, flags)
        if op in ("+", "-", "*", "/", "%"):
            return _arith_kernel(expr, layout, flags)
        raise NotVectorizable(op)

    if isinstance(expr, ast.UnaryOp):
        return _unary_kernel(expr, layout, flags)

    if isinstance(expr, ast.IsNull):
        operand = compile_batch_expr(expr.operand, layout, flags)
        negated = expr.negated

        def isnull(batch: ColumnBatch, ctx):
            _values, mask = operand(batch, ctx)
            if mask is None:
                out = np.zeros(batch.length, dtype=bool)
            else:
                out = mask.copy()
            if negated:
                out = ~out
            return out, None
        return isnull

    if isinstance(expr, ast.Between):
        return _between_kernel(expr, layout, flags)

    if isinstance(expr, ast.InList):
        return _in_list_kernel(expr, layout, flags)

    if isinstance(expr, ast.FunctionCall):
        return _function_kernel(expr, layout, flags)

    raise NotVectorizable(type(expr).__name__)


def _literal_kernel(value):
    if value is None:
        def null_literal(batch: ColumnBatch, ctx):
            n = batch.length
            return np.zeros(n, dtype=object), np.ones(n, dtype=bool)
        return null_literal
    if isinstance(value, bool):
        dtype = np.bool_
    elif isinstance(value, int):
        dtype = np.int64 if -(2 ** 63) <= value < 2 ** 63 else object
    elif isinstance(value, float):
        dtype = np.float64
    elif isinstance(value, str):
        dtype = object
    else:
        raise NotVectorizable(f"literal {value!r}")

    def literal(batch: ColumnBatch, ctx):
        return np.full(batch.length, value, dtype=dtype), None
    return literal


def _logic_kernel(expr: ast.BinaryOp, layout, flags):
    # the iterator's _and/_or treat any non-False, non-None value as
    # true; bitwise & / | only match that for genuinely boolean operands
    if _family(expr.left, layout) != "bool" or \
            _family(expr.right, layout) != "bool":
        raise NotVectorizable(f"{expr.op} over non-boolean operands")
    left = compile_batch_expr(expr.left, layout, flags)
    right = compile_batch_expr(expr.right, layout, flags)
    is_and = expr.op == "AND"

    def logic(batch: ColumnBatch, ctx):
        a, ma = left(batch, ctx)
        b, mb = right(batch, ctx)
        if ma is None and mb is None:
            return (a & b) if is_and else (a | b), None
        a_true = a if ma is None else (a & ~ma)
        a_false = ~a if ma is None else (~a & ~ma)
        b_true = b if mb is None else (b & ~mb)
        b_false = ~b if mb is None else (~b & ~mb)
        if is_and:
            out_true = a_true & b_true
            out_false = a_false | b_false
        else:
            out_true = a_true | b_true
            out_false = a_false & b_false
        mask = ~(out_true | out_false)
        return out_true, (mask if mask.any() else None)
    return logic


def _lanewise_compare(op, a, b, valid, n):
    """Elementwise comparison restricted to valid lanes.

    Restriction matters for object columns, where a masked lane holds
    ``None`` and ordering against it would raise.
    """
    if valid is None:
        av, bv = a, b
    else:
        av, bv = a[valid], b[valid]
    if op == "=":
        part = av == bv
    elif op == "<>":
        part = av != bv
    elif op == "<":
        part = av < bv
    elif op == "<=":
        part = av <= bv
    elif op == ">":
        part = av > bv
    else:
        part = av >= bv
    part = np.asarray(part, dtype=bool)
    if valid is None:
        return part
    out = np.zeros(n, dtype=bool)
    out[valid] = part
    return out


def _compare_kernel(expr: ast.BinaryOp, layout, flags):
    if not _comparable(_family(expr.left, layout), _family(expr.right, layout)):
        raise NotVectorizable(f"compare {expr.op} across type families")
    left = compile_batch_expr(expr.left, layout, flags)
    right = compile_batch_expr(expr.right, layout, flags)
    op = expr.op

    def compare(batch: ColumnBatch, ctx):
        a, ma = left(batch, ctx)
        b, mb = right(batch, ctx)
        mask = _union(ma, mb)
        valid = None if mask is None else ~mask
        out = _lanewise_compare(op, a, b, valid, batch.length)
        return out, mask
    return compare


def _arith_kernel(expr: ast.BinaryOp, layout, flags):
    lf, rf = _family(expr.left, layout), _family(expr.right, layout)
    if lf != "num" or rf != "num":
        raise NotVectorizable(f"arithmetic {expr.op} on non-numeric operands")
    left = compile_batch_expr(expr.left, layout, flags)
    right = compile_batch_expr(expr.right, layout, flags)
    op = expr.op

    def arith(batch: ColumnBatch, ctx):
        a, ma = left(batch, ctx)
        b, mb = right(batch, ctx)
        mask = _union(ma, mb)
        n = batch.length
        if mask is None:
            av, bv = a, b
        else:
            valid = ~mask
            av, bv = a[valid], b[valid]
        if op == "+":
            part = av + bv
        elif op == "-":
            part = av - bv
        elif op == "*":
            part = av * bv
        elif op == "/":
            if bv.size and np.any(bv == 0):
                raise ExecutionError("division by zero")
            part = np.true_divide(av, bv)
        else:  # "%"
            if bv.size and np.any(bv == 0):
                raise ExecutionError("division by zero")
            part = np.mod(av, bv)
        if mask is None:
            return part, None
        out = _masked_out(n, part.dtype)
        out[valid] = part
        return out, mask
    return arith


def _unary_kernel(expr: ast.UnaryOp, layout, flags):
    if expr.op == "NOT":
        if _family(expr.operand, layout) != "bool":
            raise NotVectorizable("NOT over non-boolean")
        operand = compile_batch_expr(expr.operand, layout, flags)

        def negate(batch: ColumnBatch, ctx):
            values, mask = operand(batch, ctx)
            return ~values, mask
        return negate
    if expr.op == "-":
        datatype = infer_type(expr.operand, layout)
        if not isinstance(datatype, _NUMERIC_TYPES):
            raise NotVectorizable("unary minus over non-numeric")
        operand = compile_batch_expr(expr.operand, layout, flags)

        def minus(batch: ColumnBatch, ctx):
            values, mask = operand(batch, ctx)
            return -values, mask
        return minus
    # unary '+' compiles to the bare operand in the iterator too
    return compile_batch_expr(expr.operand, layout, flags)


def _between_kernel(expr: ast.Between, layout, flags):
    vf = _family(expr.operand, layout)
    lof = _family(expr.low, layout)
    hif = _family(expr.high, layout)
    if not (_comparable(vf, lof) and _comparable(vf, hif)):
        raise NotVectorizable("BETWEEN across type families")
    operand = compile_batch_expr(expr.operand, layout, flags)
    low = compile_batch_expr(expr.low, layout, flags)
    high = compile_batch_expr(expr.high, layout, flags)
    negated = expr.negated

    def between(batch: ColumnBatch, ctx):
        v, mv = operand(batch, ctx)
        lo, mlo = low(batch, ctx)
        hi, mhi = high(batch, ctx)
        # NOT Kleene: any NULL among the three operands nulls the result
        # (mirrors the iterator's sql_compare(value, low/high) is None)
        mask = _union(_union(mv, mlo), mhi)
        valid = None if mask is None else ~mask
        n = batch.length
        lo_ok = _lanewise_compare(">=", v, lo, valid, n)
        hi_ok = _lanewise_compare("<=", v, hi, valid, n)
        inside = lo_ok & hi_ok
        if negated:
            inside = ~inside if valid is None else (~inside & valid)
        return inside, mask
    return between


def _in_list_kernel(expr: ast.InList, layout, flags):
    vf = _family(expr.operand, layout)
    for item in expr.items:
        if not _comparable(vf, _family(item, layout)):
            raise NotVectorizable("IN across type families")
    operand = compile_batch_expr(expr.operand, layout, flags)
    items = [compile_batch_expr(item, layout, flags) for item in expr.items]
    negated = expr.negated

    def contains(batch: ColumnBatch, ctx):
        n = batch.length
        v, mv = operand(batch, ctx)
        match = np.zeros(n, dtype=bool)
        saw_null = np.zeros(n, dtype=bool)
        for item in items:
            cand, mc = item(batch, ctx)
            if mc is not None:
                saw_null |= mc
            both = _union(mv, mc)
            valid = None if both is None else ~both
            match |= _lanewise_compare("=", v, cand, valid, n)
        # a NULL operand is NULL; a non-match with a NULL item is NULL
        mask = saw_null & ~match
        if mv is not None:
            mask = mask | mv
        out = ~match if negated else match
        if mask.any():
            out = out & ~mask
            return out, mask
        return out, None
    return contains


# round() digits must be a literal so the kernel has one shift per batch
def _round_digits(expr: ast.FunctionCall):
    if len(expr.args) == 1:
        return 0
    if len(expr.args) == 2 and isinstance(expr.args[1], ast.Literal) \
            and isinstance(expr.args[1].value, int):
        return expr.args[1].value
    raise NotVectorizable("round with non-literal digits")


def _function_kernel(expr: ast.FunctionCall, layout, flags):
    name = expr.name
    if name in CONTEXT_FUNCTIONS:
        flags["context"] = True

        def from_context(batch: ColumnBatch, ctx, name=name):
            if ctx is None or name not in ctx:
                raise ExecutionError(
                    f"{name}(*) is only valid in a continuous query"
                )
            return np.full(batch.length, ctx[name], dtype=np.float64), None
        return from_context

    if name == "coalesce":
        if not expr.args:
            raise NotVectorizable("coalesce()")
        from repro.exec.columnar import dtype_for
        dtypes = {dtype_for(infer_type(a, layout)) for a in expr.args}
        if len(dtypes) != 1:
            # mixed-dtype coalesce would promote lanes the iterator
            # returns untouched (e.g. int lanes to float)
            raise NotVectorizable("coalesce across dtypes")
        args = [compile_batch_expr(a, layout, flags) for a in expr.args]

        def coalesce(batch: ColumnBatch, ctx):
            out = None
            omask = None
            for arg in args:
                values, mask = arg(batch, ctx)
                if out is None:
                    out = values.copy()
                    omask = None if mask is None else mask.copy()
                else:
                    need = omask
                    if mask is None:
                        out[need] = values[need]
                        omask = None
                    else:
                        take = need & ~mask
                        out[take] = values[take]
                        omask = need & mask
                if omask is None or not omask.any():
                    return out, None
            return out, omask
        return coalesce

    if name in ("abs", "floor", "ceil", "ceiling", "round"):
        if len(expr.args) < 1 or \
                not isinstance(infer_type(expr.args[0], layout),
                               _NUMERIC_TYPES):
            raise NotVectorizable(f"{name} over non-numeric")
        if name == "round":
            digits = _round_digits(expr)
        elif len(expr.args) != 1:
            raise NotVectorizable(f"{name} arity")
        arg = compile_batch_expr(expr.args[0], layout, flags)

        if name == "abs":
            def kernel(batch: ColumnBatch, ctx):
                values, mask = arg(batch, ctx)
                return np.abs(values), mask
        elif name == "round":
            def kernel(batch: ColumnBatch, ctx):
                values, mask = arg(batch, ctx)
                # the iterator's round() always returns float
                return np.round(values.astype(np.float64), digits), mask
        elif name == "floor":
            def kernel(batch: ColumnBatch, ctx):
                values, mask = arg(batch, ctx)
                # math.floor returns int; match it
                return np.floor(values).astype(np.int64), mask
        else:  # ceil / ceiling
            def kernel(batch: ColumnBatch, ctx):
                values, mask = arg(batch, ctx)
                return np.ceil(values).astype(np.int64), mask
        return kernel

    raise NotVectorizable(f"function {name}")
