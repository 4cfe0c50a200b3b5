"""Abstract syntax tree for TruSQL statements and expressions.

All nodes are plain dataclasses; the planner walks them.  Expression
nodes live alongside statement nodes because the dialect is small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class Node:
    """Base class for AST nodes (statements and expressions)."""


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for expression nodes."""


@dataclass
class Literal(Expr):
    """A constant: number, string, boolean, or NULL."""

    value: object

    def __repr__(self):
        return f"Literal({self.value!r})"


@dataclass
class ColumnRef(Expr):
    """A possibly-qualified column reference (``t.col`` or ``col``)."""

    name: str
    table: Optional[str] = None

    def __repr__(self):
        if self.table:
            return f"ColumnRef({self.table}.{self.name})"
        return f"ColumnRef({self.name})"


@dataclass
class Star(Expr):
    """``*`` or ``t.*`` in a select list or ``count(*)``."""

    table: Optional[str] = None


@dataclass
class Parameter(Expr):
    """A ``?`` placeholder, bound positionally at execution time."""

    index: int


@dataclass
class BinaryOp(Expr):
    """Arithmetic/comparison/logical binary operator."""

    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    """``NOT x``, ``-x``, ``+x``."""

    op: str
    operand: Expr


@dataclass
class IsNull(Expr):
    """``x IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False


@dataclass
class Like(Expr):
    """``x [NOT] LIKE/ILIKE pattern``."""

    operand: Expr
    pattern: Expr
    negated: bool = False
    case_insensitive: bool = False


@dataclass
class InList(Expr):
    """``x [NOT] IN (v1, v2, ...)``."""

    operand: Expr
    items: List[Expr] = field(default_factory=list)
    negated: bool = False


@dataclass
class Between(Expr):
    """``x [NOT] BETWEEN lo AND hi``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class Cast(Expr):
    """``expr::type`` or ``CAST(expr AS type)``."""

    operand: Expr
    type_name: str
    length: Optional[int] = None


@dataclass
class FunctionCall(Expr):
    """A function or aggregate call; ``count(*)`` has a single Star arg."""

    name: str
    args: List[Expr] = field(default_factory=list)
    distinct: bool = False


@dataclass
class CaseExpr(Expr):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    operand: Optional[Expr]
    branches: List[Tuple[Expr, Expr]] = field(default_factory=list)
    default: Optional[Expr] = None


@dataclass
class InSubquery(Expr):
    """``x [NOT] IN (SELECT ...)`` — uncorrelated."""

    operand: Expr
    query: "Select"
    negated: bool = False


@dataclass
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)`` — uncorrelated."""

    query: "Select"
    negated: bool = False


@dataclass
class ScalarSubquery(Expr):
    """``(SELECT ...)`` used as a value — uncorrelated, must be 1x1."""

    query: "Select"


# ---------------------------------------------------------------------------
# FROM clause items and window specifications
# ---------------------------------------------------------------------------


@dataclass
class WindowClause(Node):
    """A TruSQL window clause attached to a stream reference.

    Exactly one of the three shapes is populated:

    - time window:  ``visible``/``advance`` in seconds,
    - row window:   ``visible_rows``/``advance_rows`` counts,
    - window-count: ``slices_windows`` (Example 5: ``<slices 1 windows>``).
    """

    visible: Optional[float] = None
    advance: Optional[float] = None
    visible_rows: Optional[int] = None
    advance_rows: Optional[int] = None
    slices_windows: Optional[int] = None

    def is_row_based(self) -> bool:
        return self.visible_rows is not None

    def is_window_count(self) -> bool:
        return self.slices_windows is not None


@dataclass
class TableRef(Node):
    """A named table or stream in FROM, with optional window and alias."""

    name: str
    alias: Optional[str] = None
    window: Optional[WindowClause] = None


@dataclass
class SubqueryRef(Node):
    """A derived table ``(SELECT ...) AS alias`` in FROM."""

    query: "Select"
    alias: str
    window: Optional[WindowClause] = None


@dataclass
class Join(Node):
    """A binary join in FROM; ``kind`` is INNER/LEFT/CROSS."""

    kind: str
    left: Node
    right: Node
    condition: Optional[Expr] = None


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


class Statement(Node):
    """Base class for executable statements."""


@dataclass
class SelectItem(Node):
    """One projection in the select list."""

    expr: Expr
    alias: Optional[str] = None


@dataclass
class OrderItem(Node):
    """One ORDER BY key."""

    expr: Expr
    descending: bool = False


@dataclass
class EmitClause(Node):
    """Event-time emission control on a continuous SELECT.

    ``EMIT ON WATERMARK`` (final results when the watermark passes the
    boundary), ``EMIT ON CHANGE`` (speculative early output on every
    change), or ``EMIT EVERY '<dur>'`` (periodic early output), each
    optionally followed by ``ALLOW LATENESS '<dur>'
    DROP | DEAD LETTER | RETRACT``.
    """

    mode: str                           # 'watermark' | 'change' | 'every'
    every: Optional[float] = None       # seconds, for EMIT EVERY
    lateness: Optional[float] = None    # ALLOW LATENESS bound, seconds
    late_policy: Optional[str] = None   # 'drop' | 'dead_letter' | 'retract'


@dataclass
class Select(Statement):
    """A SELECT statement (snapshot or continuous, decided at bind time)."""

    items: List[SelectItem] = field(default_factory=list)
    from_clause: Optional[Node] = None
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    emit: Optional[EmitClause] = None


@dataclass
class SetOp(Statement):
    """``left UNION [ALL] / EXCEPT / INTERSECT right``.

    ORDER BY / LIMIT / OFFSET written after the compound apply to the
    whole result and live here, not on the branches.
    """

    op: str                      # 'union' | 'except' | 'intersect'
    all: bool
    left: Statement              # Select or nested SetOp
    right: Statement
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None


@dataclass
class ColumnDef(Node):
    """A column in CREATE TABLE / CREATE STREAM."""

    name: str
    type_name: str
    length: Optional[int] = None
    not_null: bool = False
    primary_key: bool = False
    cqtime: Optional[str] = None  # 'user' | 'system' (streams only)


@dataclass
class CreateTable(Statement):
    columns: List[ColumnDef]
    name: str
    if_not_exists: bool = False


@dataclass
class CreateTableAs(Statement):
    """``CREATE TABLE name AS SELECT ...`` (schema inferred, rows copied)."""

    name: str
    query: Statement  # Select or SetOp
    if_not_exists: bool = False


@dataclass
class Explain(Statement):
    """``EXPLAIN [ANALYZE] <select | name>`` — the physical plan as text.

    ``query`` holds an inline statement; ``target`` names a running CQ,
    derived stream or channel instead.  With ``analyze`` the rendering
    carries live per-operator row counts and timings: accumulated since
    CQ start for a named target, measured by one instrumented execution
    for an inline snapshot query.
    """

    query: Optional[Statement] = None
    analyze: bool = False
    target: Optional[str] = None


@dataclass
class Analyze(Statement):
    """``ANALYZE [table]`` — collect planner statistics."""

    name: Optional[str] = None


@dataclass
class CreateStream(Statement):
    """``CREATE STREAM name (cols) [WATERMARK '<dur>'] [PARTITION BY col]``
    — a raw (base) stream; a watermark bound declares it event-time:
    rows may arrive out of order and windows assign/close by the CQTIME
    column's event time under a bounded-out-of-orderness watermark.  A
    partition key declares how a partitioned engine shards the stream's
    rows across workers (ignored by the single-process engine)."""

    columns: List[ColumnDef]
    name: str
    if_not_exists: bool = False
    watermark_bound: Optional[float] = None  # seconds
    partition_by: Optional[str] = None       # column name


@dataclass
class CreateDerivedStream(Statement):
    """``CREATE STREAM name AS SELECT ...`` — an always-on CQ (Example 3)."""

    name: str
    query: Select


@dataclass
class CreateView(Statement):
    """``CREATE VIEW name AS SELECT ...`` (streaming view if CQ inside)."""

    name: str
    query: Select


@dataclass
class CreateChannel(Statement):
    """``CREATE CHANNEL name FROM stream INTO table APPEND|REPLACE``."""

    name: str
    source: str
    target: str
    mode: str  # 'append' | 'replace'


@dataclass
class CreateIndex(Statement):
    name: str
    table: str
    columns: List[str]
    unique: bool = False


@dataclass
class Insert(Statement):
    table: str
    columns: Optional[List[str]] = None
    rows: Optional[List[List[Expr]]] = None
    query: Optional[Select] = None


@dataclass
class Update(Statement):
    table: str
    assignments: List[Tuple[str, Expr]] = field(default_factory=list)
    where: Optional[Expr] = None


@dataclass
class Delete(Statement):
    table: str
    where: Optional[Expr] = None


@dataclass
class Truncate(Statement):
    """``TRUNCATE [TABLE] name`` — delete all visible rows."""

    table: str


@dataclass
class Drop(Statement):
    kind: str  # 'table' | 'stream' | 'view' | 'channel' | 'index'
    name: str
    if_exists: bool = False


@dataclass
class Begin(Statement):
    pass


@dataclass
class Commit(Statement):
    pass


@dataclass
class Rollback(Statement):
    pass


@dataclass
class SetOption(Statement):
    """``SET name [=|TO] value`` — session option (supervision,
    fault injection, admission and supervisor policy knobs)."""

    name: str
    value: object


@dataclass
class ShowOption(Statement):
    """``SHOW name`` / ``SHOW ALL`` — read session option(s) back."""

    name: str  # lower-cased; 'all' lists everything


def walk_expr(expr):
    """Yield ``expr`` and all its sub-expressions, depth-first."""
    if expr is None:
        return
    yield expr
    if isinstance(expr, BinaryOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, IsNull):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Like):
        yield from walk_expr(expr.operand)
        yield from walk_expr(expr.pattern)
    elif isinstance(expr, InList):
        yield from walk_expr(expr.operand)
        for item in expr.items:
            yield from walk_expr(item)
    elif isinstance(expr, Between):
        yield from walk_expr(expr.operand)
        yield from walk_expr(expr.low)
        yield from walk_expr(expr.high)
    elif isinstance(expr, Cast):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, CaseExpr):
        if expr.operand is not None:
            yield from walk_expr(expr.operand)
        for when, then in expr.branches:
            yield from walk_expr(when)
            yield from walk_expr(then)
        if expr.default is not None:
            yield from walk_expr(expr.default)
    elif isinstance(expr, InSubquery):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, (Exists, ScalarSubquery)):
        # the inner query is a separate scope; don't descend into it
        pass
    else:
        # executor-defined nodes (e.g. PlannedSubquery) expose their
        # outer-scope operand, if any, via .operand
        operand = getattr(expr, "operand", None)
        if isinstance(operand, Expr):
            yield from walk_expr(operand)
