"""Recursive-descent parser for TruSQL.

The grammar is standard SQL plus the paper's extensions: ``CREATE STREAM``
(Example 1), window clauses on stream references in FROM (Example 2),
``CREATE STREAM ... AS`` derived streams (Example 3), and ``CREATE
CHANNEL`` (Example 4).  Window clauses use angle brackets; the parser
recognises them contextually right after a FROM item, so ``<`` elsewhere
remains the comparison operator.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import EOF, IDENT, NUMBER, OP, STRING, tokenize
from repro.types.temporal import parse_interval

#: words that terminate an expression when used as clause openers
_CLAUSE_KEYWORDS = {
    "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET",
    "UNION", "EXCEPT", "INTERSECT", "ON", "JOIN", "INNER", "LEFT",
    "RIGHT", "FULL", "CROSS", "AS", "ASC", "DESC", "AND", "OR", "NOT",
    "WHEN", "THEN", "ELSE", "END", "INTO", "VALUES", "SET", "EMIT",
}

_TYPE_WORDS = {
    "INT", "INTEGER", "INT4", "INT8", "BIGINT", "SMALLINT", "SERIAL",
    "FLOAT", "FLOAT8", "REAL", "DOUBLE", "NUMERIC", "DECIMAL", "TEXT",
    "VARCHAR", "CHAR", "CHARACTER", "TIMESTAMP", "TIMESTAMPTZ", "DATE",
    "INTERVAL", "BOOL", "BOOLEAN",
}

_WINDOW_OPENERS = {"VISIBLE", "ADVANCE", "SLICES"}


class Parser:
    """Parses one token stream into a list of statements."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.index = 0
        self.parameter_count = 0  # '?' placeholders seen so far

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0):
        i = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def _advance(self):
        token = self.tokens[self.index]
        if token.kind != EOF:
            self.index += 1
        return token

    def _check_op(self, text: str) -> bool:
        token = self._peek()
        return token.kind == OP and token.text == text

    def _check_word(self, *words: str) -> bool:
        token = self._peek()
        return token.kind == IDENT and token.upper in words

    def _accept_op(self, text: str) -> bool:
        if self._check_op(text):
            self._advance()
            return True
        return False

    def _accept_word(self, *words: str) -> bool:
        if self._check_word(*words):
            self._advance()
            return True
        return False

    def _expect_op(self, text: str):
        if not self._accept_op(text):
            self._fail(f"expected {text!r}")

    def _expect_word(self, word: str):
        if not self._accept_word(word):
            self._fail(f"expected keyword {word}")

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind != IDENT:
            self._fail("expected identifier")
        self._advance()
        return token.text

    def _fail(self, message: str):
        token = self._peek()
        where = f" near {token.text!r}" if token.kind != EOF else " at end of input"
        raise ParseError(f"{message}{where} (line {token.line})",
                         token.position, token.line)

    # -- entry points -------------------------------------------------------

    def parse_script(self):
        """Parse zero or more ``;``-separated statements."""
        statements = []
        while True:
            while self._accept_op(";"):
                pass
            if self._peek().kind == EOF:
                return statements
            statements.append(self._statement())

    def parse_statement(self):
        """Parse exactly one statement (trailing ``;`` allowed)."""
        statement = self._statement()
        self._accept_op(";")
        if self._peek().kind != EOF:
            self._fail("unexpected trailing input")
        return statement

    # -- statements ---------------------------------------------------------

    def _statement(self):
        token = self._peek()
        if token.kind != IDENT:
            self._fail("expected a statement")
        word = token.upper
        if word == "SELECT":
            return self._select()
        if word == "EXPLAIN":
            self._advance()
            return self._explain()
        if word == "ANALYZE":
            self._advance()
            name = None
            if self._peek().kind == IDENT:
                name = self._expect_ident()
            return ast.Analyze(name)
        if word == "CREATE":
            return self._create()
        if word == "INSERT":
            return self._insert()
        if word == "UPDATE":
            return self._update()
        if word == "DELETE":
            return self._delete()
        if word == "TRUNCATE":
            self._advance()
            self._accept_word("TABLE")
            return ast.Truncate(self._expect_ident())
        if word == "DROP":
            return self._drop()
        if word in ("BEGIN", "START"):
            self._advance()
            self._accept_word("TRANSACTION", "WORK")
            return ast.Begin()
        if word == "COMMIT":
            self._advance()
            self._accept_word("TRANSACTION", "WORK")
            return ast.Commit()
        if word in ("ROLLBACK", "ABORT"):
            self._advance()
            self._accept_word("TRANSACTION", "WORK")
            return ast.Rollback()
        if word == "SET":
            return self._set_option()
        if word == "SHOW":
            self._advance()
            return ast.ShowOption(self._expect_ident().lower())
        self._fail(f"unknown statement {token.text!r}")

    def _explain(self) -> ast.Explain:
        """``EXPLAIN`` already consumed: ``[ANALYZE] (<select> | name)``."""
        analyze = self._accept_word("ANALYZE")
        if self._check_word("SELECT"):
            return ast.Explain(query=self._select(), analyze=analyze)
        return ast.Explain(analyze=analyze, target=self._expect_ident())

    def _set_option(self) -> ast.SetOption:
        """``SET name [=|TO] value`` where value is a number, a string,
        ON/OFF/TRUE/FALSE, or a bare word (taken as a string)."""
        self._expect_word("SET")
        name = self._expect_ident().lower()
        if not self._accept_op("="):
            self._accept_word("TO")
        token = self._peek()
        if token.kind == NUMBER:
            self._advance()
            text = token.text
            value = float(text) if ("." in text or "e" in text.lower()) \
                else int(text)
        elif token.kind == STRING:
            self._advance()
            value = token.text
        elif token.kind == IDENT:
            self._advance()
            upper = token.upper
            if upper in ("ON", "TRUE"):
                value = True
            elif upper in ("OFF", "FALSE"):
                value = False
            else:
                value = token.text.lower()
        else:
            self._fail("expected a value for SET")
        return ast.SetOption(name, value)

    def _select(self):
        """A query expression: one SELECT or a chain of set operations,
        with trailing ORDER BY / LIMIT / OFFSET applying to the whole."""
        node = self._select_core()
        while self._check_word("UNION", "EXCEPT", "INTERSECT"):
            op = self._advance().upper.lower()
            all_rows = bool(self._accept_word("ALL"))
            right = self._select_core()
            node = ast.SetOp(op, all_rows, node, right)
        order_by, limit, offset = self._order_limit_offset()
        if order_by or limit is not None or offset is not None:
            node.order_by = order_by
            node.limit = limit
            node.offset = offset
        return node

    def _select_core(self) -> ast.Select:
        self._expect_word("SELECT")
        select = ast.Select()
        if self._accept_word("DISTINCT"):
            select.distinct = True
        else:
            self._accept_word("ALL")
        select.items = self._select_list()
        if self._accept_word("FROM"):
            select.from_clause = self._from_clause()
        if self._accept_word("WHERE"):
            select.where = self._expression()
        if self._accept_word("GROUP"):
            self._expect_word("BY")
            select.group_by.append(self._expression())
            while self._accept_op(","):
                select.group_by.append(self._expression())
        if self._accept_word("HAVING"):
            select.having = self._expression()
        if self._accept_word("EMIT"):
            select.emit = self._emit_clause()
        return select

    def _emit_clause(self) -> ast.EmitClause:
        """``EMIT (ON WATERMARK | ON CHANGE | EVERY '<dur>')
        [ALLOW LATENESS '<dur>' (DROP | DEAD LETTER | RETRACT)]``."""
        if self._accept_word("ON"):
            if self._accept_word("WATERMARK"):
                emit = ast.EmitClause("watermark")
            elif self._accept_word("CHANGE"):
                emit = ast.EmitClause("change")
            else:
                self._fail("expected WATERMARK or CHANGE after EMIT ON")
        elif self._accept_word("EVERY"):
            emit = ast.EmitClause("every", every=self._duration("EMIT EVERY"))
        else:
            self._fail("expected ON WATERMARK, ON CHANGE or EVERY "
                       "after EMIT")
        if self._accept_word("ALLOW"):
            self._expect_word("LATENESS")
            emit.lateness = self._duration("ALLOW LATENESS")
            if self._accept_word("DROP"):
                emit.late_policy = "drop"
            elif self._accept_word("DEAD"):
                self._expect_word("LETTER")
                emit.late_policy = "dead_letter"
            elif self._accept_word("RETRACT"):
                emit.late_policy = "retract"
            else:
                self._fail("expected DROP, DEAD LETTER or RETRACT "
                           "after ALLOW LATENESS")
        return emit

    def _duration(self, what: str) -> float:
        """An interval string (``'5 seconds'``) or a bare number of
        seconds."""
        token = self._peek()
        if token.kind == STRING:
            self._advance()
            return parse_interval(token.text)
        if token.kind == NUMBER:
            self._advance()
            return float(token.text)
        self._fail(f"expected a duration for {what}")

    def _order_limit_offset(self):
        order_by = []
        limit = offset = None
        if self._accept_word("ORDER"):
            self._expect_word("BY")
            order_by.append(self._order_item())
            while self._accept_op(","):
                order_by.append(self._order_item())
        if self._accept_word("LIMIT"):
            limit = self._int_literal()
        if self._accept_word("OFFSET"):
            offset = self._int_literal()
        return order_by, limit, offset

    def _int_literal(self) -> int:
        token = self._peek()
        if token.kind != NUMBER:
            self._fail("expected an integer")
        self._advance()
        try:
            return int(token.text)
        except ValueError:
            self._fail("expected an integer")

    def _order_item(self) -> ast.OrderItem:
        expr = self._expression()
        descending = False
        if self._accept_word("DESC"):
            descending = True
        else:
            self._accept_word("ASC")
        return ast.OrderItem(expr, descending)

    def _select_list(self):
        items = [self._select_item()]
        while self._accept_op(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> ast.SelectItem:
        if self._check_op("*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        expr = self._expression()
        alias = None
        if self._accept_word("AS"):
            alias = self._expect_ident()
        elif (self._peek().kind == IDENT
              and self._peek().upper not in _CLAUSE_KEYWORDS):
            alias = self._advance().text
        return ast.SelectItem(expr, alias)

    # -- FROM clause --------------------------------------------------------

    def _from_clause(self):
        node = self._join_tree()
        while self._accept_op(","):
            right = self._join_tree()
            node = ast.Join("CROSS", node, right, None)
        return node

    def _join_tree(self):
        node = self._from_item()
        while True:
            kind = None
            if self._check_word("JOIN"):
                kind = "INNER"
                self._advance()
            elif self._check_word("INNER") and self._peek(1).upper == "JOIN":
                kind = "INNER"
                self._advance()
                self._advance()
            elif self._check_word("LEFT"):
                kind = "LEFT"
                self._advance()
                self._accept_word("OUTER")
                self._expect_word("JOIN")
            elif self._check_word("CROSS") and self._peek(1).upper == "JOIN":
                kind = "CROSS"
                self._advance()
                self._advance()
            else:
                return node
            right = self._from_item()
            condition = None
            if kind != "CROSS":
                self._expect_word("ON")
                condition = self._expression()
            node = ast.Join(kind, node, right, condition)

    def _from_item(self):
        if self._check_op("("):
            self._advance()
            query = self._select()
            self._expect_op(")")
            window = self._maybe_window_clause()
            alias = None
            if self._accept_word("AS"):
                alias = self._expect_ident()
            elif self._peek().kind == IDENT and self._peek().upper not in _CLAUSE_KEYWORDS:
                alias = self._advance().text
            if alias is None:
                self._fail("subquery in FROM requires an alias")
            return ast.SubqueryRef(query, alias, window)

        name = self._expect_ident()
        window = self._maybe_window_clause()
        alias = None
        if self._accept_word("AS"):
            alias = self._expect_ident()
        elif (self._peek().kind == IDENT
              and self._peek().upper not in _CLAUSE_KEYWORDS):
            alias = self._advance().text
        # the paper also allows the window after the alias
        if window is None:
            window = self._maybe_window_clause()
        return ast.TableRef(name, alias, window)

    def _maybe_window_clause(self):
        if not self._check_op("<"):
            return None
        nxt = self._peek(1)
        if nxt.kind != IDENT or nxt.upper not in _WINDOW_OPENERS:
            return None
        self._advance()  # consume '<'
        window = ast.WindowClause()
        if self._accept_word("SLICES"):
            window.slices_windows = self._int_literal()
            self._expect_word("WINDOWS")
            self._expect_op(">")
            return window
        if self._accept_word("VISIBLE"):
            self._window_extent(window, visible=True)
        if self._accept_word("ADVANCE"):
            self._window_extent(window, visible=False)
        self._expect_op(">")
        self._validate_window(window)
        return window

    def _window_extent(self, window: ast.WindowClause, visible: bool):
        token = self._peek()
        if visible and token.kind == IDENT and token.upper == "UNBOUNDED":
            # cumulative window: everything since stream start
            self._advance()
            window.visible = float("inf")
            return
        if token.kind == STRING:
            self._advance()
            seconds = parse_interval(token.text)
            if visible:
                window.visible = seconds
            else:
                window.advance = seconds
            return
        if token.kind == NUMBER:
            self._advance()
            if self._accept_word("ROWS", "ROW"):
                count = int(float(token.text))
                if visible:
                    window.visible_rows = count
                else:
                    window.advance_rows = count
                return
            seconds = float(token.text)
            if visible:
                window.visible = seconds
            else:
                window.advance = seconds
            return
        self._fail("expected a window extent (interval string or row count)")

    def _validate_window(self, window: ast.WindowClause):
        time_based = window.visible is not None or window.advance is not None
        row_based = (window.visible_rows is not None
                     or window.advance_rows is not None)
        if time_based and row_based:
            self._fail("window mixes time and row extents")
        if not time_based and not row_based:
            self._fail("empty window clause")
        # a lone VISIBLE or ADVANCE means a tumbling window
        if time_based:
            if window.visible is None:
                window.visible = window.advance
            if window.advance is None:
                if window.visible == float("inf"):
                    self._fail("UNBOUNDED window requires an ADVANCE")
                window.advance = window.visible
        else:
            if window.visible_rows is None:
                window.visible_rows = window.advance_rows
            if window.advance_rows is None:
                window.advance_rows = window.visible_rows

    # -- CREATE -------------------------------------------------------------

    def _create(self):
        self._expect_word("CREATE")
        if self._accept_word("TABLE"):
            if_not_exists = self._if_not_exists()
            name = self._expect_ident()
            if self._accept_word("AS"):
                return ast.CreateTableAs(name, self._select(), if_not_exists)
            columns = self._column_defs()
            return ast.CreateTable(columns, name, if_not_exists)
        if self._accept_word("STREAM"):
            if_not_exists = self._if_not_exists()
            name = self._expect_ident()
            if self._accept_word("AS"):
                query = self._select()
                return ast.CreateDerivedStream(name, query)
            columns = self._column_defs()
            watermark_bound = None
            if self._accept_word("WATERMARK"):
                watermark_bound = self._duration("WATERMARK")
            partition_by = None
            if self._accept_word("PARTITION"):
                self._expect_word("BY")
                partition_by = self._expect_ident()
            return ast.CreateStream(columns, name, if_not_exists,
                                    watermark_bound=watermark_bound,
                                    partition_by=partition_by)
        if self._accept_word("VIEW"):
            name = self._expect_ident()
            self._expect_word("AS")
            return ast.CreateView(name, self._select())
        if self._accept_word("CHANNEL"):
            name = self._expect_ident()
            self._expect_word("FROM")
            source = self._expect_ident()
            self._expect_word("INTO")
            target = self._expect_ident()
            if self._accept_word("APPEND"):
                mode = "append"
            elif self._accept_word("REPLACE"):
                mode = "replace"
            else:
                mode = "append"
            return ast.CreateChannel(name, source, target, mode)
        unique = self._accept_word("UNIQUE")
        if self._accept_word("INDEX"):
            name = self._expect_ident()
            self._expect_word("ON")
            table = self._expect_ident()
            self._expect_op("(")
            columns = [self._expect_ident()]
            while self._accept_op(","):
                columns.append(self._expect_ident())
            self._expect_op(")")
            return ast.CreateIndex(name, table, columns, unique)
        self._fail("expected TABLE, STREAM, VIEW, CHANNEL or INDEX")

    def _if_not_exists(self) -> bool:
        if self._check_word("IF"):
            self._advance()
            self._expect_word("NOT")
            self._expect_word("EXISTS")
            return True
        return False

    def _column_defs(self):
        self._expect_op("(")
        columns = [self._column_def()]
        while self._accept_op(","):
            columns.append(self._column_def())
        self._expect_op(")")
        return columns

    def _column_def(self) -> ast.ColumnDef:
        name = self._expect_ident()
        type_name, length = self._type_name()
        column = ast.ColumnDef(name, type_name, length)
        while True:
            if self._check_word("NOT") and self._peek(1).upper == "NULL":
                self._advance()
                self._advance()
                column.not_null = True
            elif self._check_word("PRIMARY") and self._peek(1).upper == "KEY":
                self._advance()
                self._advance()
                column.primary_key = True
                column.not_null = True
            elif self._accept_word("CQTIME"):
                if self._accept_word("USER"):
                    column.cqtime = "user"
                elif self._accept_word("SYSTEM"):
                    column.cqtime = "system"
                else:
                    column.cqtime = "user"
            elif self._accept_word("NULL"):
                pass
            else:
                return column

    def _type_name(self):
        token = self._peek()
        if token.kind != IDENT or token.upper not in _TYPE_WORDS:
            self._fail("expected a type name")
        self._advance()
        name = token.text.lower()
        if token.upper == "DOUBLE" and self._accept_word("PRECISION"):
            name = "double precision"
        elif token.upper == "CHARACTER" and self._accept_word("VARYING"):
            name = "character varying"
        length = None
        if self._accept_op("("):
            length = self._int_literal()
            # numeric(10,2): scale is parsed and ignored (floats underneath)
            if self._accept_op(","):
                self._int_literal()
                length = None
            self._expect_op(")")
            if name in ("timestamp", "interval"):
                length = None
        return name, length

    # -- DML ----------------------------------------------------------------

    def _insert(self) -> ast.Insert:
        self._expect_word("INSERT")
        self._expect_word("INTO")
        table = self._expect_ident()
        columns = None
        if self._check_op("("):
            self._advance()
            columns = [self._expect_ident()]
            while self._accept_op(","):
                columns.append(self._expect_ident())
            self._expect_op(")")
        if self._accept_word("VALUES"):
            rows = [self._value_row()]
            while self._accept_op(","):
                rows.append(self._value_row())
            return ast.Insert(table, columns, rows=rows)
        if self._check_word("SELECT"):
            return ast.Insert(table, columns, query=self._select())
        self._fail("expected VALUES or SELECT")

    def _value_row(self):
        self._expect_op("(")
        row = [self._expression()]
        while self._accept_op(","):
            row.append(self._expression())
        self._expect_op(")")
        return row

    def _update(self) -> ast.Update:
        self._expect_word("UPDATE")
        table = self._expect_ident()
        self._expect_word("SET")
        assignments = [self._assignment()]
        while self._accept_op(","):
            assignments.append(self._assignment())
        where = None
        if self._accept_word("WHERE"):
            where = self._expression()
        return ast.Update(table, assignments, where)

    def _assignment(self):
        column = self._expect_ident()
        self._expect_op("=")
        return column, self._expression()

    def _delete(self) -> ast.Delete:
        self._expect_word("DELETE")
        self._expect_word("FROM")
        table = self._expect_ident()
        where = None
        if self._accept_word("WHERE"):
            where = self._expression()
        return ast.Delete(table, where)

    def _drop(self) -> ast.Drop:
        self._expect_word("DROP")
        for kind in ("TABLE", "STREAM", "VIEW", "CHANNEL", "INDEX"):
            if self._accept_word(kind):
                if_exists = False
                if self._check_word("IF"):
                    self._advance()
                    self._expect_word("EXISTS")
                    if_exists = True
                name = self._expect_ident()
                return ast.Drop(kind.lower(), name, if_exists)
        self._fail("expected TABLE, STREAM, VIEW, CHANNEL or INDEX")

    # -- expressions --------------------------------------------------------

    def _expression(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self._accept_word("OR"):
            left = ast.BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self._accept_word("AND"):
            left = ast.BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self):
        if self._accept_word("NOT"):
            return ast.UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        while True:
            token = self._peek()
            if token.kind == OP and token.text in ("=", "<>", "!=", "<", "<=", ">", ">="):
                self._advance()
                op = "<>" if token.text == "!=" else token.text
                left = ast.BinaryOp(op, left, self._additive())
                continue
            if self._check_word("IS"):
                self._advance()
                negated = self._accept_word("NOT")
                self._expect_word("NULL")
                left = ast.IsNull(left, negated)
                continue
            negated = False
            if (self._check_word("NOT")
                    and self._peek(1).upper in ("LIKE", "ILIKE", "IN", "BETWEEN")):
                self._advance()
                negated = True
            if self._accept_word("LIKE"):
                left = ast.Like(left, self._additive(), negated, False)
                continue
            if self._accept_word("ILIKE"):
                left = ast.Like(left, self._additive(), negated, True)
                continue
            if self._accept_word("IN"):
                self._expect_op("(")
                if self._check_word("SELECT"):
                    query = self._select()
                    self._expect_op(")")
                    left = ast.InSubquery(left, query, negated)
                    continue
                items = [self._expression()]
                while self._accept_op(","):
                    items.append(self._expression())
                self._expect_op(")")
                left = ast.InList(left, items, negated)
                continue
            if self._accept_word("BETWEEN"):
                low = self._additive()
                self._expect_word("AND")
                high = self._additive()
                left = ast.Between(left, low, high, negated)
                continue
            if negated:
                self._fail("dangling NOT")
            return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            if self._check_op("+") or self._check_op("-") or self._check_op("||"):
                op = self._advance().text
                left = ast.BinaryOp(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self):
        left = self._unary()
        while True:
            if self._check_op("*") or self._check_op("/") or self._check_op("%"):
                op = self._advance().text
                left = ast.BinaryOp(op, left, self._unary())
            else:
                return left

    def _unary(self):
        if self._check_op("-"):
            self._advance()
            return ast.UnaryOp("-", self._unary())
        if self._check_op("+"):
            self._advance()
            return self._unary()
        return self._postfix()

    def _postfix(self):
        expr = self._primary()
        while self._accept_op("::"):
            type_name, length = self._type_name()
            expr = ast.Cast(expr, type_name, length)
        return expr

    def _primary(self) -> ast.Expr:
        token = self._peek()

        if token.kind == NUMBER:
            self._advance()
            text = token.text
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if token.kind == STRING:
            self._advance()
            return ast.Literal(token.text)
        if self._check_op("?"):
            self._advance()
            parameter = ast.Parameter(self.parameter_count)
            self.parameter_count += 1
            return parameter
        if self._check_op("("):
            self._advance()
            if self._check_word("SELECT"):
                query = self._select()
                self._expect_op(")")
                return ast.ScalarSubquery(query)
            expr = self._expression()
            self._expect_op(")")
            return expr

        if token.kind != IDENT:
            self._fail("expected an expression")

        word = token.upper
        if word == "EXISTS" and self._peek(1).kind == OP \
                and self._peek(1).text == "(":
            self._advance()
            self._expect_op("(")
            query = self._select()
            self._expect_op(")")
            return ast.Exists(query)
        if word == "NULL":
            self._advance()
            return ast.Literal(None)
        if word == "TRUE":
            self._advance()
            return ast.Literal(True)
        if word == "FALSE":
            self._advance()
            return ast.Literal(False)
        if word == "CASE":
            return self._case_expr()
        if word == "CAST":
            self._advance()
            self._expect_op("(")
            operand = self._expression()
            self._expect_word("AS")
            type_name, length = self._type_name()
            self._expect_op(")")
            return ast.Cast(operand, type_name, length)
        if word == "INTERVAL" and self._peek(1).kind == STRING:
            self._advance()
            literal = self._advance()
            return ast.Cast(ast.Literal(literal.text), "interval")
        if word == "TIMESTAMP" and self._peek(1).kind == STRING:
            self._advance()
            literal = self._advance()
            return ast.Cast(ast.Literal(literal.text), "timestamp")

        # identifier: column ref, qualified ref, star-qualified, or call
        self._advance()
        name = token.text
        if self._check_op("("):
            return self._function_call(name)
        if self._check_op("."):
            self._advance()
            if self._check_op("*"):
                self._advance()
                return ast.Star(table=name)
            column = self._expect_ident()
            if self._check_op("("):
                self._fail("qualified function calls are not supported")
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)

    def _function_call(self, name: str) -> ast.FunctionCall:
        self._expect_op("(")
        distinct = False
        args = []
        if self._check_op("*"):
            self._advance()
            args.append(ast.Star())
        elif not self._check_op(")"):
            if self._accept_word("DISTINCT"):
                distinct = True
            args.append(self._expression())
            while self._accept_op(","):
                args.append(self._expression())
        self._expect_op(")")
        return ast.FunctionCall(name.lower(), args, distinct)

    def _case_expr(self) -> ast.CaseExpr:
        self._expect_word("CASE")
        operand = None
        if not self._check_word("WHEN"):
            operand = self._expression()
        branches = []
        while self._accept_word("WHEN"):
            when = self._expression()
            self._expect_word("THEN")
            then = self._expression()
            branches.append((when, then))
        if not branches:
            self._fail("CASE requires at least one WHEN branch")
        default = None
        if self._accept_word("ELSE"):
            default = self._expression()
        self._expect_word("END")
        return ast.CaseExpr(operand, branches, default)


def parse_statement(source: str):
    """Parse a single statement from ``source``."""
    return Parser(source).parse_statement()


def parse_script(source: str):
    """Parse a ``;``-separated script into a list of statements."""
    return Parser(source).parse_script()


def split_script(source: str):
    """The source text of each statement of a ``;``-separated script,
    for callers that hand statements on one at a time as text."""
    texts, start = [], None
    for token in tokenize(source):
        if token.kind == EOF or (token.kind == OP and token.text == ";"):
            if start is not None:
                texts.append(source[start:token.position])
            start = None
        elif start is None:
            start = token.position
    return texts
