"""Recursive-descent parser for the SQL dialect with the SGB extension.

Statements supported: ``CREATE TABLE``, ``DROP TABLE``, ``INSERT INTO …
VALUES``, and a substantial ``SELECT`` (joins, subqueries in FROM,
uncorrelated IN subqueries, GROUP BY / HAVING / ORDER BY / LIMIT).

Statements and clauses descend one method each; expressions do not.
:meth:`Parser._expr` is one precedence-climbing loop over the binary
operator table :data:`_PRECEDENCE` (OR < AND < prefix NOT < comparisons
and ``[NOT] IN / BETWEEN / LIKE``, ``IS [NOT] NULL`` < ``+ -`` < ``* / %``
< unary minus), so a bare literal costs one primary and one table miss.

The similarity grammar follows Section 4 of the paper:

    GROUP BY x, y DISTANCE-TO-ALL [L2 | LINF] WITHIN ε
             ON-OVERLAP [JOIN-ANY | ELIMINATE | FORM-NEW-GROUP]
    GROUP BY x, y DISTANCE-TO-ANY [L2 | LINF] WITHIN ε

plus the Table-2 variants ``DISTANCE-ALL/-ANY … USING LONE/LTWO`` and the
``ON OVERLAP`` spelling.  Hyphenated keywords are reassembled from
``IDENT - IDENT`` token runs so the lexer stays context-free.
"""

from __future__ import annotations

from typing import Any, List, Optional, Union

from repro.errors import ParseError
from repro.sql import ast_nodes as ast
from repro.sql.lexer import EOF, IDENT, NUMBER, OP, STRING, Token, tokenize

_KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit",
    "as", "and", "or", "not", "in", "between", "like", "is", "null",
    "asc", "desc", "join", "inner", "left", "on", "distinct", "values",
    "insert", "into", "create", "drop", "table", "if", "exists",
    "date", "interval", "within", "using", "true", "false", "union",
    "outer", "case", "when", "then", "else", "end",
}

#: Binary operator ``(token type, value)`` -> precedence level, loosest
#: first: OR, AND, (prefix NOT at 3), the comparisons with their keyword
#: forms, then the additive and multiplicative operators.  Keyed by type,
#: so a quoted identifier such as ``"+"`` is no operator.  A ``NOT`` at
#: level 4 only counts when ``IN``, ``BETWEEN`` or ``LIKE`` follows it.
_PRECEDENCE = {
    (IDENT, "or"): 1,
    (IDENT, "and"): 2,
    **{(OP, op): 4 for op in ("=", "<>", "!=", "<", "<=", ">", ">=")},
    **{(IDENT, word): 4 for word in ("in", "between", "like", "is", "not")},
    **{(OP, op): 5 for op in "+-"},
    **{(OP, op): 6 for op in "*/%"},
}
_NOT_PREC = 3
_ADDITIVE_PREC = 5
_MAX_PREC = 6

_METRIC_WORDS = {
    "l2": "l2",
    "ltwo": "l2",
    "linf": "linf",
    "lone": "linf",  # Table 2 shorthand; see DESIGN.md
    "l1": "l1",
}


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        # No bounds check: the EOF token ends the list, ``_advance`` never
        # moves past it, and every lookahead follows a non-EOF token.
        return self.tokens[self.pos + offset]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != EOF:
            self.pos += 1
        return tok

    def _check_ident(self, *words: str, offset: int = 0) -> bool:
        tok = self._peek(offset)
        return tok.type == IDENT and tok.value in words

    def _accept_ident(self, *words: str) -> Optional[str]:
        if self._check_ident(*words):
            return self._advance().value
        return None

    def _expect_ident(self, *words: str) -> str:
        tok = self._peek()
        if tok.type == IDENT and tok.value in words:
            return self._advance().value
        raise ParseError(
            f"expected {' or '.join(w.upper() for w in words)}, got {tok.value!r}"
        )

    def _check_op(self, op: str, offset: int = 0) -> bool:
        tok = self._peek(offset)
        return tok.type == OP and tok.value == op

    def _accept_op(self, op: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.type == OP and tok.value == op:
            self.pos += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        tok = self._peek()
        if tok.type == OP and tok.value == op:
            self._advance()
            return
        raise ParseError(f"expected {op!r}, got {tok.value!r}")

    def _ident(self) -> str:
        tok = self._peek()
        if tok.type != IDENT:
            raise ParseError(f"expected identifier, got {tok.value!r}")
        return self._advance().value

    def _at_end(self) -> bool:
        return self._peek().type == EOF

    def _hyphen_run(self, *words: str) -> bool:
        """True if the next tokens are ``words`` joined by '-' (no consume)."""
        offset = 0
        for i, w in enumerate(words):
            if i > 0:
                if not self._check_op("-", offset):
                    return False
                offset += 1
            if not self._check_ident(w, offset=offset):
                return False
            offset += 1
        return True

    def _consume_hyphen_run(self, *words: str) -> None:
        for i, w in enumerate(words):
            if i > 0:
                self._expect_op("-")
            self._expect_ident(w)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse_statements(self) -> List[Any]:
        stmts: List[Any] = []
        while True:
            while self._accept_op(";"):
                pass
            if self._at_end():
                break
            stmts.append(self._statement())
        return stmts

    def _statement(self) -> Any:
        if self._check_ident("select"):
            return self._select_expr()
        if self._check_ident("create"):
            if self._check_ident("index", offset=1):
                return self._create_index()
            return self._create_table()
        if self._check_ident("drop"):
            if self._check_ident("index", offset=1):
                return self._drop_index()
            return self._drop_table()
        if self._check_ident("insert"):
            return self._insert()
        if self._check_ident("explain"):
            return self._explain()
        if self._check_ident("analyze"):
            return self._analyze()
        raise ParseError(f"unexpected token {self._peek().value!r}")

    def _analyze(self) -> ast.Analyze:
        self._expect_ident("analyze")
        table = None
        tok = self._peek()
        if tok.type == IDENT and tok.value not in _KEYWORDS:
            table = self._ident()
        return ast.Analyze(table)

    def _explain(self) -> ast.Explain:
        self._expect_ident("explain")
        analyze = bool(self._accept_ident("analyze"))
        if not self._check_ident("select"):
            raise ParseError("EXPLAIN supports SELECT queries only")
        return ast.Explain(self._select_expr(), analyze=analyze)

    def _create_table(self) -> ast.CreateTable:
        self._expect_ident("create")
        self._expect_ident("table")
        if_not_exists = False
        if self._accept_ident("if"):
            self._expect_ident("not")
            self._expect_ident("exists")
            if_not_exists = True
        name = self._ident()
        self._expect_op("(")
        columns: List[ast.ColumnDef] = []
        while True:
            col_name = self._ident()
            type_name = self._ident()
            # swallow precision like decimal(10, 2)
            if self._accept_op("("):
                while not self._accept_op(")"):
                    self._advance()
            columns.append(ast.ColumnDef(col_name, type_name))
            if not self._accept_op(","):
                break
        self._expect_op(")")
        return ast.CreateTable(name, columns, if_not_exists)

    def _create_index(self) -> ast.CreateIndex:
        self._expect_ident("create")
        self._expect_ident("index")
        if_not_exists = False
        if self._accept_ident("if"):
            self._expect_ident("not")
            self._expect_ident("exists")
            if_not_exists = True
        name = self._ident()
        self._expect_ident("on")
        table = self._ident()
        self._expect_op("(")
        column = self._ident()
        self._expect_op(")")
        return ast.CreateIndex(name, table, column, if_not_exists)

    def _drop_index(self) -> ast.DropIndex:
        self._expect_ident("drop")
        self._expect_ident("index")
        name = self._ident()
        self._expect_ident("on")
        table = self._ident()
        return ast.DropIndex(name, table)

    def _drop_table(self) -> ast.DropTable:
        self._expect_ident("drop")
        self._expect_ident("table")
        if_exists = False
        if self._accept_ident("if"):
            self._expect_ident("exists")
            if_exists = True
        return ast.DropTable(self._ident(), if_exists)

    def _insert(self) -> ast.Insert:
        self._expect_ident("insert")
        self._expect_ident("into")
        table = self._ident()
        columns: Optional[List[str]] = None
        if self._check_op("(") :
            self._expect_op("(")
            columns = [self._ident()]
            while self._accept_op(","):
                columns.append(self._ident())
            self._expect_op(")")
        self._expect_ident("values")
        rows: List[List[ast.Expr]] = []
        while True:
            self._expect_op("(")
            row = [self._expr()]
            while self._accept_op(","):
                row.append(self._expr())
            self._expect_op(")")
            rows.append(row)
            if not self._accept_op(","):
                break
        return ast.Insert(table, rows, columns)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _select_expr(self) -> Any:
        """A select, possibly chained with UNION [ALL]."""
        selects = [self._select()]
        all_flags: List[bool] = []
        while self._accept_ident("union"):
            all_flags.append(bool(self._accept_ident("all")))
            selects.append(self._select())
        if len(selects) == 1:
            return selects[0]
        return ast.Union(selects, all_flags)

    def _select(self) -> ast.Select:
        self._expect_ident("select")
        distinct = bool(self._accept_ident("distinct"))
        items = [self._select_item()]
        while self._accept_op(","):
            items.append(self._select_item())

        from_items: List[ast.FromItem] = []
        if self._accept_ident("from"):
            from_items.append(ast.FromItem(self._from_source()))
            while True:
                if self._accept_op(","):
                    from_items.append(ast.FromItem(self._from_source()))
                    continue
                join_type = None
                if self._check_ident("inner") and self._check_ident(
                    "join", offset=1
                ):
                    self._advance()
                    join_type = "inner"
                elif self._check_ident("left"):
                    offset = 1
                    if self._check_ident("outer", offset=1):
                        offset = 2
                    if self._check_ident("join", offset=offset):
                        self._advance()
                        if offset == 2:
                            self._advance()
                        join_type = "left"
                if join_type is not None or self._check_ident("join"):
                    self._expect_ident("join")
                    source = self._from_source()
                    condition = None
                    if self._accept_ident("on"):
                        condition = self._expr()
                    from_items.append(
                        ast.FromItem(source, join_type or "inner", condition)
                    )
                    continue
                break

        where = self._expr() if self._accept_ident("where") else None

        group_by: List[ast.Expr] = []
        similarity: Optional[ast.SimilaritySpec] = None
        if self._accept_ident("group"):
            self._expect_ident("by")
            group_by.append(self._expr())
            while self._accept_op(","):
                group_by.append(self._expr())
            similarity = self._try_similarity()
            if similarity is None:
                similarity = self._try_similarity_1d()

        having = self._expr() if self._accept_ident("having") else None

        order_by: List[ast.OrderItem] = []
        if self._accept_ident("order"):
            self._expect_ident("by")
            order_by.append(self._order_item())
            while self._accept_op(","):
                order_by.append(self._order_item())

        limit = None
        if self._accept_ident("limit"):
            tok = self._peek()
            if tok.type != NUMBER or not isinstance(tok.value, int):
                raise ParseError(f"LIMIT expects an integer, got {tok.value!r}")
            limit = self._advance().value

        return ast.Select(
            items=items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            similarity=similarity,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _select_item(self) -> ast.SelectItem:
        if self._check_op("*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        expr = self._expr()
        alias = None
        if self._accept_ident("as"):
            alias = self._ident()
        elif self._peek().type == IDENT and self._peek().value not in _KEYWORDS:
            alias = self._ident()
        return ast.SelectItem(expr, alias)

    def _from_source(self) -> Union[ast.TableSource, ast.SubquerySource]:
        if self._accept_op("("):
            select = self._select_expr()
            self._expect_op(")")
            self._accept_ident("as")
            alias = self._ident()
            return ast.SubquerySource(select, alias)
        name = self._ident()
        alias = None
        if self._accept_ident("as"):
            alias = self._ident()
        elif self._peek().type == IDENT and self._peek().value not in _KEYWORDS:
            alias = self._ident()
        return ast.TableSource(name, alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expr()
        ascending = True
        if self._accept_ident("desc"):
            ascending = False
        else:
            self._accept_ident("asc")
        return ast.OrderItem(expr, ascending)

    # ------------------------------------------------------------------
    # similarity clause
    # ------------------------------------------------------------------
    def _try_similarity(self) -> Optional[ast.SimilaritySpec]:
        if not self._check_ident("distance"):
            return None
        self._expect_ident("distance")
        self._expect_op("-")
        word = self._expect_ident("to", "all", "any")
        if word == "to":
            self._expect_op("-")
            word = self._expect_ident("all", "any")
        mode = word

        metric = None
        m = self._accept_ident(*_METRIC_WORDS)
        if m:
            metric = _METRIC_WORDS[m]

        self._expect_ident("within")
        eps = self._expr()

        if self._accept_ident("using"):
            m = self._expect_ident(*_METRIC_WORDS)
            metric = _METRIC_WORDS[m]
        if metric is None:
            metric = "l2"

        on_overlap = None
        if self._hyphen_run("on", "overlap"):
            self._consume_hyphen_run("on", "overlap")
            on_overlap = self._overlap_clause()
        elif self._check_ident("on") and self._check_ident("overlap", offset=1):
            self._advance()
            self._advance()
            on_overlap = self._overlap_clause()
        if mode == "any":
            if on_overlap is not None:
                raise ParseError("DISTANCE-TO-ANY does not take ON-OVERLAP")
        elif on_overlap is None:
            on_overlap = "join-any"

        partition_by: List[ast.Expr] = []
        if self._check_ident("partition") and self._check_ident(
            "by", offset=1
        ):
            self._advance()
            self._advance()
            partition_by.append(self._expr())
            while self._accept_op(","):
                partition_by.append(self._expr())
        return ast.SimilaritySpec(mode, metric, eps, on_overlap,
                                  partition_by)

    def _try_similarity_1d(self) -> Optional[ast.Similarity1DSpec]:
        """The ICDE 2009 one-dimensional clauses:

        ``GROUP BY col MAXIMUM-ELEMENT-SEPARATION s
                      [MAXIMUM-GROUP-DIAMETER d]``
        ``GROUP BY col AROUND (c1, c2, …) [MAXIMUM-GROUP-DIAMETER d]``
        """
        if self._hyphen_run("maximum", "element", "separation"):
            self._consume_hyphen_run("maximum", "element", "separation")
            separation = self._expr()
            diameter = self._try_group_diameter()
            return ast.Similarity1DSpec("segment", separation=separation,
                                        diameter=diameter)
        if self._check_ident("around"):
            self._advance()
            self._expect_op("(")
            if self._check_op("("):
                return self._around_nd_rest()
            centers = [self._expr()]
            while self._accept_op(","):
                centers.append(self._expr())
            self._expect_op(")")
            diameter = self._try_group_diameter()
            return ast.Similarity1DSpec("around", centers=centers,
                                        diameter=diameter)
        return None

    def _around_nd_rest(self) -> ast.AroundNDSpec:
        """Multi-dimensional centres: ``((x1, y1), (x2, y2), …)``; the
        opening '(' of the list has been consumed."""
        centers: List[List[ast.Expr]] = []
        while True:
            self._expect_op("(")
            point = [self._expr()]
            while self._accept_op(","):
                point.append(self._expr())
            self._expect_op(")")
            centers.append(point)
            if not self._accept_op(","):
                break
        self._expect_op(")")
        metric = "l2"
        m = self._accept_ident(*_METRIC_WORDS)
        if m:
            metric = _METRIC_WORDS[m]
        radius = None
        if self._accept_ident("within"):
            radius = self._expr()
        return ast.AroundNDSpec(centers, metric, radius)

    def _try_group_diameter(self) -> Optional[ast.Expr]:
        if self._hyphen_run("maximum", "group", "diameter"):
            self._consume_hyphen_run("maximum", "group", "diameter")
            return self._expr()
        return None

    def _overlap_clause(self) -> str:
        if self._hyphen_run("join", "any"):
            self._consume_hyphen_run("join", "any")
            return "join-any"
        if self._accept_ident("eliminate"):
            return "eliminate"
        if self._hyphen_run("form", "new", "group"):
            self._consume_hyphen_run("form", "new", "group")
            return "form-new-group"
        if self._hyphen_run("form", "new"):
            self._consume_hyphen_run("form", "new")
            return "form-new-group"
        raise ParseError(
            f"expected JOIN-ANY, ELIMINATE or FORM-NEW-GROUP, got "
            f"{self._peek().value!r}"
        )

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _expr(self, min_prec: int = 1) -> ast.Expr:
        """An expression whose operators bind at ``min_prec`` or tighter.

        One loop over :data:`_PRECEDENCE`: an operator at level p takes a
        right operand of level p + 1, so chains associate to the left.
        ``ceiling`` is the level of the last operator applied.  Only a
        form without a right operand (``NOT x``, ``IS NULL``, ``LIKE 'p'``
        …) can be followed by a tighter operator, and that ends the
        expression, as the grammar's nesting did.
        """
        tok = self._peek()
        if min_prec <= _NOT_PREC and tok.value == "not" and tok.type == IDENT:
            self._advance()
            left: ast.Expr = ast.UnaryOp("not", self._expr(_NOT_PREC))
            ceiling = _NOT_PREC
        else:
            left = self._unary()
            ceiling = _MAX_PREC
        while True:
            tok = self._peek()
            prec = _PRECEDENCE.get((tok.type, tok.value))
            if prec is None or not min_prec <= prec <= ceiling:
                return left
            ceiling = prec
            if tok.type == OP or tok.value in ("and", "or"):
                self._advance()
                left = ast.BinaryOp(tok.value, left, self._expr(prec + 1))
                continue
            negated = tok.value == "not"
            if negated:
                if not self._check_ident("in", "between", "like", offset=1):
                    return left
                self._advance()
            word = self._advance().value
            if word == "in":
                left = self._in_rest(left, negated)
            elif word == "between":
                low = self._expr(_ADDITIVE_PREC)
                self._expect_ident("and")
                left = ast.Between(left, low, self._expr(_ADDITIVE_PREC),
                                   negated)
            elif word == "like":
                tok = self._peek()
                if tok.type != STRING:
                    raise ParseError("LIKE expects a string pattern")
                left = ast.Like(left, self._advance().value, negated)
            else:  # IS [NOT] NULL
                neg = bool(self._accept_ident("not"))
                self._expect_ident("null")
                left = ast.IsNull(left, neg)

    def _in_rest(self, left: ast.Expr, negated: bool) -> ast.Expr:
        self._expect_op("(")
        if self._check_ident("select"):
            start = self._peek().pos
            sub = self._select_expr()
            sql = self.text[start:self._peek().pos].strip()
            self._expect_op(")")
            return ast.InSubquery(left, sub, negated, sql)
        items = [self._expr()]
        while self._accept_op(","):
            items.append(self._expr())
        self._expect_op(")")
        return ast.InList(left, items, negated)

    def _unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.type == OP and tok.value in ("-", "+"):
            self.pos += 1
            operand = self._unary()
            return ast.UnaryOp("-", operand) if tok.value == "-" else operand
        return self._primary()

    def _primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.type == NUMBER:
            self._advance()
            return ast.Literal(tok.value)
        if tok.type == STRING:
            self._advance()
            return ast.Literal(tok.value)
        if self._accept_op("("):
            expr = self._expr()
            self._expect_op(")")
            return expr
        if tok.type != IDENT:
            raise ParseError(f"unexpected token {tok.value!r} in expression")

        # keyword-introduced literals
        if tok.value == "date" and self._peek(1).type == STRING:
            self._advance()
            raw = self._advance().value
            import datetime as _dt

            try:
                return ast.Literal(_dt.date.fromisoformat(raw))
            except ValueError:
                raise ParseError(f"invalid date literal {raw!r}") from None
        if tok.value == "interval":
            self._advance()
            amount_tok = self._peek()
            if amount_tok.type == STRING:
                self._advance()
                try:
                    amount = int(amount_tok.value)
                except ValueError:
                    raise ParseError(
                        f"invalid interval amount {amount_tok.value!r}"
                    ) from None
            elif amount_tok.type == NUMBER:
                self._advance()
                amount = int(amount_tok.value)
            else:
                raise ParseError("INTERVAL expects a quoted or numeric amount")
            unit = self._ident()
            return ast.IntervalLiteral(amount, unit)
        if tok.value == "case":
            return self._case_expr()
        if tok.value == "true":
            self._advance()
            return ast.Literal(True)
        if tok.value == "false":
            self._advance()
            return ast.Literal(False)
        if tok.value == "null":
            self._advance()
            return ast.Literal(None)

        if tok.value in _KEYWORDS:
            raise ParseError(
                f"unexpected keyword {tok.value.upper()!r} in expression"
            )
        name = self._ident()
        # function or aggregate call
        if self._check_op("("):
            self._advance()
            from repro.engine.aggregates import is_aggregate_name

            if self._check_op("*") and name == "count":
                self._advance()
                self._expect_op(")")
                return ast.AggCall("count", [], star=True)
            distinct = bool(self._accept_ident("distinct"))
            args: List[ast.Expr] = []
            if not self._check_op(")"):
                args.append(self._expr())
                while self._accept_op(","):
                    args.append(self._expr())
            self._expect_op(")")
            if is_aggregate_name(name):
                return ast.AggCall(name, args, distinct=distinct)
            if distinct:
                raise ParseError("DISTINCT is only valid inside aggregates")
            return ast.FuncCall(name, args)
        # qualified column
        if self._accept_op("."):
            col = self._ident()
            return ast.ColumnRef(col, qualifier=name)
        return ast.ColumnRef(name)

    def _case_expr(self) -> ast.Expr:
        """Searched CASE, plus the simple form desugared to equality."""
        self._expect_ident("case")
        operand: Optional[ast.Expr] = None
        if not self._check_ident("when"):
            operand = self._expr()
        whens: List[tuple] = []
        while self._accept_ident("when"):
            cond = self._expr()
            if operand is not None:
                cond = ast.BinaryOp("=", operand, cond)
            self._expect_ident("then")
            whens.append((cond, self._expr()))
        if not whens:
            raise ParseError("CASE needs at least one WHEN branch")
        else_ = self._expr() if self._accept_ident("else") else None
        self._expect_ident("end")
        return ast.Case(whens, else_)


def parse(text: str) -> List[Any]:
    """Parse SQL text into a list of statement AST nodes."""
    return Parser(text).parse_statements()


def parse_one(text: str) -> Any:
    stmts = parse(text)
    if len(stmts) != 1:
        raise ParseError(f"expected exactly one statement, got {len(stmts)}")
    return stmts[0]
