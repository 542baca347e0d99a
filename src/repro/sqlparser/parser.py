"""Recursive-descent parser for the SEBDB SQL-like language.

Supported statements (see Table II of the paper for the canonical forms)::

    CREATE <table> (<col> <type>, ...)
    INSERT INTO <table> [VALUES] (<v>, ...)
    SELECT <cols|*> FROM <t1> [, <t2> ON t1.c = t2.c]
        [WHERE <predicate>] [WINDOW [s, e]] [LIMIT n]
    TRACE [s, e] OPERATOR = <v> [,] [OPERATION = <v>]
    GET BLOCK ID|TID|TS = <v>

Tables may be qualified ``onchain.name`` / ``offchain.name`` (Q6).
Predicates are comparisons, BETWEEN, AND/OR.  Literals: numbers, quoted
strings, TRUE/FALSE/NULL, and ``?`` placeholders bound at execution.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from ..common.errors import ParseError
from .lexer import Token, TokenType, tokenize
from .nodes import (
    AGGREGATE_FUNCS,
    PLACEHOLDER,
    Aggregate,
    And,
    Between,
    BlockLookupKind,
    ColumnRef,
    Comparison,
    CompareOp,
    CreateTable,
    Explain,
    GetBlock,
    Insert,
    Or,
    OrderBy,
    Predicate,
    Select,
    Statement,
    TableRef,
    TimeWindow,
    Trace,
)


#: :func:`parse`'s results by text (never a ParseError); full, it starts over.
#: Shared process-wide: an AST is frozen dataclasses over tuples and
#: :func:`bind` builds a new tree, so sharing one cannot change a result.
_PARSE_CACHE_ENTRIES = 512
_parsed: dict[str, Statement] = {}


def parse(text: str) -> Statement:
    """Parse one statement; raises :class:`ParseError` on bad input."""
    statement = _parsed.get(text)
    if statement is None:
        if len(_parsed) >= _PARSE_CACHE_ENTRIES:
            _parsed.clear()
        statement = _parsed[text] = _Parser(tokenize(text)).parse_statement()
    return statement


def prepare(sql: Union[str, Statement], params: Sequence[Any]) -> Statement:
    """``sql`` parsed when it is text, then bound to ``params`` if any."""
    statement = parse(sql) if isinstance(sql, str) else sql
    return bind(statement, tuple(params)) if params else statement


def bind(statement: Statement, params: tuple[Any, ...]) -> Statement:
    """Substitute ``?`` placeholders left-to-right with ``params``."""
    binder = _Binder(params)
    bound = binder.bind(statement)
    if binder.remaining():
        raise ParseError(
            f"{binder.remaining()} unused bind parameter(s) "
            f"(statement has {binder.consumed} placeholder(s))"
        )
    return bound


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._next()
        if not token.matches(TokenType.KEYWORD, word):
            raise ParseError(f"expected {word.upper()}, got {token.value!r}", token.position)
        return token

    def _expect_punct(self, char: str) -> Token:
        token = self._next()
        if not token.matches(TokenType.PUNCT, char):
            raise ParseError(f"expected {char!r}, got {token.value!r}", token.position)
        return token

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().matches(TokenType.KEYWORD, word):
            self._next()
            return True
        return False

    def _accept_punct(self, char: str) -> bool:
        if self._peek().matches(TokenType.PUNCT, char):
            self._next()
            return True
        return False

    def _ident(self, what: str = "identifier") -> str:
        token = self._next()
        # unreserved keywords double as identifiers where unambiguous
        if token.type in (TokenType.IDENT, TokenType.KEYWORD) and token.value:
            return token.value.lower()
        raise ParseError(f"expected {what}, got {token.value!r}", token.position)

    # -- entry point ----------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self._peek()
        if token.matches(TokenType.KEYWORD, "explain"):
            stmt: Statement = self._parse_explain()
            tail = self._peek()
            if tail.type is not TokenType.EOF:
                raise ParseError(
                    f"unexpected trailing input {tail.value!r}", tail.position
                )
            return stmt
        if token.matches(TokenType.KEYWORD, "create"):
            stmt: Statement = self._parse_create()
        elif token.matches(TokenType.KEYWORD, "insert"):
            stmt = self._parse_insert()
        elif token.matches(TokenType.KEYWORD, "select"):
            stmt = self._parse_select()
        elif token.matches(TokenType.KEYWORD, "trace"):
            stmt = self._parse_trace()
        elif token.matches(TokenType.KEYWORD, "get"):
            stmt = self._parse_get_block()
        else:
            raise ParseError(
                f"expected a statement keyword, got {token.value!r}", token.position
            )
        tail = self._peek()
        if tail.type is not TokenType.EOF:
            raise ParseError(f"unexpected trailing input {tail.value!r}", tail.position)
        return stmt

    # -- statements -------------------------------------------------------------

    def _parse_explain(self) -> Explain:
        token = self._expect_keyword("explain")
        analyze = self._accept_keyword("analyze")
        inner = self._peek()
        if inner.matches(TokenType.KEYWORD, "select"):
            stmt: Statement = self._parse_select()
        elif inner.matches(TokenType.KEYWORD, "trace"):
            stmt = self._parse_trace()
        elif inner.matches(TokenType.KEYWORD, "get"):
            stmt = self._parse_get_block()
        elif inner.matches(TokenType.KEYWORD, "explain"):
            raise ParseError("EXPLAIN cannot be nested", inner.position)
        else:
            raise ParseError(
                "EXPLAIN expects a read statement (SELECT, TRACE or GET BLOCK)",
                token.position,
            )
        return Explain(statement=stmt, analyze=analyze)

    def _parse_create(self) -> CreateTable:
        self._expect_keyword("create")
        self._accept_keyword("block")  # tolerate CREATE TABLE-style noise
        table = self._ident("table name")
        if table == "table":  # CREATE TABLE t (...)
            table = self._ident("table name")
        self._expect_punct("(")
        columns: list[tuple[str, str]] = []
        while True:
            name = self._ident("column name")
            type_name = self._ident("column type")
            columns.append((name, type_name))
            if self._accept_punct(")"):
                break
            self._expect_punct(",")
        return CreateTable(table=table, columns=tuple(columns))

    def _parse_insert(self) -> Insert:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._ident("table name")
        self._accept_keyword("values")
        self._expect_punct("(")
        values: list[Any] = []
        while True:
            values.append(self._literal())
            if self._accept_punct(")"):
                break
            self._expect_punct(",")
        return Insert(table=table, values=tuple(values))

    def _parse_select(self) -> Select:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        projection: list[Any] = []
        if not self._accept_punct("*"):
            while True:
                projection.append(self._projection_item())
                if not self._accept_punct(","):
                    break
        self._expect_keyword("from")
        tables = [self._table_ref()]
        join_on: Optional[tuple[ColumnRef, ColumnRef]] = None
        if self._accept_punct(",") or self._accept_keyword("join"):
            tables.append(self._table_ref())
            self._expect_keyword("on")
            left = self._column_ref()
            op = self._next()
            if not op.matches(TokenType.OPERATOR, "="):
                raise ParseError("join condition must be an equi-join", op.position)
            right = self._column_ref()
            join_on = (left, right)
        where: Optional[Predicate] = None
        if self._accept_keyword("where"):
            where = self._predicate()
        group_by = None
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by = self._column_ref()
        order_by = None
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            column = self._column_ref()
            descending = False
            if self._accept_keyword("desc"):
                descending = True
            else:
                self._accept_keyword("asc")
            order_by = OrderBy(column=column, descending=descending)
        window = None
        if self._accept_keyword("window") or self._peek().matches(TokenType.PUNCT, "["):
            window = self._window()
        limit = None
        if self._accept_keyword("limit"):
            token = self._next()
            if token.type is not TokenType.NUMBER:
                raise ParseError("LIMIT expects a number", token.position)
            limit = int(token.value)
        return Select(
            projection=tuple(projection),
            tables=tuple(tables),
            join_on=join_on,
            where=where,
            group_by=group_by,
            order_by=order_by,
            window=window,
            limit=limit,
            distinct=distinct,
        )

    def _projection_item(self) -> Any:
        """A projected column or an aggregate call."""
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in AGGREGATE_FUNCS:
            # only an aggregate when followed by '(' - 'min' etc. remain
            # usable as plain column names otherwise
            if self._tokens[self._pos + 1].matches(TokenType.PUNCT, "("):
                func = self._next().value
                self._expect_punct("(")
                if self._accept_punct("*"):
                    self._expect_punct(")")
                    if func != "count":
                        raise ParseError(
                            f"{func.upper()}(*) is not defined", token.position
                        )
                    return Aggregate(func=func, column=None)
                column = self._column_ref()
                self._expect_punct(")")
                return Aggregate(func=func, column=column)
        return self._column_ref()

    def _parse_trace(self) -> Trace:
        self._expect_keyword("trace")
        window = None
        if self._peek().matches(TokenType.PUNCT, "["):
            window = self._window()
        operator = None
        operation = None
        while True:
            if self._accept_keyword("operator"):
                self._expect_operator_eq()
                operator = self._literal()
            elif self._accept_keyword("operation"):
                self._expect_operator_eq()
                operation = self._literal()
            else:
                break
            if not self._accept_punct(","):
                # allow bare juxtaposition: OPERATOR = x OPERATION = y
                continue
        if operator is None and operation is None:
            raise ParseError("TRACE needs OPERATOR and/or OPERATION")
        return Trace(operator=operator, operation=operation, window=window)

    def _parse_get_block(self) -> GetBlock:
        self._expect_keyword("get")
        self._expect_keyword("block")
        token = self._next()
        kinds = {
            "id": BlockLookupKind.BY_ID,
            "tid": BlockLookupKind.BY_TID,
            "ts": BlockLookupKind.BY_TS,
        }
        if token.type is not TokenType.KEYWORD or token.value not in kinds:
            raise ParseError("GET BLOCK expects ID, TID or TS", token.position)
        self._expect_operator_eq()
        return GetBlock(kind=kinds[token.value], value=self._literal())

    # -- fragments ---------------------------------------------------------------

    def _expect_operator_eq(self) -> None:
        token = self._next()
        if not token.matches(TokenType.OPERATOR, "="):
            raise ParseError(f"expected '=', got {token.value!r}", token.position)

    def _window(self) -> TimeWindow:
        self._expect_punct("[")
        start = None if self._peek().matches(TokenType.PUNCT, ",") else self._literal()
        self._expect_punct(",")
        end = None if self._peek().matches(TokenType.PUNCT, "]") else self._literal()
        self._expect_punct("]")
        return TimeWindow(start=start, end=end)

    def _table_ref(self) -> TableRef:
        first = self._ident("table name")
        source = "onchain"
        name = first
        if first in ("onchain", "offchain") and self._accept_punct("."):
            source = first
            name = self._ident("table name")
        alias = None
        if self._accept_keyword("as"):
            alias = self._ident("alias")
        elif self._peek().type is TokenType.IDENT:
            alias = self._ident("alias")
        return TableRef(name=name, source=source, alias=alias)

    def _column_ref(self) -> ColumnRef:
        first = self._ident("column name")
        if not self._accept_punct("."):
            return ColumnRef(column=first)
        second = self._ident("column name")
        if first in ("onchain", "offchain"):
            if self._accept_punct("."):
                third = self._ident("column name")
                return ColumnRef(column=third, table=second, source=first)
            return ColumnRef(column=second, source=first)
        if self._accept_punct("."):
            third = self._ident("column name")
            return ColumnRef(column=third, table=second, source=first)
        return ColumnRef(column=second, table=first)

    def _literal(self) -> Any:
        token = self._next()
        if token.type is TokenType.PLACEHOLDER:
            return PLACEHOLDER
        if token.type is TokenType.STRING:
            return token.value
        if token.type is TokenType.NUMBER:
            text = token.value
            return float(text) if "." in text else int(text)
        if token.type is TokenType.KEYWORD:
            if token.value == "true":
                return True
            if token.value == "false":
                return False
            if token.value == "null":
                return None
        raise ParseError(f"expected a literal, got {token.value!r}", token.position)

    # -- predicates ---------------------------------------------------------------

    def _predicate(self) -> Predicate:
        return self._or_expr()

    def _or_expr(self) -> Predicate:
        parts = [self._and_expr()]
        while self._accept_keyword("or"):
            parts.append(self._and_expr())
        return parts[0] if len(parts) == 1 else Or(parts=tuple(parts))

    def _and_expr(self) -> Predicate:
        parts = [self._atom()]
        while self._accept_keyword("and"):
            parts.append(self._atom())
        return parts[0] if len(parts) == 1 else And(parts=tuple(parts))

    def _atom(self) -> Predicate:
        if self._accept_punct("("):
            inner = self._predicate()
            self._expect_punct(")")
            return inner
        column = self._column_ref()
        if self._accept_keyword("between"):
            low = self._literal()
            self._expect_keyword("and")
            high = self._literal()
            return Between(column=column, low=low, high=high)
        token = self._next()
        ops = {
            "=": CompareOp.EQ, "<>": CompareOp.NE, "!=": CompareOp.NE,
            "<": CompareOp.LT, "<=": CompareOp.LE,
            ">": CompareOp.GT, ">=": CompareOp.GE,
        }
        if token.type is not TokenType.OPERATOR or token.value not in ops:
            raise ParseError(f"expected comparison operator, got {token.value!r}", token.position)
        return Comparison(column=column, op=ops[token.value], value=self._literal())


class _Binder:
    """Replaces placeholders depth-first, left-to-right."""

    def __init__(self, params: tuple[Any, ...]) -> None:
        self._params = list(params)
        self.consumed = 0

    def remaining(self) -> int:
        return len(self._params)

    def _take(self) -> Any:
        if not self._params:
            raise ParseError("not enough bind parameters for the placeholders")
        self.consumed += 1
        return self._params.pop(0)

    def value(self, v: Any) -> Any:
        return self._take() if v is PLACEHOLDER else v

    def bind(self, node: Any) -> Any:
        if node is PLACEHOLDER:
            return self._take()
        if isinstance(node, Explain):
            return Explain(statement=self.bind(node.statement), analyze=node.analyze)
        if isinstance(node, Insert):
            return Insert(node.table, tuple(self.value(v) for v in node.values))
        if isinstance(node, Select):
            return Select(
                projection=node.projection,
                tables=node.tables,
                join_on=node.join_on,
                where=self.bind(node.where) if node.where else None,
                group_by=node.group_by,
                order_by=node.order_by,
                window=self.bind(node.window) if node.window else None,
                limit=node.limit,
                distinct=node.distinct,
            )
        if isinstance(node, Trace):
            # bind in the statement's textual order: window precedes the
            # OPERATOR/OPERATION clauses in TRACE [s, e] OPERATOR = ...
            window = self.bind(node.window) if node.window else None
            return Trace(
                operator=self.value(node.operator),
                operation=self.value(node.operation),
                window=window,
            )
        if isinstance(node, GetBlock):
            return GetBlock(node.kind, self.value(node.value))
        if isinstance(node, TimeWindow):
            return TimeWindow(self.value(node.start), self.value(node.end))
        if isinstance(node, Comparison):
            return Comparison(node.column, node.op, self.value(node.value))
        if isinstance(node, Between):
            return Between(node.column, self.value(node.low), self.value(node.high))
        if isinstance(node, And):
            return And(tuple(self.bind(p) for p in node.parts))
        if isinstance(node, Or):
            return Or(tuple(self.bind(p) for p in node.parts))
        return node
