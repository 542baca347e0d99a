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

from typing import Any, Callable, Optional, Sequence, Union

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
    return Binder(statement)(params)


def _holds_placeholder(*values: Any) -> bool:
    return any(value is PLACEHOLDER for value in values)


class Binder:
    """A statement's placeholders as numbered slots, bound by one call.

    Compiling walks the statement once, depth-first and left to right,
    numbering each ``?`` and keeping, per node that holds one, a
    function that rebuilds that node from the parameters; nodes without
    a placeholder are shared by every bound copy.  A call then only
    substitutes values.
    """

    def __init__(self, statement: Statement) -> None:
        self.slots = 0
        rebuild = self._compile(statement)
        self._rebuild = rebuild if rebuild is not None else (lambda _p: statement)

    def __call__(self, params: Sequence[Any]) -> Statement:
        """The statement with ``params`` in its slots, one each."""
        if len(params) < self.slots:
            raise ParseError("not enough bind parameters for the placeholders")
        if len(params) > self.slots:
            raise ParseError(
                f"{len(params) - self.slots} unused bind parameter(s) "
                f"(statement has {self.slots} placeholder(s))"
            )
        return self._rebuild(params)

    def _value(self, value: Any) -> Callable[[Sequence[Any]], Any]:
        """A getter for one value: its slot's parameter, or the literal."""
        if value is PLACEHOLDER:
            slot = self.slots
            self.slots += 1
            return lambda p: p[slot]
        return lambda _p: value

    def _compile(self, node: Any) -> Optional[Callable[[Sequence[Any]], Any]]:
        """``node`` rebuilt from the parameters, or None without a placeholder."""
        if isinstance(node, Explain):
            inner = self._compile(node.statement)
            if inner is None:
                return None
            analyze = node.analyze
            return lambda p: Explain(statement=inner(p), analyze=analyze)
        if isinstance(node, Insert):
            if not _holds_placeholder(*node.values):
                return None
            table = node.table
            values = [self._value(v) for v in node.values]
            return lambda p: Insert(table, tuple(v(p) for v in values))
        if isinstance(node, Select):
            where = self._compile(node.where)
            window = self._compile(node.window)
            if where is None and window is None:
                return None
            return lambda p: Select(
                projection=node.projection,
                tables=node.tables,
                join_on=node.join_on,
                where=where(p) if where is not None else node.where,
                group_by=node.group_by,
                order_by=node.order_by,
                window=window(p) if window is not None else node.window,
                limit=node.limit,
                distinct=node.distinct,
            )
        if isinstance(node, Trace):
            # bind in the statement's textual order: window precedes the
            # OPERATOR/OPERATION clauses in TRACE [s, e] OPERATOR = ...
            window = self._compile(node.window)
            if window is None and not _holds_placeholder(node.operator, node.operation):
                return None
            operator, operation = self._value(node.operator), self._value(node.operation)
            return lambda p: Trace(
                operator=operator(p),
                operation=operation(p),
                window=window(p) if window is not None else node.window,
            )
        if isinstance(node, GetBlock):
            if node.value is not PLACEHOLDER:
                return None
            kind, value = node.kind, self._value(node.value)
            return lambda p: GetBlock(kind, value(p))
        if isinstance(node, TimeWindow):
            if not _holds_placeholder(node.start, node.end):
                return None
            start, end = self._value(node.start), self._value(node.end)
            return lambda p: TimeWindow(start(p), end(p))
        if isinstance(node, Comparison):
            if node.value is not PLACEHOLDER:
                return None
            column, op, value = node.column, node.op, self._value(node.value)
            return lambda p: Comparison(column, op, value(p))
        if isinstance(node, Between):
            if not _holds_placeholder(node.low, node.high):
                return None
            column = node.column
            low, high = self._value(node.low), self._value(node.high)
            return lambda p: Between(column, low(p), high(p))
        if isinstance(node, (And, Or)):
            parts = [self._compile(part) for part in node.parts]
            if all(part is None for part in parts):
                return None
            kind = type(node)
            rebuilt = [
                part if part is not None else (lambda _p, q=q: q)
                for part, q in zip(parts, node.parts)
            ]
            return lambda p: kind(tuple(part(p) for part in rebuilt))
        return None


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
