"""Tests for the lexer, parser and parameter binding."""

import pytest

from repro.common.errors import ParseError
from repro.sqlparser import (
    And,
    Between,
    BlockLookupKind,
    ColumnRef,
    Comparison,
    CompareOp,
    CreateTable,
    GetBlock,
    Insert,
    Or,
    PLACEHOLDER,
    Select,
    TimeWindow,
    Trace,
    TokenType,
    bind,
    conjuncts,
    parse,
    parser,
    prepare,
    tokenize,
)

_parse = parse


@pytest.fixture(autouse=True)
def parsed_statements_hash(monkeypatch):
    """Every statement a test here parses hashes all the way down: frozen
    dataclasses over tuples, which is what lets ``parse`` share one AST
    between every caller of the same text."""
    parsed = []

    def recording(text):
        parsed.append(_parse(text))
        return parsed[-1]

    monkeypatch.setitem(globals(), "parse", recording)
    yield
    for statement in parsed:
        hash(statement)


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SELECT select SeLeCt")
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])
        assert all(t.value == "select" for t in tokens[:-1])

    def test_identifiers_keep_case_lowered_later(self):
        tokens = tokenize("Donate")
        assert tokens[0].type is TokenType.IDENT

    def test_string_literals(self):
        tokens = tokenize("'it''s' \"double\"")
        assert tokens[0].type is TokenType.STRING

    def test_string_escapes(self):
        tokens = tokenize(r"'a\'b'")
        assert tokens[0].value == "a'b"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_numbers(self):
        tokens = tokenize("42 -7 3.14")
        assert [t.value for t in tokens[:-1]] == ["42", "-7", "3.14"]

    def test_placeholder(self):
        assert tokenize("?")[0].type is TokenType.PLACEHOLDER

    def test_operators(self):
        values = [t.value for t in tokenize("<= >= <> != = < >")[:-1]]
        assert values == ["<=", ">=", "<>", "!=", "=", "<", ">"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- a comment\n1")
        assert len(tokens) == 3  # select, 1, eof

    def test_junk_rejected(self):
        with pytest.raises(ParseError) as err:
            tokenize("SELECT @")
        assert err.value.position == 7

    def test_semicolon_ignored(self):
        assert len(tokenize(";;;")) == 1  # just EOF


class TestCreate:
    def test_paper_example(self):
        stmt = parse("CREATE Donate (donor string, project string, "
                     "amount decimal)")
        assert stmt == CreateTable(
            "donate",
            (("donor", "string"), ("project", "string"), ("amount", "decimal")),
        )

    def test_create_table_keyword_tolerated(self):
        stmt = parse("CREATE TABLE t (a int)")
        assert stmt.table == "t"

    def test_missing_paren(self):
        with pytest.raises(ParseError):
            parse("CREATE t a int")


class TestInsert:
    def test_paper_example_without_values_keyword(self):
        stmt = parse('INSERT into Donate ("Jack", "Education", 100)')
        assert stmt == Insert("donate", ("Jack", "Education", 100))

    def test_with_values_keyword(self):
        stmt = parse("INSERT INTO donate VALUES ('J', 'E', 1.5)")
        assert stmt.values == ("J", "E", 1.5)

    def test_placeholders(self):
        stmt = parse("INSERT INTO donate VALUES (?, ?, ?)")
        assert stmt.values == (PLACEHOLDER,) * 3

    def test_literals(self):
        stmt = parse("INSERT INTO t VALUES (TRUE, FALSE, NULL, -3)")
        assert stmt.values == (True, False, None, -3)


class TestSelect:
    def test_star(self):
        stmt = parse("SELECT * FROM donate")
        assert stmt.projection == ()
        assert stmt.tables[0].name == "donate"
        assert stmt.tables[0].source == "onchain"

    def test_projection(self):
        stmt = parse("SELECT donor, amount FROM donate")
        assert [c.column for c in stmt.projection] == ["donor", "amount"]

    def test_where_between(self):
        stmt = parse("SELECT * FROM donate WHERE amount BETWEEN 1 AND 5")
        assert stmt.where == Between(ColumnRef("amount"), 1, 5)

    def test_where_comparisons(self):
        stmt = parse("SELECT * FROM t WHERE a >= 3 AND b = 'x' AND c <> 2")
        assert isinstance(stmt.where, And)
        ops = [p.op for p in stmt.where.parts]
        assert ops == [CompareOp.GE, CompareOp.EQ, CompareOp.NE]

    def test_where_or_and_parens(self):
        stmt = parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        assert isinstance(stmt.where, And)
        assert isinstance(stmt.where.parts[0], Or)

    def test_join_comma_syntax(self):
        stmt = parse(
            "SELECT * FROM transfer, distribute "
            "ON transfer.organization = distribute.organization"
        )
        assert len(stmt.tables) == 2
        left, right = stmt.join_on
        assert left.table == "transfer" and right.table == "distribute"

    def test_join_onchain_offchain_qualifiers(self):
        stmt = parse(
            "SELECT * FROM onchain.distribute, offchain.donorinfo "
            "ON distribute.donee = donorinfo.donee"
        )
        assert stmt.tables[0].source == "onchain"
        assert stmt.tables[1].source == "offchain"
        assert stmt.tables[1].name == "donorinfo"

    def test_join_requires_equi(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM a, b ON a.x < b.y")

    def test_window(self):
        stmt = parse("SELECT * FROM t WINDOW [100, 200]")
        assert stmt.window == TimeWindow(100, 200)

    def test_window_open_ends(self):
        stmt = parse("SELECT * FROM t WINDOW [, 200]")
        assert stmt.window == TimeWindow(None, 200)
        stmt = parse("SELECT * FROM t WINDOW [100, ]")
        assert stmt.window == TimeWindow(100, None)

    def test_limit(self):
        stmt = parse("SELECT * FROM t LIMIT 7")
        assert stmt.limit == 7

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM t garbage garbage")


class TestTrace:
    def test_operator_only(self):
        stmt = parse("TRACE OPERATOR = 'org1'")
        assert stmt == Trace(operator="org1", operation=None, window=None)

    def test_both_dimensions_with_window(self):
        stmt = parse("TRACE [0, 99] OPERATOR = 'org1', OPERATION = 'transfer'")
        assert stmt.operator == "org1"
        assert stmt.operation == "transfer"
        assert stmt.window == TimeWindow(0, 99)

    def test_operation_only(self):
        stmt = parse("TRACE OPERATION = 'donate'")
        assert stmt.operator is None and stmt.operation == "donate"

    def test_no_dimension_rejected(self):
        with pytest.raises(ParseError):
            parse("TRACE [0, 9]")


class TestGetBlock:
    @pytest.mark.parametrize(
        "sql,kind",
        [
            ("GET BLOCK ID = 5", BlockLookupKind.BY_ID),
            ("GET BLOCK TID = 5", BlockLookupKind.BY_TID),
            ("GET BLOCK TS = 5", BlockLookupKind.BY_TS),
        ],
    )
    def test_kinds(self, sql, kind):
        stmt = parse(sql)
        assert stmt == GetBlock(kind, 5)

    def test_bad_kind(self):
        with pytest.raises(ParseError):
            parse("GET BLOCK HASH = 5")


class TestBind:
    def test_insert_binding(self):
        stmt = bind(parse("INSERT INTO t VALUES (?, ?, 3)"), ("a", 2))
        assert stmt.values == ("a", 2, 3)

    def test_select_where_and_window(self):
        stmt = bind(
            parse("SELECT * FROM t WHERE a BETWEEN ? AND ? WINDOW [?, ?]"),
            (1, 2, 10, 20),
        )
        assert stmt.where == Between(ColumnRef("a"), 1, 2)
        assert stmt.window == TimeWindow(10, 20)

    def test_trace_binding(self):
        stmt = bind(parse("TRACE [?, ?] OPERATOR = ?"), (5, 9, "org1"))
        assert stmt.operator == "org1" and stmt.window == TimeWindow(5, 9)

    def test_get_block_binding(self):
        stmt = bind(parse("GET BLOCK ID = ?"), (7,))
        assert stmt.value == 7

    def test_too_few_params(self):
        with pytest.raises(ParseError):
            bind(parse("GET BLOCK ID = ?"), ())

    def test_too_many_params(self):
        with pytest.raises(ParseError):
            bind(parse("GET BLOCK ID = ?"), (1, 2))

    def test_or_binding(self):
        stmt = bind(parse("SELECT * FROM t WHERE a = ? OR b = ?"), (1, 2))
        assert isinstance(stmt.where, Or)
        assert stmt.where.parts[0].value == 1
        assert stmt.where.parts[1].value == 2


class TestConjuncts:
    def test_flattens_nested_and(self):
        stmt = parse("SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3")
        assert len(conjuncts(stmt.where)) == 3

    def test_or_kept_whole(self):
        stmt = parse("SELECT * FROM t WHERE a = 1 OR b = 2")
        parts = conjuncts(stmt.where)
        assert len(parts) == 1 and isinstance(parts[0], Or)

    def test_none(self):
        assert conjuncts(None) == []

    def test_single_atom(self):
        stmt = parse("SELECT * FROM t WHERE a = 1")
        assert conjuncts(stmt.where) == [Comparison(ColumnRef("a"),
                                                    CompareOp.EQ, 1)]


class TestParseMemo:
    SQL = "SELECT * FROM t WHERE a = ? AND b BETWEEN ? AND ?"

    def test_repeated_text_returns_the_same_ast(self):
        assert parse(self.SQL) is parse(self.SQL)
        assert prepare(self.SQL, ()) is parse(self.SQL)

    def test_binds_do_not_share_values(self):
        first = prepare(self.SQL, (1, 2, 3))
        second = prepare(self.SQL, (4, 5, 6))
        assert conjuncts(first.where)[0].value == 1
        assert conjuncts(second.where)[0].value == 4
        shared = parse(self.SQL)
        assert conjuncts(shared.where)[0].value is PLACEHOLDER
        assert bind(shared, (1, 2, 3)) == first

    def test_prepare_passes_a_statement_through(self):
        statement = parse("GET BLOCK ID = ?")
        assert prepare(statement, ()) is statement
        assert prepare(statement, [7]) == GetBlock(BlockLookupKind.BY_ID, 7)

    def test_bad_text_raises_every_time_and_is_never_kept(self):
        bad = "SELECT * FROM t WHERE"
        for _ in range(2):
            with pytest.raises(ParseError):
                parse(bad)
        assert bad not in parser._parsed

    def test_memo_never_exceeds_its_bound(self):
        bound = parser._PARSE_CACHE_ENTRIES
        for i in range(bound + 10):
            text = f"GET BLOCK ID = {i}"
            assert parse(text).value == i
            assert len(parser._parsed) <= bound
            assert parser._parsed[text] is parse(text)
