"""Property test: the streaming executor matches a materializing oracle.

For randomly generated SELECT / JOIN / TRACE statements, the pipeline
must return exactly the rows (and the VO-relevant transaction sets) that
a naive reference - filter the full chain-ordered transaction list in
Python - produces, for every access method.  The per-operator cost
invariant (operator totals == the query's scoped tracker) must also hold
on every generated query, not just on hand-picked ones.
"""

import random

import pytest

from tests.conftest import DISTRIBUTE, DONATE, TRANSFER

METHODS = ("scan", "bitmap", "layered")

TABLES = {
    "donate": DONATE,
    "transfer": TRANSFER,
    "distribute": DISTRIBUTE,
}

#: (table, column, sql literal renderer, python getter) generators
NUMERIC = {
    "donate": "amount",
    "transfer": "amount",
    "distribute": "amount",
}
STRING = {
    "donate": ("donor", [f"donor{i}" for i in range(8)]),
    "transfer": ("organization", ["org1", "org2", "org3"]),
    "distribute": ("donee", ["tom", "amy", "bob", "sue"]),
}


def value_of(tx, schema, column):
    return tx.row()[schema.column_index(column)]


def random_predicate(rng, table):
    """(sql text, python accept) for a random WHERE clause, or None."""
    schema = TABLES[table]
    conjuncts = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.6:
            column = NUMERIC[table]
            op = rng.choice(["<", "<=", ">", ">=", "="])
            bound = rng.randint(1, 1000)
            sql = f"{column} {op} {bound}"
            checks = {
                "<": lambda v, b=bound: v < b,
                "<=": lambda v, b=bound: v <= b,
                ">": lambda v, b=bound: v > b,
                ">=": lambda v, b=bound: v >= b,
                "=": lambda v, b=bound: v == b,
            }
            accept = checks[op]
        else:
            column, values = STRING[table]
            value = rng.choice(values)
            sql = f"{column} = '{value}'"

            def accept(v, w=value):
                return v == w
        conjuncts.append((sql, column, accept))
    joiner = " AND " if rng.random() < 0.7 else " OR "
    sql = joiner.join(part for part, _c, _a in conjuncts)
    if joiner == " AND ":
        def matches(tx, schema=schema, conjuncts=conjuncts):
            return all(a(value_of(tx, schema, c)) for _s, c, a in conjuncts)
    else:
        def matches(tx, schema=schema, conjuncts=conjuncts):
            return any(a(value_of(tx, schema, c)) for _s, c, a in conjuncts)
    return sql, matches


def random_window(rng):
    if rng.random() < 0.5:
        return None, lambda tx: True
    start = rng.choice([None, 100, 300, 550])
    end = rng.choice([None, 480, 720, 1099])
    text = f"WINDOW [{'' if start is None else start}, " \
           f"{'' if end is None else end}]"
    def in_window(tx):
        if start is not None and tx.ts < start:
            return False
        if end is not None and tx.ts > end:
            return False
        return True
    return text, in_window


def assert_operator_costs_consistent(result):
    stats = [op.stats for op in result.plan.operators()]
    seeks = sum(s.seeks for s in stats)
    pages = sum(s.page_transfers for s in stats)
    modelled = sum(s.modelled_ms for s in stats)
    cost = result.cost
    assert (seeks, pages) == (cost.seeks, cost.page_transfers)
    assert modelled == pytest.approx(cost.elapsed_ms)


@pytest.mark.parametrize("seed", range(6))
def test_random_selects_match_reference(chain, seed):
    rng = random.Random(seed)
    for _ in range(8):
        table = rng.choice(list(TABLES))
        where_sql, matches = random_predicate(rng, table)
        window_sql, in_window = random_window(rng)
        limit = rng.choice([None, 1, 4, 50])
        sql = f"SELECT * FROM {table} WHERE {where_sql}"
        if window_sql:
            sql += f" {window_sql}"
        if limit is not None:
            sql += f" LIMIT {limit}"

        expected_txs = [
            tx for tx in chain.all_txs
            if tx.tname == table and matches(tx) and in_window(tx)
        ]
        if limit is not None:
            expected_txs = expected_txs[:limit]
        expected_rows = [tx.row() for tx in expected_txs]

        for method in METHODS:
            chain.store.clear_caches()
            try:
                result = chain.engine.execute(sql, method=method)
            except ValueError:
                # forcing layered is only legal when an index matches
                assert method == "layered"
                continue
            if method == "layered" and limit is None:
                # the layered path returns blocks in chain order but
                # tuples within a block in index-key order (as in the
                # paper's Algorithm 1): same set, possibly different
                # intra-block order
                assert sorted(result.rows) == sorted(expected_rows), \
                    (sql, method)
                assert sorted(tx.tid for tx in result.transactions) == \
                    sorted(tx.tid for tx in expected_txs), (sql, method)
            elif method == "layered":
                # with LIMIT the prefix depends on intra-block order;
                # only the row/transaction pairing is comparable
                assert len(result.rows) == len(expected_rows), (sql, method)
                assert [tx.tid for tx in result.transactions] == \
                    [row[0] for row in result.rows], (sql, method)
            else:
                assert result.rows == expected_rows, (sql, method)
                # VO-relevant set: the transactions behind the rows
                assert [tx.tid for tx in result.transactions] == \
                    [tx.tid for tx in expected_txs], (sql, method)
            assert_operator_costs_consistent(result)


@pytest.mark.parametrize("seed", range(4))
def test_random_ordered_selects_match_reference(chain, seed):
    rng = random.Random(100 + seed)
    for _ in range(4):
        table = rng.choice(list(TABLES))
        schema = TABLES[table]
        where_sql, matches = random_predicate(rng, table)
        descending = rng.random() < 0.5
        limit = rng.choice([None, 3, 10])
        order = NUMERIC[table]
        sql = (f"SELECT * FROM {table} WHERE {where_sql} "
               f"ORDER BY {order} {'DESC' if descending else 'ASC'}")
        if limit is not None:
            sql += f" LIMIT {limit}"

        keep = [tx for tx in chain.all_txs
                if tx.tname == table and matches(tx)]
        rows = [tx.row() for tx in keep]
        index = schema.column_index(order)
        rows.sort(key=lambda r: (r[index] is None, r[index]),
                  reverse=descending)
        if limit is not None:
            rows = rows[:limit]

        for method in METHODS:
            chain.store.clear_caches()
            try:
                result = chain.engine.execute(sql, method=method)
            except ValueError:
                assert method == "layered"
                continue
            if method == "layered":
                # ties under ORDER BY keep their (method-dependent) input
                # order: the key sequence is still deterministic, and
                # without LIMIT so is the row multiset
                assert [r[index] for r in result.rows] == \
                    [r[index] for r in rows], (sql, method)
                if limit is None:
                    assert sorted(result.rows) == sorted(rows), (sql, method)
            else:
                assert result.rows == rows, (sql, method)
            assert_operator_costs_consistent(result)


@pytest.mark.parametrize("seed", range(4))
def test_random_traces_match_reference(chain, seed):
    rng = random.Random(200 + seed)
    for _ in range(4):
        operator = rng.choice([None, "org1", "org2", "org3"])
        operation = rng.choice([None, "donate", "transfer", "distribute"])
        if operator is None and operation is None:
            operator = "org1"
        window_sql, in_window = random_window(rng)
        parts = ["TRACE"]
        if window_sql:
            parts.append(window_sql.removeprefix("WINDOW "))
        if operator is not None:
            parts.append(f"OPERATOR = '{operator}'")
        if operation is not None:
            parts.append(f"OPERATION = '{operation}'")
        sql = " ".join(parts)

        expected = [
            tx for tx in chain.all_txs
            if (operator is None or tx.senid == operator)
            and (operation is None or tx.tname == operation)
            and in_window(tx)
        ]
        for method in METHODS:
            chain.store.clear_caches()
            result = chain.engine.execute(sql, method=method)
            assert [tx.tid for tx in result.transactions] == \
                [tx.tid for tx in expected], (sql, method)
            assert_operator_costs_consistent(result)


@pytest.mark.parametrize("seed", range(3))
def test_random_onchain_joins_agree_across_methods(chain, seed):
    rng = random.Random(300 + seed)
    # the donor pair has no layered index on either side, so only the
    # hash-join methods apply to it
    pairs = [
        ("transfer", "distribute", "organization", "organization", METHODS),
        ("donate", "transfer", "donor", "donor", ("scan", "bitmap")),
    ]
    for _ in range(2):
        lt, rt, lc, rc, methods = rng.choice(pairs)
        window_sql, in_window = random_window(rng)
        sql = f"SELECT * FROM {lt}, {rt} ON {lt}.{lc} = {rt}.{rc}"
        if window_sql:
            sql += f" {window_sql}"

        lschema, rschema = TABLES[lt], TABLES[rt]
        lefts = [tx for tx in chain.all_txs
                 if tx.tname == lt and in_window(tx)]
        rights = [tx for tx in chain.all_txs
                  if tx.tname == rt and in_window(tx)]
        expected = sorted(
            (ltx.tid, rtx.tid)
            for ltx in lefts for rtx in rights
            if value_of(ltx, lschema, lc) is not None
            and value_of(ltx, lschema, lc) == value_of(rtx, rschema, rc)
        )
        for method in methods:
            chain.store.clear_caches()
            result = chain.engine.execute(sql, method=method)
            got = sorted((row[0], row[len(lschema.column_names)])
                         for row in result.rows)
            assert got == expected, (sql, method)
            assert_operator_costs_consistent(result)


@pytest.mark.parametrize("method", METHODS)
def test_onoff_join_matches_reference(chain, method):
    sql = ("SELECT * FROM onchain.distribute, offchain.doneeinfo "
           "ON distribute.donee = doneeinfo.donee")
    off_rows = {row[0]: tuple(row)
                for row in chain.offchain.fetch_all("doneeinfo")}
    expected = sorted(
        (tx.tid, off_rows[value_of(tx, DISTRIBUTE, "donee")])
        for tx in chain.all_txs
        if tx.tname == "distribute"
        and value_of(tx, DISTRIBUTE, "donee") in off_rows
    )
    chain.store.clear_caches()
    result = chain.engine.execute(sql, method=method)
    n = len(DISTRIBUTE.column_names)
    got = sorted((row[0], tuple(row[n:])) for row in result.rows)
    assert got == expected
    assert_operator_costs_consistent(result)
