"""Tests for the query engine over the shared small chain.

The central invariant (tested per query shape): all three physical access
paths - scan, bitmap and layered - return identical result sets; they may
only differ in I/O cost.
"""

import re

import pytest

from repro.common.errors import CatalogError, QueryError
from repro.model import Transaction
from repro.node import FullNode
from repro.query import AccessPath
from repro.sqlparser import parse


def tids(result):
    return sorted(tx.tid for tx in result.transactions)


class TestMethodsAgree:
    """The paper's three access paths must agree on every query shape."""

    @pytest.mark.parametrize("sql,params", [
        ("SELECT * FROM donate WHERE amount BETWEEN ? AND ?", (100.0, 400.0)),
        ("SELECT * FROM donate WHERE amount > ?", (800.0,)),
        ("SELECT * FROM transfer WHERE organization = 'org2'", ()),
        ("SELECT * FROM donate WHERE amount BETWEEN 1 AND 5000 WINDOW [300, 700]", ()),
    ])
    def test_select_shapes(self, chain, sql, params):
        results = {
            method: tids(chain.engine.execute(sql, params, method=method))
            for method in ("scan", "bitmap", "layered")
        }
        assert results["scan"] == results["bitmap"] == results["layered"]

    def test_unindexed_column_scan_vs_bitmap(self, chain):
        sql = "SELECT * FROM donate WHERE donor = 'donor3'"
        scan = tids(chain.engine.execute(sql, method="scan"))
        bitmap = tids(chain.engine.execute(sql, method="bitmap"))
        assert scan == bitmap

    @pytest.mark.parametrize("sql", [
        "TRACE OPERATOR = 'org1'",
        "TRACE OPERATION = 'transfer'",
        "TRACE OPERATOR = 'org2', OPERATION = 'distribute'",
        "TRACE [200, 600] OPERATOR = 'org1'",
        "TRACE [350, 820] OPERATOR = 'org3', OPERATION = 'transfer'",
    ])
    def test_trace_shapes(self, chain, sql):
        results = {
            method: tids(chain.engine.execute(sql, method=method))
            for method in ("scan", "bitmap", "layered")
        }
        assert results["scan"] == results["bitmap"] == results["layered"]

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM transfer, distribute "
        "ON transfer.organization = distribute.organization",
        "SELECT * FROM donate, transfer ON donate.amount = transfer.amount",
    ])
    def test_join_shapes(self, chain, sql):
        keys = {}
        for method in ("scan", "bitmap", "layered"):
            result = chain.engine.execute(sql, method=method)
            keys[method] = sorted(
                (row[0], row[len(row) // 2]) for row in result.rows
            )
        assert keys["scan"] == keys["bitmap"] == keys["layered"]

    def test_onoff_join_shapes(self, chain):
        sql = ("SELECT * FROM onchain.distribute, offchain.doneeinfo "
               "ON distribute.donee = doneeinfo.donee")
        keys = {
            method: sorted(row[0] for row in chain.engine.execute(sql, method=method).rows)
            for method in ("scan", "bitmap", "layered")
        }
        assert keys["scan"] == keys["bitmap"] == keys["layered"]


class TestCorrectnessAgainstGroundTruth:
    def test_range_matches_truth(self, chain):
        result = chain.engine.execute(
            "SELECT * FROM donate WHERE amount BETWEEN 200 AND 500"
        )
        truth = chain.txs_matching(
            lambda tx: tx.tname == "donate" and 200 <= tx.values[2] <= 500
        )
        assert tids(result) == sorted(tx.tid for tx in truth)

    def test_trace_matches_truth(self, chain):
        result = chain.engine.execute("TRACE OPERATOR = 'org1'")
        truth = chain.txs_matching(lambda tx: tx.senid == "org1")
        assert tids(result) == sorted(tx.tid for tx in truth)

    def test_two_dim_trace_matches_truth(self, chain):
        result = chain.engine.execute(
            "TRACE OPERATOR = 'org2', OPERATION = 'transfer'"
        )
        truth = chain.txs_matching(
            lambda tx: tx.senid == "org2" and tx.tname == "transfer"
        )
        assert tids(result) == sorted(tx.tid for tx in truth)

    def test_window_matches_truth(self, chain):
        result = chain.engine.execute(
            "SELECT * FROM donate WHERE amount > 0 WINDOW [250, 610]"
        )
        truth = chain.txs_matching(
            lambda tx: tx.tname == "donate" and 250 <= tx.ts <= 610
        )
        assert tids(result) == sorted(tx.tid for tx in truth)

    def test_join_matches_truth(self, chain):
        result = chain.engine.execute(
            "SELECT * FROM transfer, distribute "
            "ON transfer.organization = distribute.organization"
        )
        transfers = chain.txs_matching(lambda tx: tx.tname == "transfer")
        distributes = chain.txs_matching(lambda tx: tx.tname == "distribute")
        expected = sum(
            1 for t in transfers for d in distributes
            if t.values[2] == d.values[2]
        )
        assert len(result) == expected

    def test_onoff_matches_truth(self, chain):
        result = chain.engine.execute(
            "SELECT * FROM onchain.distribute, offchain.doneeinfo "
            "ON distribute.donee = doneeinfo.donee"
        )
        known = {"tom", "amy", "sue"}
        expected = len(chain.txs_matching(
            lambda tx: tx.tname == "distribute" and tx.values[3] in known
        ))
        assert len(result) == expected


class TestProjectionAndResult:
    def test_star_returns_all_columns(self, chain):
        result = chain.engine.execute("SELECT * FROM donate LIMIT 1")
        assert result.columns == chain.catalog.get("donate").column_names

    def test_projection_columns(self, chain):
        result = chain.engine.execute("SELECT donor, amount FROM donate LIMIT 3")
        assert result.columns == ("donor", "amount")
        assert all(len(row) == 2 for row in result.rows)

    def test_limit(self, chain):
        result = chain.engine.execute("SELECT * FROM donate LIMIT 5")
        assert len(result) == 5

    def test_dicts_view(self, chain):
        result = chain.engine.execute("SELECT donor, amount FROM donate LIMIT 1")
        d = result.dicts()[0]
        assert set(d) == {"donor", "amount"}

    def test_column_view(self, chain):
        result = chain.engine.execute("SELECT amount FROM donate LIMIT 4")
        assert len(result.column("amount")) == 4

    def test_cost_attached(self, chain):
        chain.store.cost.reset()
        result = chain.engine.execute("SELECT * FROM donate", method="scan")
        assert result.cost is not None
        assert result.cost.seeks > 0

    def test_join_column_names_qualified(self, chain):
        result = chain.engine.execute(
            "SELECT * FROM transfer, distribute "
            "ON transfer.organization = distribute.organization"
        )
        assert "transfer.organization" in result.columns
        assert "distribute.donee" in result.columns


class TestGetBlock:
    def test_by_id(self, chain):
        result = chain.engine.execute("GET BLOCK ID = 4")
        assert result.block.height == 4
        assert len(result.rows) == len(result.block.transactions)

    def test_by_tid(self, chain):
        result = chain.engine.execute("GET BLOCK TID = ?", (30,))
        assert any(tx.tid == 30 for tx in result.transactions)

    def test_by_ts(self, chain):
        result = chain.engine.execute("GET BLOCK TS = ?", (399,))
        assert result.block.height == 3

    def test_missing_block(self, chain):
        with pytest.raises(QueryError):
            chain.engine.execute("GET BLOCK ID = 999")


class TestErrors:
    def test_unknown_table(self, chain):
        with pytest.raises(CatalogError):
            chain.engine.execute("SELECT * FROM ghosts")

    def test_writes_rejected(self, chain):
        with pytest.raises(QueryError):
            chain.engine.execute("INSERT INTO donate VALUES ('a', 'b', 1)")
        with pytest.raises(QueryError):
            chain.engine.execute("CREATE x (a int)")

    def test_unknown_method(self, chain):
        with pytest.raises(QueryError):
            chain.engine.execute("SELECT * FROM donate", method="turbo")

    def test_forced_layered_without_index(self, chain):
        with pytest.raises(QueryError):
            chain.engine.execute(
                "SELECT * FROM donate WHERE project = 'edu'", method="layered"
            )

    def test_offchain_join_without_db(self, chain):
        from repro.query import QueryEngine

        bare = QueryEngine(chain.store, chain.indexes, chain.catalog, None)
        with pytest.raises(CatalogError):
            bare.execute(
                "SELECT * FROM onchain.distribute, offchain.doneeinfo "
                "ON distribute.donee = doneeinfo.donee"
            )


class TestOffchainSelect:
    def test_select_offchain_table(self, chain):
        result = chain.engine.execute("SELECT * FROM offchain.doneeinfo")
        assert len(result) == 3
        assert result.access_path == "offchain"

    def test_offchain_where(self, chain):
        result = chain.engine.execute(
            "SELECT * FROM offchain.doneeinfo WHERE income > 60"
        )
        assert len(result) == 2

    def test_offchain_projection(self, chain):
        result = chain.engine.execute(
            "SELECT name FROM offchain.doneeinfo LIMIT 2"
        )
        assert result.columns == ("name",)
        assert len(result) == 2


class TestPlanner:
    def test_selective_range_picks_cheapest(self, chain):
        result = chain.engine.execute(
            "SELECT * FROM donate WHERE amount BETWEEN 100 AND 110"
        )
        assert result.access_path in ("layered", "bitmap")

    def test_no_predicate_never_layered(self, chain):
        result = chain.engine.execute("SELECT * FROM donate")
        assert result.access_path in ("scan", "bitmap")

    def test_or_predicate_falls_back(self, chain):
        result = chain.engine.execute(
            "SELECT * FROM donate WHERE amount < 50 OR amount > 900"
        )
        truth = chain.txs_matching(
            lambda tx: tx.tname == "donate"
            and (tx.values[2] < 50 or tx.values[2] > 900)
        )
        assert len(result) == len(truth)
        assert result.access_path in ("scan", "bitmap")


class TestDecodePushdown:
    """Whole-block leaves decode the tuples of their table or sender only;
    the modelled I/O and the rows are what a whole-block decode gave."""

    #: (sql, forced method, which ground-truth tuples the leaf may decode)
    STATEMENTS = [
        ("SELECT * FROM distribute", "bitmap",
         lambda tx: tx.tname == "distribute"),
        ("SELECT * FROM transfer, distribute "
         "ON transfer.organization = distribute.organization", "bitmap",
         lambda tx: tx.tname in ("transfer", "distribute")),
        ("TRACE OPERATOR = 'org1'", "scan",
         lambda tx: tx.senid == "org1"),
    ]
    #: EXPLAIN ANALYZE at the parent of the pushdown (PR 18), wall_ms cut
    PINNED = [
        ["Project(*)  (rows_in=70 rows=70)",
         "   -> BitmapScan(distribute, blocks=10)  (rows=70 seeks=10 "
         "pages=10 io_ms=41.000 est_ms=41.000 drift=+0.0%)"],
        ["JoinRows(*)  (rows_in=1962 rows=1962)",
         "   -> HashJoin(transfer x distribute, blocks=10)  (rows=1962 "
         "seeks=10 pages=10 io_ms=41.000)"],
        ["Output(tid, ts, senid, tname, values)  (rows_in=70 rows=70)",
         "   -> TraceScan(blocks=11, operator='org1')  (rows=70 seeks=11 "
         "pages=11 io_ms=45.100)"],
    ]

    @pytest.mark.parametrize("sql,method,wanted", STATEMENTS)
    def test_decodes_exactly_the_named_rows(self, chain, monkeypatch, sql,
                                            method, wanted):
        decoded = []
        original = Transaction.from_bytes.__func__

        def counting(cls, data):
            tx = original(cls, data)
            decoded.append(tx)
            return tx

        monkeypatch.setattr(Transaction, "from_bytes", classmethod(counting))
        result = chain.engine.execute(sql, method=method)
        assert len(result) > 0
        # the candidate blocks hold every table and sender (a whole-block
        # decode reads all 240 tuples, plus the genesis for the scan)
        expected = chain.txs_matching(wanted)
        assert 0 < len(expected) < len(chain.all_txs)
        assert sorted(tx.tid for tx in decoded) == \
            sorted(tx.tid for tx in expected)

    @pytest.mark.parametrize(
        "statement,pinned", zip(STATEMENTS, PINNED),
        ids=["bitmap-scan", "hash-join", "trace-scan"])
    def test_explain_analyze_counts_are_the_parents(self, chain, statement,
                                                    pinned):
        sql, method, _wanted = statement
        result = chain.engine.execute(f"EXPLAIN ANALYZE {sql}", method=method)
        lines = [re.sub(r" wall_ms=[0-9.]+", "", line)
                 for (line,) in result.rows]
        assert lines[:2] == pinned


class TestSelfJoin:
    """An aliased self-join offers every tuple to both hash-join sides."""

    SQL = "SELECT * FROM donate a, donate b ON a.donor = b.donor"

    @pytest.fixture()
    def node(self):
        node = FullNode("n0")
        node.execute("CREATE TABLE donate (donor string, amount decimal)")
        for donor, amount in (("ann", 1.0), ("bob", 2.0),
                              ("ann", 3.0), ("bob", 4.0)):
            node.insert("donate", (donor, amount))
        node.create_index("donor", table="donate")
        yield node
        node.close()

    PAIRS = [(1.0, 1.0), (1.0, 3.0), (2.0, 2.0), (2.0, 4.0),
             (3.0, 1.0), (3.0, 3.0), (4.0, 2.0), (4.0, 4.0)]

    @pytest.mark.parametrize("method", [None, "scan", "bitmap", "layered"])
    def test_two_donors_two_rows_each(self, node, method):
        result = node.query(self.SQL, method=method)
        pairs = sorted((row[6], row[13]) for row in result.rows)
        assert pairs == self.PAIRS

    @staticmethod
    def every_candidate(node, sql):
        """The rows of ``sql`` under every plan the optimizer enumerates."""
        optimizer = node.engine.optimizer
        ranked = optimizer.rank(parse(sql))
        assert len(ranked) > 1
        return [sorted(row for _tx, row in optimizer.force(c).root.execute())
                for c in ranked]

    def test_aliases_qualify_where(self, node):
        sql = self.SQL + " WHERE a.amount > 2 AND (a.amount > 3 OR b.amount < 3)"
        for rows in self.every_candidate(node, sql):
            assert [(row[6], row[13]) for row in rows] == \
                [(3.0, 1.0), (4.0, 2.0), (4.0, 4.0)]

    def test_aliases_qualify_projection(self, node):
        sql = "SELECT b.amount, a.amount FROM donate a, donate b ON a.donor = b.donor"
        for rows in self.every_candidate(node, sql):
            assert rows == sorted((right, left) for left, right in self.PAIRS)
        assert node.query(sql).columns == ("b.amount", "a.amount")
        assert node.query(self.SQL).columns[5:7] == ("a.donor", "a.amount")

    @pytest.mark.parametrize("sql", [
        SQL + " WHERE amount > 2",
        SQL + " WHERE donate.amount > 2",
        "SELECT amount FROM donate a, donate b ON a.donor = b.donor",
        "SELECT donate.amount FROM donate a, donate b ON a.donor = b.donor",
    ])
    def test_unaliased_self_join_columns_stay_ambiguous(self, node, sql):
        with pytest.raises(QueryError, match="ambiguous column 'amount'"):
            node.query(sql)

    def test_plain_query_leaves_the_timers_off(self, node):
        result = node.query(self.SQL)
        assert [op.stats.wall_ms for op in result.plan.operators()] == \
            [0.0] * len(result.plan.operators())
        assert result.plan.root.stats.rows_out == len(self.PAIRS)
        analyzed = node.query("EXPLAIN ANALYZE " + self.SQL)
        ops = [line for (line,) in analyzed.rows][:len(analyzed.plan.operators())]
        assert all(re.search(r" wall_ms=[0-9.]+\)$", line) for line in ops)
