"""Branch-coverage tests for tracking and layered fallbacks."""

import pytest

from repro.bench.generator import build_tracking_dataset, create_standard_indexes
from repro.common.errors import ParseError, QueryError
from repro.index import IndexManager
from repro.model import Block, Catalog, TableSchema, Transaction, make_genesis
from repro.query import AccessPath, QueryEngine
from repro.query.engine import run_plan
from repro.query.logical import LTrace, LogicalPlan
from repro.query.plan import TraceDecision
from repro.sqlparser import nodes, parse
from repro.storage import BlockStore

SCHEMA = TableSchema.create("ev", [("kind", "string"), ("v", "decimal")])


def bare_chain(with_indexes: bool):
    """A small chain, optionally without any layered indexes."""
    store = BlockStore()
    catalog = Catalog()
    genesis = make_genesis(0, [SCHEMA])
    store.append_block(genesis)
    catalog.apply_transactions(genesis.transactions)
    indexes = IndexManager(store, order=6, histogram_depth=4)
    prev = store.tip_hash
    tid = 1
    for height in range(1, 5):
        txs = []
        for i in range(6):
            tx = Transaction.create(
                "ev", (f"k{i % 2}", float(i)), ts=height * 10 + i,
                sender=f"org{i % 3}",
            ).with_tid(tid)
            tid += 1
            txs.append(tx)
        block = Block.package(prev, height, height * 10 + 9, txs)
        store.append_block(block)
        prev = block.block_hash()
    if with_indexes:
        indexes.create_layered_index("senid")
        indexes.create_layered_index("tname")
    return store, indexes, catalog


def engine_for(with_indexes: bool) -> QueryEngine:
    store, indexes, catalog = bare_chain(with_indexes)
    return QueryEngine(store, indexes, catalog)


class TestTrackingBranches:
    def test_operation_only_layered(self):
        result = engine_for(True).execute(
            "TRACE OPERATION = 'ev'", method="layered"
        )
        assert result.access_path == "layered"
        assert len(result) == 24

    def test_operation_only_without_tname_index(self):
        with pytest.raises(QueryError):
            engine_for(False).execute(
                "TRACE OPERATION = 'ev'", method="layered"
            )

    def test_operator_without_senid_index(self):
        with pytest.raises(QueryError):
            engine_for(False).execute(
                "TRACE OPERATOR = 'org1'", method="layered"
            )

    def test_default_method_degrades_to_bitmap(self):
        result = engine_for(False).execute("TRACE OPERATOR = 'org1'")
        assert result.access_path == "bitmap"  # no senid index
        assert len(result) == 8

    def test_no_dimension_rejected(self):
        """Both ways a dimensionless TRACE can still arrive."""
        engine = engine_for(True)
        with pytest.raises(ParseError):
            engine.execute("TRACE")
        stmt = nodes.Trace(operator=None, operation=None, window=None)
        with pytest.raises(QueryError):
            engine.planner.build(
                LogicalPlan(LTrace(None, None, None), (), stmt),
                TraceDecision(AccessPath.LAYERED),
            )

    def test_undecided_trace_rejected(self):
        """The builder takes no decision of its own."""
        engine = engine_for(True)
        lplan = engine.planner.lower(parse("TRACE OPERATOR = 'org1'"))
        with pytest.raises(QueryError):
            engine.planner.build(lplan)

    def test_unknown_operator_empty(self):
        engine = engine_for(True)
        for method in (AccessPath.SCAN, AccessPath.BITMAP, AccessPath.LAYERED):
            result = engine.execute("TRACE OPERATOR = 'nobody'", method=method)
            assert result.transactions == []

    def test_single_index_variant_reads_more_for_the_same_answer(self):
        """Fig 10's SI*/TI* pair: with ``use_operation_index=False`` only
        the SenID index prunes and Tname is filtered after the read."""
        dataset = build_tracking_dataset(
            12, 20, 10, operator_extra=30, operation_extra=30
        )
        create_standard_indexes(dataset)
        planner = dataset.node.engine.planner
        lplan = planner.lower(
            parse("TRACE OPERATOR = 'org1', OPERATION = 'transfer'")
        )
        results = {}
        for two_index in (False, True):
            dataset.store.clear_caches()
            results[two_index] = run_plan(planner.build(
                lplan, TraceDecision(AccessPath.LAYERED, two_index)
            ))
        single, two = results[False], results[True]
        assert [t.tid for t in single.transactions] == [
            t.tid for t in two.transactions
        ]
        assert len(two) == 10
        assert single.cost.seeks >= two.cost.seeks
        assert single.cost.seeks > 10  # it read org1's other transactions too
        # the optimizer's forced-layered TRACE is the two-index variant
        forced = dataset.node.query(lplan.statement, method="layered")
        assert [t.tid for t in forced.transactions] == [
            t.tid for t in two.transactions
        ]

    def test_global_senid_index_on_table_select(self):
        """A table-scoped query can fall back to the global senid index."""
        store, indexes, catalog = bare_chain(with_indexes=True)
        engine = QueryEngine(store, indexes, catalog)
        layered = engine.execute(
            "SELECT * FROM ev WHERE senid = 'org2'", method="layered"
        )
        scan = engine.execute(
            "SELECT * FROM ev WHERE senid = 'org2'", method="scan"
        )
        assert sorted(t.tid for t in layered.transactions) == sorted(
            t.tid for t in scan.transactions
        )
