"""The paper's cost equations (1)-(3) hold *exactly* on the counters.

We build a chain where the arithmetic is fully controlled and assert the
I/O the access paths record equals the closed forms:

    C_no_index  = n * t_S + (f * n / b) * t_T          (eq. 1)
    C_bitmap    = k * t_S + (f * k / b) * t_T          (eq. 2)
    C_layered   = p * t_S + p * t_T                    (eq. 3)
"""

import pytest

from repro.common.config import SebdbConfig
from repro.index import IndexManager
from repro.model import Block, Catalog, TableSchema, Transaction, make_genesis
from repro.query import QueryEngine
from repro.storage import BlockStore

SCHEMA = TableSchema.create("donate", [("donor", "string"),
                                       ("amount", "decimal")])

NUM_BLOCKS = 12
TXS_PER_BLOCK = 10
#: blocks containing the 'donate' table (others hold a different table)
DONATE_BLOCKS = {2, 5, 8, 11}
#: matching tuples (amount == 42.0) per donate block
MATCHES_PER_BLOCK = 3


@pytest.fixture(scope="module")
def setup():
    store = BlockStore(SebdbConfig.in_memory(cache_mode="none"))
    catalog = Catalog()
    other = TableSchema.create("other", [("x", "string")])
    genesis = make_genesis(0, [SCHEMA, other])
    store.append_block(genesis)
    catalog.apply_transactions(genesis.transactions)
    indexes = IndexManager(store, order=8, histogram_depth=4)
    prev = store.tip_hash
    tid = 2
    for height in range(1, NUM_BLOCKS + 1):
        txs = []
        for i in range(TXS_PER_BLOCK):
            ts = height * 100 + i
            if height in DONATE_BLOCKS:
                amount = 42.0 if i < MATCHES_PER_BLOCK else 9_000.0 + i
                tx = Transaction.create("donate", (f"d{i}", amount),
                                        ts=ts, sender="s")
            else:
                tx = Transaction.create("other", (f"x{i}",), ts=ts, sender="s")
            txs.append(tx.with_tid(tid))
            tid += 1
        block = Block.package(prev, height, height * 100 + 99, txs)
        store.append_block(block)
        prev = block.block_hash()
    indexes.create_layered_index("amount", table="donate", schema=SCHEMA)
    engine = QueryEngine(store, indexes, catalog)
    store.cost.reset()
    return store, engine


def run(engine, store, method):
    store.cost.reset()
    before = store.cost.snapshot()
    result = engine.execute(
        "SELECT * FROM donate WHERE amount = 42.0", method=method
    )
    return result, store.cost.snapshot().delta(before)


class TestEquation1Scan:
    def test_seeks_equal_chain_height(self, setup):
        store, engine = setup[0], setup[1]
        result, delta = run(engine, store, "scan")
        n = store.height
        assert delta.seeks == n
        assert len(result) == len(DONATE_BLOCKS) * MATCHES_PER_BLOCK

    def test_transfers_equal_total_pages(self, setup):
        store, engine = setup[0], setup[1]
        _, delta = run(engine, store, "scan")
        expected_pages = sum(
            store.cost.pages_for(store.block_size(h))
            for h in range(store.height)
        )
        assert delta.page_transfers == expected_pages

    def test_elapsed_matches_closed_form(self, setup):
        store, engine = setup[0], setup[1]
        _, delta = run(engine, store, "scan")
        cost = store.cost
        expected = delta.seeks * cost.seek_ms + delta.page_transfers * cost.transfer_ms
        assert delta.elapsed_ms == pytest.approx(expected)


class TestEquation2Bitmap:
    def test_seeks_equal_k(self, setup):
        store, engine = setup[0], setup[1]
        _, delta = run(engine, store, "bitmap")
        assert delta.seeks == len(DONATE_BLOCKS)  # k, not n

    def test_bitmap_cheaper_than_scan(self, setup):
        store, engine = setup[0], setup[1]
        _, scan = run(engine, store, "scan")
        _, bitmap = run(engine, store, "bitmap")
        assert bitmap.elapsed_ms < scan.elapsed_ms
        assert bitmap.bytes_read < scan.bytes_read


class TestEquation3Layered:
    def test_seeks_equal_p(self, setup):
        store, engine = setup[0], setup[1]
        result, delta = run(engine, store, "layered")
        p = len(result)
        assert p == len(DONATE_BLOCKS) * MATCHES_PER_BLOCK
        assert delta.seeks == p  # one random I/O per matching tuple

    def test_one_page_per_tuple(self, setup):
        store, engine = setup[0], setup[1]
        result, delta = run(engine, store, "layered")
        # each transaction fits in one page at the default page size
        assert delta.page_transfers == len(result)

    def test_elapsed_is_p_times_unit_cost(self, setup):
        store, engine = setup[0], setup[1]
        result, delta = run(engine, store, "layered")
        cost = store.cost
        assert delta.elapsed_ms == pytest.approx(
            cost.estimate_layered(len(result))
        )


class TestCrossoverRegime:
    """Eq. 2 vs eq. 3: bitmap wins once p grows past k * pages_per_block,
    the regime the paper calls out ('if the size of query result is large,
    using table-level bitmap index may outperform layered index')."""

    def test_selective_query_layered_wins(self, setup):
        store, engine = setup[0], setup[1]
        _, bitmap = run(engine, store, "bitmap")
        _, layered = run(engine, store, "layered")
        # p = 12 tuples vs k = 4 whole blocks: depends on calibration;
        # with the default 4 KB pages each block is ~1 page, so bitmap is
        # close - assert the counters, not the winner
        assert layered.seeks == 12 and bitmap.seeks == 4

    def test_unselective_query_prefers_bitmap(self, setup):
        store, engine = setup[0], setup[1]
        store.cost.reset()
        before = store.cost.snapshot()
        result = engine.execute(
            "SELECT * FROM donate WHERE amount > 0", method="layered"
        )
        layered = store.cost.snapshot().delta(before)
        store.cost.reset()
        before = store.cost.snapshot()
        engine.execute("SELECT * FROM donate WHERE amount > 0",
                       method="bitmap")
        bitmap = store.cost.snapshot().delta(before)
        # every donate tuple matches: layered pays one seek each, bitmap
        # pays one seek per donate block
        assert layered.seeks == len(result)
        assert bitmap.seeks == len(DONATE_BLOCKS)
        assert bitmap.seeks < layered.seeks
