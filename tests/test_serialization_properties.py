"""Hypothesis property tests on block/store serialization invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SebdbConfig
from repro.common.errors import QueryError
from repro.model import Block, GENESIS_PREV_HASH, Transaction
from repro.storage import BlockStore

value_strategy = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**48), max_value=2**48),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=24),
    st.binary(max_size=24),
)

tx_strategy = st.builds(
    lambda tname, values, ts, sender, tid: Transaction.create(
        tname, values, ts=ts, sender=sender
    ).with_tid(tid),
    tname=st.text(alphabet="abcdef", min_size=1, max_size=6),
    values=st.lists(value_strategy, max_size=6),
    ts=st.integers(0, 2**40),
    sender=st.text(alphabet="xyz123", min_size=1, max_size=8),
    tid=st.integers(0, 2**40),
)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(tx_strategy, max_size=12), st.integers(0, 2**40))
def test_block_roundtrip_property(txs, timestamp):
    block = Block.package(GENESIS_PREV_HASH, 0, timestamp, txs)
    restored = Block.from_bytes(block.to_bytes())
    assert restored == block
    assert restored.block_hash() == block.block_hash()
    assert restored.verify_trans_root()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.lists(tx_strategy, min_size=1, max_size=6),
                min_size=1, max_size=5),
       st.lists(st.integers(0, 63), max_size=12))
def test_store_point_reads_match_block_reads(blocks_of_txs, picks):
    """read_transaction(h, i) == read_block(h).transactions[i], always;
    so is the positional read over any position list, unsorted and with
    duplicates, decoded or as the stored records."""
    store = BlockStore(SebdbConfig.in_memory(cache_mode="none"))
    prev = b"\x00" * 32
    for height, txs in enumerate(blocks_of_txs):
        # re-sequence tids so packaging accepts arbitrary generated values
        sequenced = [tx.with_tid(height * 100 + i)
                     for i, tx in enumerate(txs)]
        block = Block.package(prev, height, height, sequenced)
        store.append_block(block)
        prev = block.block_hash()
    for height in range(store.height):
        block = store.read_block(height)
        count = store.transactions_in_block(height)
        for i in range(count):
            assert store.read_transaction(height, i) == block.transactions[i]
        positions = [pick % count for pick in picks]
        expected = [block.transactions[i] for i in positions]
        assert list(store.read_positions(height, positions)) == expected
        assert store.read_records_at(height, positions) == [
            tx.to_bytes() for tx in expected]


class TestGetBlockEdges:
    def test_ts_before_first_block(self, chain):
        with pytest.raises(QueryError):
            chain.engine.execute("GET BLOCK TS = ?", (-5,))

    def test_ts_after_last_block_returns_tip(self, chain):
        result = chain.engine.execute("GET BLOCK TS = ?", (10**9,))
        assert result.block.height == chain.store.height - 1

    def test_tid_between_blocks(self, chain):
        # a tid that is in no block (beyond the last one)
        with pytest.raises(QueryError):
            chain.engine.execute("GET BLOCK TID = ?", (10**9,))

    def test_genesis_lookup(self, chain):
        result = chain.engine.execute("GET BLOCK ID = 0")
        assert result.block.height == 0
