"""Tests for blocks, genesis and chain verification."""

import pytest

from repro.common.errors import StorageError
from repro.model import (
    Block,
    Catalog,
    GENESIS_PREV_HASH,
    TableSchema,
    Transaction,
    iter_table,
    make_genesis,
    verify_chain,
)
from repro.model.block import BlockHeader


def make_txs(count: int, tname: str = "donate", start_tid: int = 0):
    return [
        Transaction.create(tname, (f"v{i}",), ts=i, sender="s").with_tid(start_tid + i)
        for i in range(count)
    ]


class TestBlockPackaging:
    def test_package_sets_header(self):
        txs = make_txs(3)
        block = Block.package(GENESIS_PREV_HASH, 0, 99, txs, packager="p")
        assert block.height == 0
        assert block.timestamp == 99
        assert block.header.packager == "p"
        assert block.first_tid == 0 and block.last_tid == 2

    def test_unsequenced_tx_rejected(self):
        tx = Transaction.create("t", (), ts=0, sender="s")
        with pytest.raises(StorageError):
            Block.package(GENESIS_PREV_HASH, 0, 0, [tx])

    def test_trans_root_verifies(self):
        block = Block.package(GENESIS_PREV_HASH, 0, 0, make_txs(5))
        assert block.verify_trans_root()

    def test_tampering_breaks_root(self):
        block = Block.package(GENESIS_PREV_HASH, 0, 0, make_txs(5))
        block.transactions[2].values = ("tampered",)
        assert not block.verify_trans_root()

    def test_signed_block(self, keypair):
        block = Block.package(GENESIS_PREV_HASH, 0, 0, make_txs(1),
                              keypair=keypair)
        assert keypair.verify(block.header.hash_payload(),
                              block.header.signature)

    def test_empty_block_has_no_first_tid(self):
        block = Block.package(GENESIS_PREV_HASH, 0, 0, [])
        with pytest.raises(StorageError):
            _ = block.first_tid

    def test_table_names(self):
        txs = make_txs(2, "a") + make_txs(2, "b", start_tid=2)
        block = Block.package(GENESIS_PREV_HASH, 0, 0, txs)
        assert block.table_names() == {"a", "b"}

    def test_iter_table(self):
        txs = make_txs(2, "a") + make_txs(3, "b", start_tid=2)
        block = Block.package(GENESIS_PREV_HASH, 0, 0, txs)
        assert len(list(iter_table(block, "b"))) == 3
        assert len(list(iter_table(block, "A"))) == 2


class TestSerialization:
    def test_roundtrip(self, keypair):
        block = Block.package(GENESIS_PREV_HASH, 4, 77, make_txs(6),
                              packager="x", keypair=keypair)
        restored = Block.from_bytes(block.to_bytes())
        assert restored == block
        assert restored.block_hash() == block.block_hash()

    def test_trailing_bytes_rejected(self):
        block = Block.package(GENESIS_PREV_HASH, 0, 0, make_txs(1))
        from repro.common.errors import CodecError
        with pytest.raises(CodecError):
            Block.from_bytes(block.to_bytes() + b"\x00")

    def test_header_roundtrip(self):
        header = BlockHeader(
            prev_hash=b"\x01" * 32, height=9, timestamp=100,
            trans_root=b"\x02" * 32, packager="me", signature=b"sig",
        )
        assert BlockHeader.from_bytes(header.to_bytes()) == header

    def test_hash_excludes_signature(self):
        header = BlockHeader(b"\x00" * 32, 0, 0, b"\x00" * 32, "p", b"")
        signed = BlockHeader(b"\x00" * 32, 0, 0, b"\x00" * 32, "p", b"sig")
        assert header.block_hash() == signed.block_hash()


class TestGenesisAndChain:
    def test_genesis_prev_hash(self):
        assert make_genesis().header.prev_hash == GENESIS_PREV_HASH

    def test_genesis_carries_schemas(self):
        schema = TableSchema.create("t", [("a", "int")])
        genesis = make_genesis(0, [schema])
        catalog = Catalog()
        catalog.apply_transactions(genesis.transactions)
        assert "t" in catalog

    def test_verify_chain_accepts_valid(self):
        genesis = make_genesis()
        b1 = Block.package(genesis.block_hash(), 1, 1, make_txs(2))
        b2 = Block.package(b1.block_hash(), 2, 2, make_txs(2, start_tid=2))
        assert verify_chain([genesis, b1, b2])

    def test_verify_chain_rejects_broken_link(self):
        genesis = make_genesis()
        b1 = Block.package(b"\xab" * 32, 1, 1, make_txs(2))
        assert not verify_chain([genesis, b1])

    def test_verify_chain_rejects_wrong_height(self):
        genesis = make_genesis()
        b1 = Block.package(genesis.block_hash(), 5, 1, make_txs(2))
        assert not verify_chain([genesis, b1])

    def test_verify_chain_rejects_tampered_tx(self):
        genesis = make_genesis()
        b1 = Block.package(genesis.block_hash(), 1, 1, make_txs(2))
        b1.transactions[0].values = ("evil",)
        assert not verify_chain([genesis, b1])
