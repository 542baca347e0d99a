"""Tests for crash recovery: re-opening a node from its segment files."""

import gc
import os
import weakref

import pytest

from repro.common.codec import Writer
from repro.common.config import SebdbConfig
from repro.common.errors import CodecError, StorageError
from repro.model import Block, Transaction, make_genesis, verify_chain
from repro.model import transaction as transaction_module
from repro.node import FullNode, SebdbNetwork
from repro.storage import BlockStore


def durable_config(tmp_path, **overrides):
    return SebdbConfig.in_memory(data_dir=tmp_path, **overrides)


class TestBlockStoreRecovery:
    def test_recover_empty_dir(self, tmp_path):
        store = BlockStore(durable_config(tmp_path))
        assert store.height == 0

    def test_roundtrip_after_reopen(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE t (a string, b decimal)")
        for i in range(12):
            node.insert("t", (f"v{i}", float(i)), sender=f"org{i % 2}")
        original_tip = node.store.tip_hash
        original_height = node.store.height
        del node

        recovered = BlockStore(durable_config(tmp_path))
        assert recovered.height == original_height
        assert recovered.tip_hash == original_tip
        assert verify_chain(recovered.iter_blocks())

    def test_point_reads_after_recovery(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE t (a string)")
        node.insert("t", ("first",))
        node.insert("t", ("second",))
        del node

        store = BlockStore(durable_config(tmp_path))
        # blocks: 0 genesis, 1 schema, 2 first, 3 second
        tx = store.read_transaction(3, 0)
        assert tx.values == ("second",)

    def test_segment_rollover_recovery(self, tmp_path):
        config = durable_config(tmp_path, segment_file_size=600)
        node = FullNode("n0", config=config)
        node.create_table("CREATE t (a string)")
        for i in range(10):
            node.insert("t", (f"payload-{i}" * 4,))
        height = node.store.height
        del node

        store = BlockStore(durable_config(tmp_path, segment_file_size=600))
        assert store.height == height
        assert verify_chain(store.iter_blocks())

    def test_torn_tail_truncated(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE t (a string)")
        node.insert("t", ("committed",))
        del node
        # simulate a torn write: append garbage to the active segment
        segment = sorted(tmp_path.glob("segment-*.dat"))[-1]
        with open(segment, "ab") as fh:
            fh.write(b"\x55" * 17)

        store = BlockStore(durable_config(tmp_path))
        assert store.height == 3  # genesis + schema + one insert
        assert verify_chain(store.iter_blocks())

    def test_multi_byte_length_record_survives_reopen(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE t (a string)")
        node.insert("t", ("long-" * 60,))
        node.insert("t", ("short",))
        _header, records = node.store.read_records(2)
        assert len(records[0]) >= 128  # a two-byte length prefix
        height, tip = node.store.height, node.store.tip_hash
        node.close()

        store = BlockStore(durable_config(tmp_path))
        assert (store.height, store.tip_hash) == (height, tip)
        assert store.read_transaction(2, 0).values == ("long-" * 60,)
        assert store.read_transaction(3, 0).values == ("short",)
        assert verify_chain(store.iter_blocks())

    def test_tail_cut_inside_a_length_prefix(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE t (a string)")
        node.insert("t", ("committed",))
        node.insert("t", ("torn-" * 60,))
        last = node.store.height - 1
        _header, records = node.store.read_records(last)
        location = node.store.location(last)
        node.close()
        path = tmp_path / f"segment-{location.segment:06d}.dat"
        data = path.read_bytes()
        at = data.index(records[0], location.offset)
        assert data[at - 2] & 0x80 and not data[at - 1] & 0x80
        os.truncate(path, at - 1)  # keep the prefix's first byte only

        store = BlockStore(durable_config(tmp_path))
        assert store.height == last  # stops at the last complete block
        assert store.read_transaction(last - 1, 0).values == ("committed",)
        assert verify_chain(store.iter_blocks())

    def test_tampered_block_stops_recovery(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE t (a string)")
        node.insert("t", ("x",))
        loc = node.store.location(2)
        del node
        # flip one byte inside block 2 on disk
        segment = sorted(tmp_path.glob("segment-*.dat"))[0]
        data = bytearray(segment.read_bytes())
        data[loc.offset + loc.length - 1] ^= 0xFF
        segment.write_bytes(bytes(data))

        store = BlockStore(durable_config(tmp_path))
        assert store.height == 2  # recovery stops before the bad block


def junk_block_bytes(block):
    """``block`` encoded with ``b"JUNK"`` appended to its first transaction
    record, that record's length prefix fixed to cover it."""
    writer = Writer()
    writer.write_bytes(block.header.to_bytes())
    writer.write_varint(len(block.transactions))
    for i, tx in enumerate(block.transactions):
        writer.write_bytes(tx.to_bytes() + (b"JUNK" if i == 0 else b""))
    return writer.getvalue()


class TestUncoveredBytes:
    """A stored transaction record may hold no byte its Merkle leaf does
    not cover: trailing bytes used to decode to the honest block and pass
    ``verify_trans_root()``."""

    @pytest.fixture()
    def block(self):
        genesis = make_genesis()
        txs = [Transaction.create("donate", (f"d{i}", float(i)), ts=i,
                                  sender="org1").with_tid(i) for i in range(3)]
        return genesis, Block.package(genesis.block_hash(), 1, 9, txs)

    def test_block_decode_refuses_it(self, block):
        _genesis, honest = block
        junk = junk_block_bytes(honest)
        assert junk != honest.to_bytes()
        with pytest.raises(CodecError, match="4 trailing bytes after transaction"):
            Block.from_bytes(junk)

    @pytest.mark.parametrize("checkpoint", [False, True],
                             ids=["full-verify", "trusted-checkpoint"])
    def test_reopened_store_refuses_it(self, tmp_path, block, checkpoint):
        genesis, honest = block
        store = BlockStore(durable_config(tmp_path))
        store.append_block(genesis)
        store.simulate_torn_append(junk_block_bytes(honest))
        # even below a checkpoint naming this very block, where the Merkle
        # check is skipped, the record does not decode
        anchor = (2, honest.block_hash()) if checkpoint else None
        reopened = BlockStore(durable_config(tmp_path), trusted_checkpoint=anchor)
        assert reopened.height == 1
        assert reopened.recovery_report["trusted_fallback"] is checkpoint


class TestFullNodeRecovery:
    def test_node_resumes_with_catalog_and_tids(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE donate (donor string, amount decimal)")
        for i in range(5):
            node.insert("donate", (f"d{i}", float(i)))
        del node

        reopened = FullNode("n0", config=durable_config(tmp_path))
        assert "donate" in reopened.catalog
        result = reopened.query("SELECT * FROM donate")
        assert len(result) == 5
        # new writes continue the tid sequence without collisions
        reopened.insert("donate", ("new", 99.0))
        tids = sorted(
            tx.tid for tx in reopened.query("SELECT * FROM donate").transactions
        )
        assert len(tids) == len(set(tids)) == 6
        assert verify_chain(reopened.store.iter_blocks())

    def test_indexes_rebuilt_on_reopen(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE donate (donor string, amount decimal)")
        for i in range(8):
            node.insert("donate", (f"d{i}", float(i * 10)), sender="org1")
        del node

        reopened = FullNode("n0", config=durable_config(tmp_path))
        reopened.create_index("senid")
        reopened.create_index("amount", table="donate")
        layered = reopened.query(
            "SELECT * FROM donate WHERE amount BETWEEN 20 AND 50",
            method="layered",
        )
        scan = reopened.query(
            "SELECT * FROM donate WHERE amount BETWEEN 20 AND 50",
            method="scan",
        )
        assert sorted(tx.tid for tx in layered.transactions) == sorted(
            tx.tid for tx in scan.transactions
        )
        assert len(layered) == 4

    def test_thin_client_headers_survive_recovery(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE t (a string)")
        node.insert("t", ("x",))
        headers_before = [h.block_hash() for h in node.store.headers]
        del node

        reopened = FullNode("n0", config=durable_config(tmp_path))
        headers_after = [h.block_hash() for h in reopened.store.headers]
        assert headers_before == headers_after

    def test_closed_node_frees_its_chain_state_without_the_collector(
            self, tmp_path):
        """The store holds its index manager's listener weakly, so the two
        form no cycle: dropping a closed node frees both by reference
        counting alone."""
        gc.collect()
        gc.disable()
        try:
            node = FullNode("n0", config=durable_config(tmp_path))
            node.create_table("CREATE t (a string)")
            node.insert("t", ("x",))
            node.create_index("a", table="t")
            held = weakref.ref(node.store), weakref.ref(node.indexes)
            node.close()
            del node
            assert [ref() for ref in held] == [None, None]
        finally:
            gc.enable()


class TestVerifyReadsTheDisk:
    @pytest.mark.parametrize("cache_mode", ["none", "transaction", "block"])
    def test_flipped_record_byte_under_a_warm_cache(self, tmp_path, cache_mode):
        """Chain verification hashes the stored bytes, not a cached copy."""
        node = FullNode("n0", config=durable_config(tmp_path,
                                                    cache_mode=cache_mode))
        node.create_table("CREATE donate (donor string, amount decimal)")
        node.insert("donate", ("d0", 1.0))
        height = node.store.height - 1
        assert node.verify_local_chain(full=True) == node.store.height
        node.store.read_block(height)  # warm the cache
        _header, records = node.store.read_records(height)
        location = node.store.location(height)
        path = tmp_path / f"segment-{location.segment:06d}.dat"
        data = bytearray(path.read_bytes())
        at = data.index(records[-1], location.offset)
        data[at + len(records[-1]) - 1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="corrupt transaction root"):
            node.verify_local_chain(full=True)


def chain_indexes(node):
    """The chain-wide index state a reopen rebuilds: block-index entries
    and the table / sender bitmaps with their tuple counts."""
    tables = node.indexes.table_index
    return (node.indexes.block_index._entries, tables._tables,
            tables._senders, tables._counts, tables.num_blocks)


class TestReopenDecodesOnce:
    """A reopen decodes each stored record once: the segment parse hands
    its decoded blocks to the index, catalog and tid backfill."""

    @pytest.fixture()
    def node(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE donate (donor string, amount decimal)")
        node.create_table("CREATE t (a string)")
        for i in range(12):
            node.insert("donate", (f"d{i}", float(i)), sender=f"org{i % 3}")
            node.insert("t", (f"v{i}",), sender="org9")
        return node

    def test_each_stored_record_decoded_once(self, tmp_path, node,
                                             monkeypatch):
        stored = sum(node.store.transactions_in_block(h)
                     for h in range(node.store.height))
        decoded = []
        decode = transaction_module._decode

        def counting_decode(data):
            decoded.append(data)
            return decode(data)

        monkeypatch.setattr(transaction_module, "_decode", counting_decode)
        reopened = FullNode("n0", config=durable_config(tmp_path))
        assert len(decoded) == stored
        monkeypatch.undo()
        assert chain_indexes(reopened) == chain_indexes(node)
        assert reopened.catalog.table_names == node.catalog.table_names
        assert reopened.ledger.next_tid == node.ledger.next_tid
        assert len(reopened.query("SELECT * FROM donate")) == 12

    def test_wal_replay_decodes_each_record_once(self, tmp_path, node,
                                                 monkeypatch):
        # the block a pending commit record names is taken from the parse:
        # resolve_wal commits it as it is, so nothing reads it back
        node.crash_during_next_persist("after-append")
        node.insert("t", ("replayed",))
        stored = sum(node.store.transactions_in_block(h)
                     for h in range(node.store.height))
        decoded = []
        decode = transaction_module._decode

        def counting_decode(data):
            decoded.append(data)
            return decode(data)

        monkeypatch.setattr(transaction_module, "_decode", counting_decode)
        reopened = FullNode("n0", config=durable_config(tmp_path))
        assert reopened.ledger.stats.wal_replayed == 1
        assert len(decoded) == stored
        monkeypatch.undo()
        assert reopened.store.height == node.store.height
        assert len(reopened.query("SELECT * FROM t")) == 13

    def test_trusted_fallback_rebuilds_indexes_as_a_fresh_node(self, tmp_path,
                                                               node):
        # an anchor the chain does not reproduce: the first parse, which
        # already handed its blocks over, is thrown away and redone
        node.commit_log.record_checkpoint(
            5, b"\x0e" * 32, ("pbft-0", "pbft-1", "pbft-2"),
            height=node.store.height, tip_hash=b"\x11" * 32,
        )
        reopened = FullNode("n0", config=durable_config(tmp_path))
        assert reopened.store.recovery_report["trusted_fallback"] is True
        assert chain_indexes(reopened) == chain_indexes(node)
        assert reopened.ledger.next_tid == node.ledger.next_tid
        assert len(reopened.query("SELECT * FROM t")) == 12


class TestNetworkRecovery:
    def test_every_node_reopens_from_its_own_directory(self, tmp_path):
        net = SebdbNetwork(num_nodes=3, consensus="kafka",
                           config=durable_config(tmp_path))
        net.execute("CREATE donate (donor string, amount decimal)")
        for i in range(50):
            net.execute(f"INSERT INTO donate VALUES ('d{i}', {i}.5)")
        net.commit()
        net.add_observer("audit")
        tip, height = net.nodes[0].store.tip_hash, net.height()
        assert height >= 3
        assert not list(tmp_path.glob("segment-*.dat"))
        names = ["node-0", "node-1", "node-2", "observer-audit"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            reopened = FullNode(name, config=durable_config(tmp_path / name))
            assert reopened.store.height == height
            assert reopened.store.tip_hash == tip
            assert len(reopened.query("SELECT * FROM donate")) == 50
