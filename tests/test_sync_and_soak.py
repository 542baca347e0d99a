"""Chain catch-up (sync_from) tests plus a randomized soak scenario."""

import dataclasses
import random

import pytest

from repro import SebdbNetwork, ThinClient
from repro.common.errors import StorageError
from repro.model import Block, verify_chain
from repro.node import FullNode


def populated_node(node_id="source", rows=15) -> FullNode:
    node = FullNode(node_id)
    node.create_table("CREATE t (a string, n decimal)")
    for i in range(rows):
        node.insert("t", (f"v{i}", float(i)), sender=f"org{i % 3}")
    return node


class TestSyncFrom:
    def test_fresh_node_catches_up(self):
        source = populated_node()
        # a lagging node that shares only the genesis block
        lagging = FullNode("lagging", genesis=source.store.read_block(0))
        adopted = lagging.sync_from(source)
        assert adopted == source.store.height - 1
        assert lagging.store.tip_hash == source.store.tip_hash
        assert verify_chain(lagging.store.iter_blocks())
        # catalog and queries work after catch-up
        assert len(lagging.query("SELECT * FROM t")) == 15

    def test_tid_counter_continues(self):
        source = populated_node()
        lagging = FullNode("lagging", genesis=source.store.read_block(0))
        lagging.sync_from(source)
        lagging.insert("t", ("post-sync", 99.0))
        tids = [tx.tid for tx in lagging.query("SELECT * FROM t").transactions]
        assert len(tids) == len(set(tids)) == 16

    def test_indexes_cover_synced_blocks(self):
        source = populated_node()
        lagging = FullNode("lagging", genesis=source.store.read_block(0))
        lagging.sync_from(source)
        lagging.create_index("senid")
        layered = lagging.query("TRACE OPERATOR = 'org1'", method="layered")
        scan = lagging.query("TRACE OPERATOR = 'org1'", method="scan")
        assert sorted(t.tid for t in layered.transactions) == sorted(
            t.tid for t in scan.transactions
        )

    def test_sync_idempotent(self):
        source = populated_node()
        lagging = FullNode("lagging", genesis=source.store.read_block(0))
        lagging.sync_from(source)
        assert lagging.sync_from(source) == 0

    def test_tampered_peer_rejected(self):
        source = populated_node()
        lagging = FullNode("lagging", genesis=source.store.read_block(0))
        # peer serves a block with a doctored transaction
        good = source.store.read_block(1)
        forged = dataclasses.replace(good.transactions[0], values=("forged", 0.0))
        bad = Block(header=good.header,
                    transactions=(forged,) + good.transactions[1:])
        with pytest.raises(StorageError):
            lagging.accept_block(bad)
        assert lagging.store.height == 1  # untouched

    def test_field_assigned_peer_rejected(self):
        source = populated_node()
        lagging = FullNode("lagging", genesis=source.store.read_block(0))
        # a peer that assigns a field after decoding: the bytes (and so
        # the Merkle root) stay honest, the fields the catalog and
        # indexes read do not
        lagging.accept_block(source.store.read_block(1))  # the schema
        bad = Block.from_bytes(source.store.read_block(2).to_bytes())
        bad.transactions[0].values = ("forged", 0.0)
        assert bad.verify_trans_root()
        with pytest.raises(StorageError, match="disagree with its bytes"):
            lagging.accept_block(bad)
        assert lagging.store.height == 2  # untouched
        # the honest chain is still adoptable
        lagging.sync_from(source)
        assert lagging.store.tip_hash == source.store.tip_hash
        assert len(lagging.query("SELECT * FROM t")) == 15

    def test_forked_peer_rejected(self):
        source = populated_node(rows=10)
        # a node on a *different* chain (same genesis, divergent blocks)
        forked = FullNode("forked", genesis=source.store.read_block(0))
        forked.create_table("CREATE t (a string, n decimal)")
        forked.insert("t", ("divergent", 1.0))
        with pytest.raises(StorageError):
            forked.sync_from(source)
        # the fork's own chain is untouched
        assert len(forked.query("SELECT * FROM t")) == 1

    def test_wrong_height_rejected(self):
        source = populated_node()
        lagging = FullNode("lagging", genesis=source.store.read_block(0))
        with pytest.raises(StorageError):
            lagging.accept_block(source.store.read_block(3))


class TestSoakScenario:
    """A randomized multi-phase scenario touching most subsystems."""

    def test_soak(self):
        rng = random.Random(99)
        net = SebdbNetwork(num_nodes=4, consensus="pbft", batch_txs=12,
                           timeout_ms=40)
        net.execute("CREATE donate (donor string, project string, "
                    "amount decimal)")
        net.execute("CREATE transfer (project string, organization string, "
                    "amount decimal)")

        expected_donates = 0
        for phase in range(4):
            for _ in range(rng.randint(8, 20)):
                if rng.random() < 0.6:
                    net.execute(
                        f"INSERT INTO donate VALUES ('d{rng.randint(0, 9)}', "
                        f"'p{rng.randint(0, 2)}', {float(rng.randint(1, 500))})",
                        sender=f"org{rng.randint(1, 3)}",
                    )
                    expected_donates += 1
                else:
                    net.execute(
                        f"INSERT INTO transfer VALUES ('p{rng.randint(0, 2)}',"
                        f" 'o{rng.randint(0, 4)}', "
                        f"{float(rng.randint(1, 500))})",
                        sender=f"org{rng.randint(1, 3)}",
                    )
            net.commit()
            assert net.chains_consistent()
            # every phase: a read mix agrees across access paths
            sql = "SELECT * FROM donate WHERE amount BETWEEN 50 AND 300"
            a = net.execute(sql, method="scan")
            b = net.execute(sql, method="bitmap")
            assert sorted(t.tid for t in a.transactions) == sorted(
                t.tid for t in b.transactions
            )

        total = net.execute("SELECT COUNT(*) FROM donate")
        assert total.rows[0][0] == expected_donates

        # a node that was offline the whole time catches up block by block
        latecomer = FullNode("latecomer",
                             genesis=net.node(0).store.read_block(0))
        latecomer.sync_from(net.node(0))
        assert latecomer.store.tip_hash == net.node(0).store.tip_hash
        assert len(latecomer.query("SELECT * FROM donate")) == expected_donates

        # thin client verifies against the live network
        for node in net.nodes:
            node.create_index("senid", authenticated=True)
        client = ThinClient(net.nodes, seed=1)
        client.sync_headers()
        answer = client.authenticated_trace("org1")
        truth = net.execute("TRACE OPERATOR = 'org1'")
        assert len(answer.transactions) == len(truth)
