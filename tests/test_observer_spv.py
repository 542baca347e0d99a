"""Tests for gossip-fed observer nodes and SPV inclusion proofs."""

import dataclasses

import pytest

from repro import SebdbNetwork, ThinClient
from repro.common.errors import QueryError, VerificationError
from repro.network import MessageBus
from repro.node import FullNode
from repro.node.auth import AuthQueryServer
from repro.node.observer import BlockGossip, make_observer


def populated_node(rows=12) -> FullNode:
    node = FullNode("member")
    node.create_table("CREATE t (a string, n decimal)")
    for i in range(rows):
        node.insert("t", (f"v{i}", float(i)), sender=f"org{i % 2}")
    return node


class TestInclusionProofs:
    @pytest.fixture(scope="class")
    def node(self):
        return populated_node()

    def test_proof_verifies(self, node):
        server = AuthQueryServer(node)
        proof = server.inclusion_proof(5)
        header = node.store.header(proof.height)
        assert proof.verify(header)

    def test_every_transaction_provable(self, node):
        server = AuthQueryServer(node)
        for tid in range(1, 13):
            proof = server.inclusion_proof(tid)
            assert proof.verify(node.store.header(proof.height))

    def test_unknown_tid_rejected(self, node):
        server = AuthQueryServer(node)
        with pytest.raises(QueryError):
            server.inclusion_proof(9999)

    def test_proof_fails_on_wrong_header(self, node):
        server = AuthQueryServer(node)
        proof = server.inclusion_proof(3)
        other = node.store.header(0)  # genesis header, wrong root
        assert not proof.verify(other)

    def test_thin_client_spv(self, node):
        client = ThinClient([node], seed=1)
        client.sync_headers()
        tx = client.verify_transaction(4)
        assert tx.tid == 4

    def test_thin_client_spv_requires_headers(self, node):
        client = ThinClient([node], seed=1)
        with pytest.raises(VerificationError):
            client.verify_transaction(4)

    def test_tampered_proof_detected(self, node):
        import dataclasses

        client = ThinClient([node], seed=2)
        client.sync_headers()
        server = AuthQueryServer(node)
        proof = server.inclusion_proof(2)
        forged = dataclasses.replace(proof, tx_bytes=b"\x00" * 40)

        class LyingServer(AuthQueryServer):
            def inclusion_proof(self, tid):
                return forged

        client._servers[id(node)] = LyingServer(node)
        with pytest.raises(VerificationError):
            client.verify_transaction(2)


class TestObserverNodes:
    def build_mesh(self):
        """One consensus member + two observers on a gossip mesh."""
        member = FullNode("member")
        member.create_table("CREATE t (a string)")
        bus = MessageBus(seed=3)
        member_gossip = BlockGossip(member, bus, seed=1)
        obs1, g1 = make_observer(member, bus, "obs1", seed=2)
        obs2, g2 = make_observer(member, bus, "obs2", seed=3)
        return member, member_gossip, (obs1, g1), (obs2, g2), bus

    def announce_all(self, member, gossip, start=0):
        for h in range(start, member.store.height):
            gossip.announce(member.store.read_block(h))

    def test_observers_follow_the_chain(self):
        member, mg, (obs1, _), (obs2, _), bus = self.build_mesh()
        for i in range(6):
            member.insert("t", (f"v{i}",))
        self.announce_all(member, mg, start=1)  # genesis already shared
        bus.run_until_idle()
        assert obs1.store.tip_hash == member.store.tip_hash
        assert obs2.store.tip_hash == member.store.tip_hash
        assert len(obs1.query("SELECT * FROM t")) == 6

    def test_out_of_order_rumors_buffered(self):
        member, mg, (obs1, _), _, bus = self.build_mesh()
        for i in range(4):
            member.insert("t", (f"v{i}",))
        # announce newest first: observers must buffer and apply in order
        for h in reversed(range(1, member.store.height)):
            mg.announce(member.store.read_block(h))
            bus.run_until_idle()
        assert obs1.store.tip_hash == member.store.tip_hash

    def test_partitioned_observer_recovers_by_anti_entropy(self):
        member, mg, (obs1, g1), (obs2, g2), bus = self.build_mesh()
        bus.fail(g2.gossip.node_id)
        for i in range(5):
            member.insert("t", (f"v{i}",))
        self.announce_all(member, mg, start=1)
        bus.run_until_idle()
        assert obs2.store.height < member.store.height
        bus.heal(g2.gossip.node_id)
        g2.anti_entropy(g1)
        bus.run_until_idle()
        assert obs2.store.tip_hash == member.store.tip_hash

    def test_bad_rumor_does_not_poison_observer(self):
        from repro.model import Block

        member, mg, (obs1, g1), _, bus = self.build_mesh()
        member.insert("t", ("good",))
        # honestly announce everything up to (but excluding) the last block
        for h in range(1, member.store.height - 1):
            mg.announce(member.store.read_block(h))
        bus.run_until_idle()
        good = member.store.read_block(member.store.height - 1)
        evil = dataclasses.replace(good.transactions[0], values=("evil",))
        bad = Block(header=good.header,
                    transactions=(evil,) + good.transactions[1:])
        g1.gossip.publish(f"block-{good.header.height:012d}", bad.to_bytes())
        bus.run_until_idle()
        # the observer rejected the rumor and can still accept the truth
        assert obs1.store.height == good.header.height
        obs1.accept_block(good)
        assert obs1.store.tip_hash == member.store.tip_hash

    def test_observer_queries_like_a_full_node(self):
        member, mg, (obs1, _), _, bus = self.build_mesh()
        for i in range(8):
            member.insert("t", (f"v{i}",), sender=f"org{i % 2}")
        self.announce_all(member, mg, start=1)
        bus.run_until_idle()
        obs1.create_index("senid")
        result = obs1.query("TRACE OPERATOR = 'org0'", method="layered")
        assert len(result) == 4
