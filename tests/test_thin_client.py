"""Tests for thin clients: header sync, authenticated queries, sampling."""

import pytest

from repro.client import (
    ThinClient,
    digest_error_probability,
    minimum_m_for_risk,
    prob_right_digest_wins,
    prob_wrong_digest_wins,
)
from repro.common.config import SebdbConfig
from repro.common.errors import ConfigError, VerificationError
from repro.mht import vo as vo_module
from repro.mht.vo import BlockVO, QueryVO, verify_query_vo
from repro.model import transaction as transaction_module
from repro.node import SebdbNetwork
from repro.node.auth import AuthQueryServer


@pytest.fixture(scope="module")
def auth_net():
    net = SebdbNetwork(num_nodes=4, consensus="kafka", batch_txs=20,
                       timeout_ms=40)
    net.execute("CREATE donate (donor string, project string, amount decimal)")
    for i in range(80):
        net.execute(
            f"INSERT INTO donate VALUES ('donor{i % 9}', 'edu', {float(i)})",
            sender="org1" if i % 4 == 0 else f"org{2 + i % 3}",
        )
    net.commit()
    for node in net.nodes:
        node.create_index("senid", authenticated=True)
        node.create_index("amount", table="donate", authenticated=True)
    return net


class TestHeaderSync:
    def test_sync_headers(self, auth_net):
        client = ThinClient(auth_net.nodes, seed=1)
        assert client.sync_headers() == auth_net.height()
        assert client.header(0).height == 0

    def test_broken_header_chain_rejected(self, auth_net):
        import dataclasses

        client = ThinClient(auth_net.nodes, seed=1)
        node = auth_net.node(0)
        headers = node.store.headers
        # corrupt a *copy* - the originals are shared with the store
        headers[2] = dataclasses.replace(headers[2], prev_hash=b"\x00" * 32)

        class FakeNode:
            class store:
                pass

        fake = FakeNode()
        fake.store.headers = headers
        with pytest.raises(VerificationError):
            client.sync_headers(from_node=fake)

    def test_needs_at_least_one_node(self):
        with pytest.raises(VerificationError):
            ThinClient([])


class TestAuthenticatedQueries:
    def test_trace_matches_unverified(self, auth_net):
        client = ThinClient(auth_net.nodes, seed=2)
        client.sync_headers()
        answer = client.authenticated_trace("org1")
        truth = auth_net.execute("TRACE OPERATOR = 'org1'")
        assert sorted(t.tid for t in answer.transactions) == sorted(
            t.tid for t in truth.transactions
        )

    def test_trace_with_operation_filter(self, auth_net):
        client = ThinClient(auth_net.nodes, seed=3)
        client.sync_headers()
        answer = client.authenticated_trace("org1", operation="donate")
        assert all(t.tname == "donate" for t in answer.transactions)

    def test_range_matches_unverified(self, auth_net):
        client = ThinClient(auth_net.nodes, seed=4)
        client.sync_headers()
        schema = auth_net.node(0).catalog.get("donate")
        answer = client.authenticated_range(
            "amount", 20.0, 40.0, table="donate", schema=schema
        )
        truth = auth_net.execute(
            "SELECT * FROM donate WHERE amount BETWEEN 20 AND 40"
        )
        assert len(answer.transactions) == len(truth)

    def test_empty_range_verifies(self, auth_net):
        client = ThinClient(auth_net.nodes, seed=5)
        client.sync_headers()
        schema = auth_net.node(0).catalog.get("donate")
        answer = client.authenticated_range(
            "amount", 5000.0, 6000.0, table="donate", schema=schema
        )
        assert answer.transactions == ()

    def test_vo_size_positive(self, auth_net):
        client = ThinClient(auth_net.nodes, seed=6)
        client.sync_headers()
        answer = client.authenticated_trace("org1")
        assert answer.vo_size_bytes > 0
        assert answer.blocks_verified if hasattr(answer, "blocks_verified") else True


def serve(monkeypatch, edit):
    """Make every server answer ``range_vo`` with ``edit(server, vo)`` of
    its honest VO."""
    honest = AuthQueryServer.range_vo

    def served(self, column, low, high, table=None, window=None, height=None):
        vo = honest(self, column, low, high, table=table, window=window,
                    height=height)
        return edit(self, vo)

    monkeypatch.setattr(AuthQueryServer, "range_vo", served)


def proofs_for(low, high, table=None):
    """An edit keeping the honest block set but proving ``[low, high]``
    in each block, and saying so in the VO."""

    def edit(server, vo):
        node = server._node
        index = node.indexes.layered(vo.column, table)
        blocks = []
        for block in vo.blocks:
            tree = index.tree(block.height)
            proof = tree.range_proof(low, high)
            positions = [p for _key, p in tree.covered_payloads(proof)]
            records = tuple(node.store.read_records_at(block.height, positions))
            blocks.append(BlockVO(block.height, records, proof))
        return QueryVO(vo.chain_height, vo.column, low, high, tuple(blocks))

    return edit


class TestTamperDetection:
    def server(self, auth_net):
        return AuthQueryServer(auth_net.node(0))

    def honest(self, auth_net):
        server = self.server(auth_net)
        vo = server.trace_vo("org1")
        digest = server.auxiliary_digest("senid", "org1", "org1",
                                         vo.chain_height)
        return vo, digest

    def test_honest_vo_verifies(self, auth_net):
        vo, digest = self.honest(auth_net)
        result = verify_query_vo(vo, key_of=lambda tx: tx.senid,
                                 expected_digest=digest)
        assert result.digest == digest

    def test_dropped_record_detected(self, auth_net):
        vo, digest = self.honest(auth_net)
        blocks = list(vo.blocks)
        target = max(range(len(blocks)), key=lambda i: len(blocks[i].records))
        b = blocks[target]
        blocks[target] = BlockVO(b.height, b.records[1:], b.proof)
        bad = QueryVO(vo.chain_height, vo.column, vo.low, vo.high,
                      tuple(blocks))
        with pytest.raises(VerificationError):
            verify_query_vo(bad, key_of=lambda tx: tx.senid,
                            expected_digest=digest)

    def test_forged_record_detected(self, auth_net):
        from repro.model import Transaction

        vo, digest = self.honest(auth_net)
        blocks = list(vo.blocks)
        b = blocks[0]
        forged = Transaction.create("donate", ("evil", "edu", 1.0),
                                    ts=0, sender="org1").with_tid(1)
        blocks[0] = BlockVO(
            b.height, (forged.to_bytes(),) + b.records[1:], b.proof
        )
        bad = QueryVO(vo.chain_height, vo.column, vo.low, vo.high,
                      tuple(blocks))
        with pytest.raises(VerificationError):
            verify_query_vo(bad, key_of=lambda tx: tx.senid,
                            expected_digest=digest)

    def test_withheld_block_detected(self, auth_net):
        vo, digest = self.honest(auth_net)
        if len(vo.blocks) < 2:
            pytest.skip("need at least 2 result blocks")
        bad = QueryVO(vo.chain_height, vo.column, vo.low, vo.high,
                      vo.blocks[1:])
        with pytest.raises(VerificationError):
            verify_query_vo(bad, key_of=lambda tx: tx.senid,
                            expected_digest=digest)

    def test_duplicate_block_detected(self, auth_net):
        vo, digest = self.honest(auth_net)
        bad = QueryVO(vo.chain_height, vo.column, vo.low, vo.high,
                      vo.blocks + vo.blocks[:1])
        with pytest.raises(VerificationError):
            verify_query_vo(bad, key_of=lambda tx: tx.senid,
                            expected_digest=digest)

    def test_block_beyond_snapshot_detected(self, auth_net):
        vo, digest = self.honest(auth_net)
        b = vo.blocks[0]
        bad_block = BlockVO(vo.chain_height + 5, b.records, b.proof)
        bad = QueryVO(vo.chain_height, vo.column, vo.low, vo.high,
                      vo.blocks + (bad_block,))
        with pytest.raises(VerificationError):
            verify_query_vo(bad, key_of=lambda tx: tx.senid,
                            expected_digest=digest)

    # A block's MB-root does not depend on the range its proof covers:
    # the honest block set with proofs for another range meets the
    # auxiliary digest, so the client checks the VO proves its query.
    def test_range_answered_for_a_narrower_range(self, auth_net, monkeypatch):
        client = ThinClient(auth_net.nodes, seed=4)
        schema = auth_net.node(0).catalog.get("donate")
        honest = client.authenticated_range(
            "amount", 20.0, 40.0, table="donate", schema=schema)
        assert len(honest.transactions) == 21
        serve(monkeypatch, proofs_for(30.0, 30.0, table="donate"))
        with pytest.raises(VerificationError, match="VO proves amount"):
            client.authenticated_range(
                "amount", 20.0, 40.0, table="donate", schema=schema)

    def test_trace_answered_for_another_sender(self, auth_net, monkeypatch):
        client = ThinClient(auth_net.nodes, seed=2)
        honest = client.authenticated_trace("org1")
        assert {tx.senid for tx in honest.transactions} == {"org1"}
        serve(monkeypatch, proofs_for("org2", "org2"))
        with pytest.raises(VerificationError, match="VO proves senid"):
            client.authenticated_trace("org1")

    @pytest.mark.parametrize("column", ["senid", "tname"])
    def test_two_index_trace_checks_both_vos(self, vo_node, monkeypatch,
                                             column):
        client = ThinClient([vo_node], seed=1)
        honest = client.authenticated_trace_two_index("org1", "transfer")
        assert honest.transactions
        other = {"senid": "org2", "tname": "donate"}[column]
        forge = proofs_for(other, other)
        serve(monkeypatch, lambda server, vo: (
            forge(server, vo) if vo.column == column else vo))
        with pytest.raises(VerificationError, match=f"VO proves {column}"):
            client.authenticated_trace_two_index("org1", "transfer")

    def test_forged_vo_meets_the_digest_unless_the_query_is_given(
            self, auth_net):
        # what ``query=`` closes: without it the forgery verifies
        server = AuthQueryServer(auth_net.node(0))
        honest = server.range_vo("senid", "org1", "org1")
        digest = server.auxiliary_digest("senid", "org1", "org1",
                                         honest.chain_height)
        forged = proofs_for("org2", "org2")(server, honest)
        result = verify_query_vo(forged, key_of=lambda tx: tx.senid,
                                 expected_digest=digest)
        assert result.transactions
        assert {tx.senid for tx in result.transactions} == {"org2"}
        with pytest.raises(VerificationError, match="VO proves senid"):
            verify_query_vo(forged, key_of=lambda tx: tx.senid,
                            expected_digest=digest,
                            query=("senid", "org1", "org1"))
        asked = verify_query_vo(honest, key_of=lambda tx: tx.senid,
                                expected_digest=digest,
                                query=("senid", "org1", "org1"))
        assert {tx.senid for tx in asked.transactions} == {"org1"}


#: (column, low, high, table) of one VO per authenticated index
VO_QUERIES = (
    ("senid", "org1", "org1", None),
    ("tname", "donate", "donate", None),
    ("amount", 12.0, 47.0, "donate"),
)


@pytest.fixture(scope="module", params=["transaction", "block"])
def vo_node(request):
    """One node over a multi-block chain with authenticated ``senid``,
    ``tname`` and ``amount`` indexes, under each cache policy."""
    net = SebdbNetwork(num_nodes=1, consensus="kafka", batch_txs=16,
                       timeout_ms=40,
                       config=SebdbConfig.in_memory(cache_mode=request.param))
    net.execute("CREATE donate (donor string, project string, amount decimal)")
    net.execute("CREATE transfer (donor string, amount decimal)")
    for i in range(90):
        table = "donate" if i % 3 else "transfer"
        values = (f"'d{i % 7}', 'edu', {float(i)}" if table == "donate"
                  else f"'d{i % 7}', {float(i)}")
        net.execute(f"INSERT INTO {table} VALUES ({values})",
                    sender=f"org{i % 4}")
    net.commit()
    node = net.node(0)
    node.create_index("senid", authenticated=True)
    node.create_index("tname", authenticated=True)
    node.create_index("amount", table="donate", authenticated=True)
    return node


def build_vos(node):
    server = AuthQueryServer(node)
    return [server.range_vo(column, low, high, table=table)
            for column, low, high, table in VO_QUERIES]


class TestVOStoredBytes:
    """A VO ships the records as the chain stores them: the same bytes a
    decode-and-re-encode of each point read produced, with no codec work
    and no transaction-cache traffic."""

    def test_records_equal_reencoded_point_reads(self, vo_node):
        for (column, _low, _high, table), vo in zip(VO_QUERIES,
                                                     build_vos(vo_node)):
            index = vo_node.indexes.layered(column, table)
            assert len(vo.blocks) > 1
            for block in vo.blocks:
                tree = index.tree(block.height)
                positions = [position for _key, position
                             in tree.covered_payloads(block.proof)]
                assert list(block.records) == [
                    vo_node.store.read_transaction(block.height, position)
                    .to_bytes()
                    for position in positions
                ]

    def test_vo_build_neither_encodes_nor_decodes(self, vo_node, monkeypatch):
        calls = {"_encode": 0, "_decode": 0}
        for name in calls:
            original = getattr(transaction_module, name)

            def counted(arg, _name=name, _original=original):
                calls[_name] += 1
                return _original(arg)

            monkeypatch.setattr(transaction_module, name, counted)
        vo_node.store.clear_caches()
        cold = build_vos(vo_node)
        cold_calls = dict(calls)
        warm = build_vos(vo_node)
        assert warm == cold
        assert sum(len(b.records) for vo in cold for b in vo.blocks) > 0
        if vo_node.config.cache_mode == "block":
            # a cached block keeps no records: its records are encoded
            # again, but once cached it is never decoded again
            assert calls["_decode"] == cold_calls["_decode"]
        else:
            assert calls == {"_encode": 0, "_decode": 0}

    def test_cold_vo_charges_one_seek_per_record(self, vo_node):
        store = vo_node.store
        for query in VO_QUERIES:
            store.clear_caches()
            cache = store.tx_cache
            traffic = (cache.hits, cache.misses, len(cache))
            before = store.cost.snapshot()
            column, low, high, table = query
            vo = AuthQueryServer(vo_node).range_vo(column, low, high,
                                                   table=table)
            after = store.cost.snapshot()
            records = [r for block in vo.blocks for r in block.records]
            if vo_node.config.cache_mode == "block":
                # whole blocks through the block cache, one miss each
                assert after.seeks - before.seeks == len(vo.blocks)
                continue
            assert after.seeks - before.seeks == len(records)
            assert (after.page_transfers - before.page_transfers
                    == sum(store.cost.pages_for(len(r)) for r in records))
            assert (cache.hits, cache.misses, len(cache)) == traffic


def counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(data):
        calls[name] = calls.get(name, 0) + 1
        return original(data)

    monkeypatch.setattr(module, name, counted)


class TestRowMap:
    """The thin client decodes a verified record once: later VOs shipping
    the same stored bytes reuse its row, and are still verified in full."""

    def test_answers_equal_with_and_without_a_map(self, vo_node):
        key_of = {"senid": lambda tx: tx.senid, "tname": lambda tx: tx.tname,
                  "amount": lambda tx: tx.values[2]}
        server = AuthQueryServer(vo_node)
        rows = {}
        for column, low, high, table in VO_QUERIES * 2:
            vo = server.range_vo(column, low, high, table=table)
            digest = server.auxiliary_digest(column, low, high,
                                             vo.chain_height, table=table)
            plain = verify_query_vo(vo, key_of=key_of[column],
                                    expected_digest=digest)
            mapped = verify_query_vo(vo, key_of=key_of[column],
                                     expected_digest=digest, rows=rows)
            assert mapped == plain
            assert len(plain.transactions) > 0
        assert rows

    def test_second_trace_decodes_nothing_and_hashes_everything(
            self, auth_net, monkeypatch):
        shipped = []
        serve(monkeypatch, lambda server, vo: shipped.append(vo) or vo)
        calls = {}
        counting(monkeypatch, transaction_module, "_decode", calls)
        counting(monkeypatch, vo_module, "hash_leaf", calls)
        client = ThinClient(auth_net.nodes, seed=2)
        first = client.authenticated_trace("org1")
        records = sum(len(b.records) for b in shipped[0].blocks)
        assert records > len(first.transactions) > 0
        assert calls == {"_decode": records, "hash_leaf": records}
        second = client.authenticated_trace("org1")
        assert shipped[1] == shipped[0]
        assert calls == {"_decode": records, "hash_leaf": 2 * records}
        assert second.transactions == first.transactions
        assert all(a is b for a, b in zip(second.transactions,
                                          first.transactions))

    def test_answers_share_row_objects_by_design(self, auth_net):
        # the documented contract: a record verified by one query comes
        # back from any other as the same (read-only) object
        client = ThinClient(auth_net.nodes, seed=2)
        schema = auth_net.node(0).catalog.get("donate")
        traced = {tx.tid: tx for tx in
                  client.authenticated_trace("org1").transactions}
        ranged = client.authenticated_range(
            "amount", 20.0, 40.0, table="donate", schema=schema)
        shared = [tx for tx in ranged.transactions if tx.senid == "org1"]
        assert len(shared) == 6
        assert all(tx is traced[tx.tid] for tx in shared)
        fresh = ThinClient(auth_net.nodes, seed=2).authenticated_trace("org1")
        assert fresh.transactions == tuple(traced.values())
        assert not any(a is b for a, b in zip(fresh.transactions,
                                              traced.values()))

    def test_forgery_of_a_cached_record_rejected(self, auth_net, monkeypatch):
        import dataclasses

        from repro.model import Transaction

        client = ThinClient(auth_net.nodes, seed=2)
        honest = client.authenticated_trace("org1")
        target = honest.transactions[0]

        def forge(server, vo):
            blocks = list(vo.blocks)
            for i, block in enumerate(blocks):
                records = list(block.records)
                for j, raw in enumerate(records):
                    tx = Transaction.from_bytes(raw)
                    if tx == target:
                        twin = dataclasses.replace(
                            tx, values=("evil",) + tx.values[1:])
                        records[j] = twin.to_bytes()
                        blocks[i] = BlockVO(block.height, tuple(records),
                                            block.proof)
                        return QueryVO(vo.chain_height, vo.column, vo.low,
                                       vo.high, tuple(blocks))
            raise AssertionError("target record not shipped")

        serve(monkeypatch, forge)
        with pytest.raises(VerificationError, match="digest mismatch"):
            client.authenticated_trace("org1")
        monkeypatch.undo()
        again = client.authenticated_trace("org1")
        assert again.transactions == honest.transactions
        assert target.values[0] != "evil"

    def test_map_clears_at_its_bound(self, auth_net, monkeypatch):
        monkeypatch.setattr(vo_module, "ROW_CACHE_ENTRIES", 5)
        server = AuthQueryServer(auth_net.node(0))
        vo = server.range_vo("senid", "org1", "org1")
        assert sum(len(b.records) for b in vo.blocks) > 5
        rows = {}
        mapped = verify_query_vo(vo, key_of=lambda tx: tx.senid, rows=rows)
        assert 0 < len(rows) <= 5
        plain = verify_query_vo(vo, key_of=lambda tx: tx.senid)
        assert mapped == plain


class TestSamplingMath:
    def test_eq4_eq5_symmetry(self):
        # at p = 0.5 the race is symmetric
        assert prob_wrong_digest_wins(0.5, 3) == pytest.approx(
            prob_right_digest_wins(0.5, 3)
        )

    def test_eq4_grows_with_p(self):
        assert prob_wrong_digest_wins(0.1, 2) < prob_wrong_digest_wins(0.4, 2)

    def test_theta_zero_when_m_exceeds_byzantine(self):
        # a wrong digest can never reach m copies with only 1 Byzantine node
        assert digest_error_probability(0.25, m=2, n=4, max_byzantine=1) == 0.0

    def test_theta_positive_when_feasible(self):
        theta = digest_error_probability(0.25, m=1, n=4, max_byzantine=2)
        assert 0 < theta < 1

    def test_theta_decreases_with_m(self):
        t1 = digest_error_probability(0.3, 1, 10, 5)
        t2 = digest_error_probability(0.3, 2, 10, 5)
        t3 = digest_error_probability(0.3, 3, 10, 5)
        assert t1 > t2 > t3

    def test_minimum_m(self):
        m = minimum_m_for_risk(0.3, n=10, max_byzantine=5, target=0.05)
        assert digest_error_probability(0.3, m, 10, 5) <= 0.05
        if m > 1:
            assert digest_error_probability(0.3, m - 1, 10, 5) > 0.05

    def test_invalid_p_rejected(self):
        with pytest.raises(ConfigError):
            prob_wrong_digest_wins(1.5, 2)

    def test_m_larger_than_n_rejected(self):
        with pytest.raises(VerificationError):
            digest_error_probability(0.1, m=5, n=3, max_byzantine=5)

    def test_zero_byzantine_ratio(self):
        assert digest_error_probability(0.0, 1, 4, 2) == 0.0
