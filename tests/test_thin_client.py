"""Tests for thin clients: header sync, authenticated queries, sampling."""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import (
    ThinClient,
    digest_error_probability,
    minimum_m_for_risk,
    prob_right_digest_wins,
    prob_wrong_digest_wins,
)
from repro.common.config import SebdbConfig
from repro.common.errors import ConfigError, VerificationError
from repro.common.hashing import hash_leaf
from repro.mht import vo as vo_module
from repro.mht.mbtree import MBRangeProof, reconstruct_root
from repro.mht.vo import BlockVO, QueryVO, verify_query_vo
from repro.model import BlockHeader, Transaction
from repro.model import transaction as transaction_module
from repro.node import FullNode, SebdbNetwork
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

    def synced(self, auth_net, headers):
        client = ThinClient(auth_net.nodes, seed=1)
        assert client.sync_headers(from_node=serving(headers)) == len(headers)
        return client

    def test_extension_checks_only_the_new_headers(self, auth_net,
                                                   monkeypatch):
        headers = auth_net.node(0).store.headers
        assert len(headers) >= 5
        client = self.synced(auth_net, headers[:3])
        hashed = []
        original = BlockHeader.block_hash

        def counted(header):
            hashed.append(header.height)
            return original(header)

        monkeypatch.setattr(BlockHeader, "block_hash", counted)
        assert client.sync_headers(from_node=serving(headers)) == len(headers)
        assert hashed == [h.height for h in headers[3:]]
        assert all(client.header(h) is headers[h] for h in range(len(headers)))

    def test_tampered_prefix_never_adopted(self, auth_net):
        headers = auth_net.node(0).store.headers
        client = self.synced(auth_net, headers[:3])
        forged = list(headers)
        forged[1] = dataclasses.replace(headers[1],
                                        timestamp=headers[1].timestamp + 1)
        assert client.sync_headers(from_node=serving(forged)) == len(headers)
        assert client.header(1) is headers[1]
        assert all(client.header(h) is headers[h] for h in range(len(headers)))

    def test_fork_takes_the_full_check(self, auth_net):
        headers = auth_net.node(0).store.headers
        # a chain forking at height 2, every link intact
        fork = headers[:2] + [dataclasses.replace(
            headers[2], timestamp=headers[2].timestamp + 1)]
        for header in headers[3:]:
            fork.append(dataclasses.replace(
                header, prev_hash=fork[-1].block_hash()))
        client = self.synced(auth_net, headers[:4])
        assert client.sync_headers(from_node=serving(fork)) == len(fork)
        assert all(client.header(h) is fork[h] for h in range(len(fork)))
        # a fork broken below the local tip is refused, the local headers kept
        broken = list(fork)
        broken[1] = dataclasses.replace(fork[1], prev_hash=b"\x00" * 32)
        client = self.synced(auth_net, headers[:4])
        with pytest.raises(VerificationError, match="broken at height 1"):
            client.sync_headers(from_node=serving(broken))
        assert client.height == 4 and client.header(3) is headers[3]

    def test_broken_extension_raises_and_keeps_local(self, auth_net):
        headers = auth_net.node(0).store.headers
        client = self.synced(auth_net, headers[:3])
        broken = list(headers)
        broken[4] = dataclasses.replace(headers[4], prev_hash=b"\x00" * 32)
        with pytest.raises(VerificationError, match="broken at height 4"):
            client.sync_headers(from_node=serving(broken))
        assert client.height == 3


def serving(headers):
    """A stand-in full node whose store serves ``headers``."""
    return SimpleNamespace(store=SimpleNamespace(headers=list(headers)))


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


#: transactions per block of :func:`ragged_node`'s chain: single-entry
#: trees, and trees with more entries than the order (16) has fan-out
RAGGED_BATCHES = (1, 7, 40, 2, 16, 1, 5, 33)

#: per ALI: the keys the chain holds plus keys below, between and above
KEY_DOMAINS = {
    "senid": ["a", "org", "org0", "org1", "org1x", "org2", "org3", "zzz"],
    "tname": ["__schema__", "a", "donate", "e", "transfer", "zzz"],
    "amount": [-1.0, 0.0, 1.0, 2.5, 3.0, 6.0, 9.0],
}
ALI_TABLES = {"senid": None, "tname": None, "amount": "donate"}
KEY_OF = {"senid": lambda tx: tx.senid, "tname": lambda tx: tx.tname,
          "amount": lambda tx: tx.values[2]}


@pytest.fixture(scope="module", params=["transaction", "block"])
def ragged_node(request):
    """One node whose blocks are of the sizes :data:`RAGGED_BATCHES`,
    with authenticated ``senid``, ``tname`` and ``amount`` indexes."""
    node = FullNode("ragged", config=SebdbConfig.in_memory(
        cache_mode=request.param))
    node.execute("CREATE TABLE donate (donor string, project string, "
                 "amount decimal)")
    node.execute("CREATE TABLE transfer (donor string, amount decimal)")
    i = 0
    for size in RAGGED_BATCHES:
        batch = []
        for _ in range(size):
            sender = f"org{i % 4}"
            if i % 3:
                batch.append(Transaction.create(
                    "donate", (f"d{i % 5}", "edu", float(i % 7)), ts=i,
                    sender=sender))
            else:
                batch.append(Transaction.create(
                    "transfer", (f"d{i % 5}", float(i % 7)), ts=i,
                    sender=sender))
            i += 1
        node.apply_batch(batch)
    for column, table in ALI_TABLES.items():
        node.create_index(column, table=table, authenticated=True)
    yield node
    node.close()


def reference_proof(tree, low, high):
    """An MB-tree range proof as each block's was built before: keyword
    arguments, and every fill copied into a new tuple."""
    n, order = len(tree), tree.order
    if n == 0:
        return MBRangeProof(total=0, start=0, covered=0, order=order,
                            has_left_boundary=False, has_right_boundary=False,
                            fills=())
    lo, hi = tree._span(low, high, True, True)
    hi -= 1
    if lo > hi:
        start, end = max(lo - 1, 0), min(lo, n - 1)
    else:
        start = lo - 1 if lo > 0 else lo
        end = hi + 1 if hi < n - 1 else hi
    return span_proof(tree, start, end, lo > 0,
                      (hi if lo <= hi else lo - 1) < n - 1)


def span_proof(tree, start, end, left, right):
    """A proof covering entries ``start..end`` of ``tree`` with the given
    boundary flags, its fills taken from the tree: whatever the span, its
    root reconstructs."""
    order = tree.order
    fills = []
    span_lo, span_hi = start, end
    for level in tree._levels[:-1]:
        parent_lo, parent_hi = span_lo // order, span_hi // order
        group_end = min((parent_hi + 1) * order, len(level))
        fills.append((tuple(level[parent_lo * order : span_lo]),
                      tuple(level[span_hi + 1 : group_end])))
        span_lo, span_hi = parent_lo, parent_hi
    return MBRangeProof(
        total=len(tree), start=start, covered=end - start + 1, order=order,
        has_left_boundary=left, has_right_boundary=right, fills=tuple(fills))


def reference_vo(node, column, low, high, table, height):
    """A VO built the per-block way: the covered (key, position) pairs,
    one lazy raw positional read per block."""
    index = node.indexes.layered(column, table)
    server = AuthQueryServer(node)
    blocks = []
    for bid in server._candidate_blocks(index, low, high, height, None, table):
        tree = index.tree(bid)
        proof = reference_proof(tree, low, high)
        positions = [position for _key, position in tree.covered_payloads(proof)]
        records = tuple(node.store.read_positions(bid, positions, raw=True))
        blocks.append(BlockVO(height=bid, records=records, proof=proof))
    return QueryVO(chain_height=height, column=column, low=low, high=high,
                   blocks=tuple(blocks))


class TestVOBuild:
    """A VO equals one built block by block the way it was before, and
    verifies to exactly the chain's matching transactions."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_vo_equals_the_per_block_reference(self, ragged_node, data):
        column = data.draw(st.sampled_from(sorted(KEY_DOMAINS)))
        table = ALI_TABLES[column]
        bound = st.one_of(st.none(), st.sampled_from(KEY_DOMAINS[column]))
        low = data.draw(bound)
        high = low if data.draw(st.booleans()) else data.draw(bound)
        if low is not None and high is not None and low > high:
            low, high = high, low
        height = data.draw(st.integers(1, ragged_node.store.height))
        server = AuthQueryServer(ragged_node)
        vo = server.range_vo(column, low, high, table=table, height=height)
        assert vo == reference_vo(ragged_node, column, low, high, table,
                                  height)
        digest = server.auxiliary_digest(column, low, high, height,
                                         table=table)
        key_of = KEY_OF[column]
        result = verify_query_vo(vo, key_of=key_of, expected_digest=digest,
                                 rows={}, query=(column, low, high))
        assert result.vo_size_bytes == vo.size_bytes()
        expected = [
            tx.tid for h in range(height)
            for tx in ragged_node.store.read_block(h).transactions
            if (table is None or tx.tname == table)
            and (low is None or key_of(tx) >= low)
            and (high is None or key_of(tx) <= high)]
        assert sorted(tx.tid for tx in result.transactions) == sorted(expected)

    def test_trees_of_every_shape_are_visited(self, ragged_node):
        # the chain the property runs over has single-entry and multi-level
        # trees, and blocks a query visits without a match in them
        index = ragged_node.indexes.layered("amount", "donate")
        sizes = {len(tree) for tree in index.trees.values()}
        assert 1 in sizes and max(sizes) > ragged_node.config.bptree_order
        vo = AuthQueryServer(ragged_node).range_vo(
            "amount", 2.5, 2.5, table="donate")
        assert vo.blocks
        assert verify_query_vo(vo, key_of=KEY_OF["amount"]).transactions == ()


def _replace_block(vo, index, **changes):
    blocks = list(vo.blocks)
    blocks[index] = dataclasses.replace(blocks[index], **changes)
    return dataclasses.replace(vo, blocks=tuple(blocks))


def _replace_proof(vo, index, **changes):
    proof = dataclasses.replace(vo.blocks[index].proof, **changes)
    return _replace_block(vo, index, proof=proof)


def _refill(vo, index, edit):
    """``edit(left, right)`` -> (left, right) of the first level's fills."""
    fills = list(vo.blocks[index].proof.fills)
    fills[0] = edit(*fills[0])
    return _replace_proof(vo, index, fills=tuple(fills))


#: name -> edit of an honest VO (``target`` is the index of the block
#: with the most records) that verification must refuse
MUTATIONS = {
    "dropped record": lambda vo, t: _replace_block(
        vo, t, records=vo.blocks[t].records[1:]),
    "dropped record, count kept honest": lambda vo, t: _replace_proof(
        _replace_block(vo, t, records=vo.blocks[t].records[:1]
                       + vo.blocks[t].records[2:]),
        t, covered=vo.blocks[t].proof.covered - 1),
    "reordered records": lambda vo, t: _replace_block(
        vo, t, records=vo.blocks[t].records[::-1]),
    "swapped neighbours": lambda vo, t: _replace_block(
        vo, t, records=(vo.blocks[t].records[:1]
                        + vo.blocks[t].records[1:3][::-1]
                        + vo.blocks[t].records[3:])),
    "start one lower": lambda vo, t: _replace_proof(
        vo, t, start=vo.blocks[t].proof.start - 1),
    "start one higher": lambda vo, t: _replace_proof(
        vo, t, start=vo.blocks[t].proof.start + 1),
    "covered one more": lambda vo, t: _replace_proof(
        vo, t, covered=vo.blocks[t].proof.covered + 1),
    # a total that regroups no digest on the covered path changes no
    # check, so each wrong total here moves a parent group
    "total a group less": lambda vo, t: _replace_proof(
        vo, t, total=vo.blocks[t].proof.total - vo.blocks[t].proof.order),
    "total a group more": lambda vo, t: _replace_proof(
        vo, t, total=vo.blocks[t].proof.total + vo.blocks[t].proof.order),
    "tail cut off by the total": lambda vo, t: _replace_proof(
        vo, t, has_right_boundary=False,
        total=vo.blocks[t].proof.start + vo.blocks[t].proof.covered),
    "order one more": lambda vo, t: _replace_proof(
        vo, t, order=vo.blocks[t].proof.order + 1),
    "order zero": lambda vo, t: _replace_proof(vo, t, order=0),
    "order one": lambda vo, t: _replace_proof(vo, t, order=1),
    "left boundary denied": lambda vo, t: _replace_proof(
        vo, t, has_left_boundary=False),
    "right boundary denied": lambda vo, t: _replace_proof(
        vo, t, has_right_boundary=False),
    "left fill short": lambda vo, t: _refill(
        vo, t, lambda left, right: (left[1:], right)),
    "left fill long": lambda vo, t: _refill(
        vo, t, lambda left, right: (left + left[:1], right)),
    "right fill short": lambda vo, t: _refill(
        vo, t, lambda left, right: (left, right[1:])),
    "fills dropped": lambda vo, t: _replace_proof(vo, t, fills=()),
    "duplicate height": lambda vo, t: dataclasses.replace(
        vo, blocks=vo.blocks + vo.blocks[t:t + 1]),
    "height past the snapshot": lambda vo, t: _replace_block(
        vo, t, height=vo.chain_height),
    "withheld block": lambda vo, t: dataclasses.replace(
        vo, blocks=vo.blocks[:t] + vo.blocks[t + 1:]),
}


class TestVOMutations:
    """Every edit of an honest VO is refused with VerificationError."""

    def honest(self, node):
        server = AuthQueryServer(node)
        vo = server.range_vo("senid", "org1", "org1")
        digest = server.auxiliary_digest("senid", "org1", "org1",
                                         vo.chain_height)
        target = max(range(len(vo.blocks)),
                     key=lambda i: len(vo.blocks[i].records))
        proof = vo.blocks[target].proof
        assert target > 0 and len(proof.fills) > 1 and proof.fills[0][0]
        assert proof.fills[0][1] and len(vo.blocks[target].records) > 3
        return vo, digest, target

    def refused(self, vo, digest):
        with pytest.raises(VerificationError):
            verify_query_vo(vo, key_of=lambda tx: tx.senid,
                            expected_digest=digest, rows={},
                            query=("senid", "org1", "org1"))

    def test_honest_vo_verifies(self, ragged_node):
        vo, digest, _target = self.honest(ragged_node)
        result = verify_query_vo(vo, key_of=lambda tx: tx.senid,
                                 expected_digest=digest,
                                 query=("senid", "org1", "org1"))
        assert result.transactions

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_refused(self, ragged_node, name):
        vo, digest, target = self.honest(ragged_node)
        mutated = MUTATIONS[name](vo, target)
        assert mutated != vo
        self.refused(mutated, digest)

    # A span moved by one entry, its fills taken from the tree, rebuilds
    # the honest root: only the key checks stand between it and the
    # answer.  Narrowed, a match would be dropped as a boundary; widened,
    # a boundary's neighbour outside the range would be returned.
    @pytest.mark.parametrize("edge", ["left", "right"])
    @pytest.mark.parametrize("shift", ["narrowed", "widened"])
    def test_span_moved_by_one_entry_refused(self, ragged_node, edge, shift):
        vo, digest, target = self.honest(ragged_node)
        block = vo.blocks[target]
        tree = ragged_node.indexes.layered("senid").tree(block.height)
        proof = block.proof
        start, end = proof.start, proof.start + proof.covered - 1
        step = 1 if shift == "narrowed" else -1
        if edge == "left":
            start += step
        else:
            end -= step
        assert 0 <= start < end < len(tree)
        moved = span_proof(tree, start, end, proof.has_left_boundary,
                           proof.has_right_boundary)
        records = tuple(ragged_node.store.read_records_at(
            block.height, tree.covered_positions(moved)))
        assert reconstruct_root(
            moved, [hash_leaf(record) for record in records]) == tree.root
        self.refused(_replace_block(vo, target, records=records,
                                    proof=moved), digest)

    def test_every_flipped_byte_refused(self, ragged_node):
        vo, digest, target = self.honest(ragged_node)
        records = vo.blocks[target].records
        record = records[1]
        for at in range(len(record)):
            flipped = bytearray(record)
            flipped[at] ^= 0x01
            self.refused(_replace_block(
                vo, target, records=records[:1] + (bytes(flipped),)
                + records[2:]), digest)


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
