"""End-to-end property tests: random workloads, cross-path equivalence.

The central correctness property of the whole system: for ANY generated
chain and ANY query, the three physical access paths return the same
result set, and that set equals a brute-force evaluation over the raw
transactions.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SebdbConfig
from repro.index import IndexManager
from repro.model import Block, Catalog, TableSchema, Transaction, make_genesis
from repro.query import QueryEngine
from repro.storage import BlockStore

SCHEMA = TableSchema.create(
    "events", [("actor", "string"), ("kind", "string"), ("value", "decimal")]
)

ACTORS = ["a1", "a2", "a3"]
KINDS = ["create", "update", "delete"]


def build_chain(seed: int, num_blocks: int, txs_per_block: int):
    rng = random.Random(seed)
    store = BlockStore(SebdbConfig.in_memory())
    catalog = Catalog()
    genesis = make_genesis(0, [SCHEMA])
    store.append_block(genesis)
    catalog.apply_transactions(genesis.transactions)
    indexes = IndexManager(store, order=6, histogram_depth=5)
    prev = store.tip_hash
    tid = 1
    all_txs = []
    for height in range(1, num_blocks + 1):
        txs = []
        for i in range(txs_per_block):
            tx = Transaction.create(
                "events",
                (rng.choice(ACTORS), rng.choice(KINDS),
                 float(rng.randint(0, 100))),
                ts=height * 100 + i,
                sender=rng.choice(ACTORS),
            ).with_tid(tid)
            tid += 1
            txs.append(tx)
        block = Block.package(prev, height, height * 100 + 99, txs)
        store.append_block(block)
        prev = block.block_hash()
        all_txs.extend(txs)
    indexes.create_layered_index("senid")
    indexes.create_layered_index("tname")
    indexes.create_layered_index("value", table="events", schema=SCHEMA)
    indexes.create_layered_index("actor", table="events", schema=SCHEMA)
    return QueryEngine(store, indexes, catalog), all_txs


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    low=st.integers(0, 100),
    span=st.integers(0, 60),
)
def test_range_query_equivalence(seed, low, span):
    engine, all_txs = build_chain(seed, num_blocks=6, txs_per_block=12)
    high = low + span
    expected = sorted(
        tx.tid for tx in all_txs if low <= tx.values[2] <= high
    )
    for method in ("scan", "bitmap", "layered"):
        result = engine.execute(
            "SELECT * FROM events WHERE value BETWEEN ? AND ?",
            (float(low), float(high)), method=method,
        )
        assert sorted(tx.tid for tx in result.transactions) == expected


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    actor=st.sampled_from(ACTORS),
    with_window=st.booleans(),
)
def test_tracking_equivalence(seed, actor, with_window):
    engine, all_txs = build_chain(seed, num_blocks=6, txs_per_block=12)
    window = " [250, 520]" if with_window else ""
    sql = f"TRACE{window} OPERATOR = '{actor}'"
    expected = sorted(
        tx.tid for tx in all_txs
        if tx.senid == actor
        and (not with_window or 250 <= tx.ts <= 520)
    )
    for method in ("scan", "bitmap", "layered"):
        result = engine.execute(sql, method=method)
        assert sorted(tx.tid for tx in result.transactions) == expected


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), actor=st.sampled_from(ACTORS))
def test_point_query_equivalence(seed, actor):
    engine, all_txs = build_chain(seed, num_blocks=5, txs_per_block=10)
    expected = sorted(
        tx.tid for tx in all_txs if tx.values[0] == actor
    )
    for method in ("scan", "bitmap", "layered"):
        result = engine.execute(
            f"SELECT * FROM events WHERE actor = '{actor}'", method=method
        )
        assert sorted(tx.tid for tx in result.transactions) == expected


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_aggregates_match_bruteforce(seed):
    engine, all_txs = build_chain(seed, num_blocks=5, txs_per_block=10)
    result = engine.execute(
        "SELECT actor, COUNT(*), SUM(value) FROM events GROUP BY actor"
    )
    truth: dict = {}
    for tx in all_txs:
        entry = truth.setdefault(tx.values[0], [0, 0.0])
        entry[0] += 1
        entry[1] += tx.values[2]
    assert len(result) == len(truth)
    for actor, count, total in result.rows:
        assert truth[actor][0] == count
        assert truth[actor][1] == pytest.approx(total)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(KINDS))
def test_authenticated_result_matches_plain(seed, kind):
    """The verified thin-client answer equals the unverified answer."""
    import random as _random

    from repro.mht.vo import verify_query_vo
    from repro.node import FullNode
    from repro.node.auth import AuthQueryServer

    rng = _random.Random(seed)
    node = FullNode("n0", genesis=make_genesis(0, [SCHEMA]))
    for i in range(30):
        node.insert(
            "events",
            (rng.choice(ACTORS), rng.choice(KINDS), float(rng.randint(0, 50))),
            sender=rng.choice(ACTORS),
        )
    node.create_index("tname", authenticated=True)
    server = AuthQueryServer(node)
    vo = server.range_vo("tname", kind, kind)
    digest = server.auxiliary_digest("tname", kind, kind, vo.chain_height)
    verified = verify_query_vo(vo, key_of=lambda tx: tx.tname,
                               expected_digest=digest)
    plain = node.query(f"TRACE OPERATION = '{kind}'")
    assert sorted(tx.tid for tx in verified.transactions) == sorted(
        tx.tid for tx in plain.transactions
    )
