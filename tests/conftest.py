"""Shared fixtures: keypairs, schemas, small populated chains."""

from __future__ import annotations

import os
import random

import pytest

from repro.crypto import KeyPair
from repro.index.manager import IndexManager
from repro.model import (
    Block,
    Catalog,
    TableSchema,
    Transaction,
    make_genesis,
)
from repro.offchain import OffChainDatabase
from repro.query import QueryEngine
from repro.storage import BlockStore

DONATE = TableSchema.create(
    "donate", [("donor", "string"), ("project", "string"), ("amount", "decimal")]
)
TRANSFER = TableSchema.create(
    "transfer",
    [("project", "string"), ("donor", "string"), ("organization", "string"),
     ("amount", "decimal")],
)
DISTRIBUTE = TableSchema.create(
    "distribute",
    [("project", "string"), ("donor", "string"), ("organization", "string"),
     ("donee", "string"), ("amount", "decimal")],
)


def pytest_generate_tests(metafunc):
    """Parametrize chaos soaks over a seed matrix.

    Locally a soak runs on its own seeds (``@pytest.mark.soak_seeds(...)``,
    else 11 and 29), which keeps runs fast; CI's chaos job runs every soak
    over ``SEBDB_SOAK_SEEDS`` (comma-separated ints) instead, without
    touching the tests themselves.
    """
    if "soak_seed" in metafunc.fixturenames:
        raw = os.environ.get("SEBDB_SOAK_SEEDS")
        if raw is not None:
            seeds = [int(part) for part in raw.split(",") if part.strip()]
        else:
            marker = metafunc.definition.get_closest_marker("soak_seeds")
            seeds = list(marker.args) if marker is not None else [11, 29]
        metafunc.parametrize("soak_seed", seeds)


@pytest.fixture(scope="session")
def keypair() -> KeyPair:
    return KeyPair.from_seed("test-fixture")


@pytest.fixture()
def donate_schema() -> TableSchema:
    return DONATE


@pytest.fixture()
def sample_tx(keypair: KeyPair) -> Transaction:
    return Transaction.create(
        "donate", ("Jack", "Education", 100.0), ts=42, keypair=keypair
    )


class SmallChain:
    """A deterministic 10-block donation chain with indexes and engine."""

    NUM_BLOCKS = 10
    TXS_PER_BLOCK = 24
    ORGS = ("org1", "org2", "org3")
    DONEES = ("tom", "amy", "bob", "sue")

    def __init__(self) -> None:
        rng = random.Random(1234)
        self.store = BlockStore()
        self.catalog = Catalog()
        genesis = make_genesis(0, [DONATE, TRANSFER, DISTRIBUTE])
        self.store.append_block(genesis)
        self.catalog.apply_transactions(genesis.transactions)
        self.indexes = IndexManager(self.store, order=8, histogram_depth=8)
        prev = self.store.tip_hash
        tid = len(genesis.transactions)
        self.all_txs: list[Transaction] = []
        for height in range(1, self.NUM_BLOCKS + 1):
            txs = []
            for i in range(self.TXS_PER_BLOCK):
                ts = height * 100 + i
                sender = self.ORGS[rng.randrange(3)]
                kind = rng.random()
                if kind < 0.4:
                    tx = Transaction.create(
                        "donate",
                        (f"donor{rng.randrange(8)}", "edu",
                         float(rng.randint(1, 1000))),
                        ts=ts, sender=sender,
                    )
                elif kind < 0.7:
                    tx = Transaction.create(
                        "transfer",
                        ("edu", f"donor{rng.randrange(8)}",
                         self.ORGS[rng.randrange(3)],
                         float(rng.randint(1, 1000))),
                        ts=ts, sender=sender,
                    )
                else:
                    tx = Transaction.create(
                        "distribute",
                        ("edu", f"donor{rng.randrange(8)}",
                         self.ORGS[rng.randrange(3)],
                         self.DONEES[rng.randrange(4)],
                         float(rng.randint(1, 500))),
                        ts=ts, sender=sender,
                    )
                txs.append(tx.with_tid(tid))
                tid += 1
            block = Block.package(prev, height, height * 100 + 99, txs)
            self.store.append_block(block)
            self.all_txs.extend(txs)
            prev = block.block_hash()
        self.indexes.create_layered_index("senid")
        self.indexes.create_layered_index("tname")
        self.indexes.create_layered_index("amount", table="donate",
                                          schema=DONATE)
        self.indexes.create_layered_index("organization", table="transfer",
                                          schema=TRANSFER)
        self.indexes.create_layered_index("amount", table="transfer",
                                          schema=TRANSFER)
        self.indexes.create_layered_index("organization", table="distribute",
                                          schema=DISTRIBUTE)
        self.indexes.create_layered_index("donee", table="distribute",
                                          schema=DISTRIBUTE)
        self.offchain = OffChainDatabase()
        self.offchain.create_table(
            "doneeinfo",
            [("donee", "string"), ("name", "string"), ("income", "decimal")],
        )
        self.offchain.insert(
            "doneeinfo",
            [("tom", "Tom", 100.0), ("amy", "Amy", 55.0), ("sue", "Sue", 80.0)],
        )
        self.engine = QueryEngine(self.store, self.indexes, self.catalog,
                                  self.offchain)

    def txs_matching(self, predicate) -> list[Transaction]:
        return [tx for tx in self.all_txs if predicate(tx)]


@pytest.fixture(scope="module")
def chain() -> SmallChain:
    return SmallChain()
