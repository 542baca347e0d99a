"""Layer micro loops: fixed seeds, fixed sizes, one number each.

The traced run cannot time the hottest calls honestly - a wrapper costs
about as much as one ``Transaction.to_bytes`` - so each layer's inner
operation is also timed here in a tight loop with no wrapper in the way.
Inputs never depend on ``--seed``: these are points on a trajectory.  Every
loop reports the median of :data:`REPEATS` timings, in microseconds per
operation.

Like every timing the benchmark reports, these are scaled to the reference
machine speed (see calib.py) by the caller.
"""

# ruff: noqa: I001 - isort would file the benchmark's sibling modules as
# third-party (and ``trace`` as standard library); they are grouped last here.
from __future__ import annotations

import random
import statistics
import time
from pathlib import Path
from typing import Callable

from repro.common.config import SebdbConfig
from repro.crypto import group
from repro.crypto.batch import verify_batch
from repro.crypto.keys import KeyPair
from repro.index.bptree import BPlusTree
from repro.mht.mbtree import MBTree
from repro.model.genesis import make_genesis
from repro.model.transaction import Transaction
from repro.network.bus import MessageBus
from repro.node.fullnode import FullNode
from repro.sqlparser import parse, tokenize
from repro.storage.segment import SegmentStore

import gen

REPEATS = 5
_pc = time.perf_counter


def _median_us(loop: Callable[[], int]) -> float:
    """Median over REPEATS of (loop wall / operations it reports), in us."""
    samples = []
    for _ in range(REPEATS):
        t0 = _pc()
        ops = loop()
        samples.append((_pc() - t0) / ops * 1e6)
    return statistics.median(samples)


def _crypto() -> dict[str, float]:
    rng = random.Random("perf-micro-crypto")
    scalars = [rng.randrange(1, group.N) for _ in range(4)]
    points = [group.scalar_mul(k) for k in scalars]
    terms = [(rng.randrange(1, group.N), points[i % 4]) for i in range(64)]
    keypair = KeyPair.from_seed("perf-micro")
    items = []
    for i in range(64):
        message = f"perf-micro-message-{i}".encode()
        items.append((keypair.public_key, message, keypair.sign(message)))

    def scalar_mul() -> int:
        for k in scalars:
            group.scalar_mul(k)
        return len(scalars)

    def msm64() -> int:
        group.multi_scalar_mul(terms)
        return 1

    def batch64() -> int:
        if not verify_batch(items).all_valid:
            raise AssertionError("micro batch must verify")
        return 1

    return {
        "crypto.micro.scalar_mul_us": _median_us(scalar_mul),
        "crypto.micro.msm64_us": _median_us(msm64),
        "crypto.micro.verify_batch64_us": _median_us(batch64),
    }


def _codec() -> dict[str, float]:
    txs = [gen.to_transaction(s).with_tid(i)
           for i, s in enumerate(gen.unsigned_stream(0, 200, "micro-codec"))]

    def roundtrip() -> int:
        for tx in txs:
            Transaction.from_bytes(tx.to_bytes())
        return len(txs)

    return {"codec.micro.tx_roundtrip_us": _median_us(roundtrip)}


def _storage(scratch: Path) -> dict[str, float]:
    record = bytes(range(256)) * 12  # about one 60-tx block
    counter = [0]
    locations = []

    def append() -> int:
        counter[0] += 1
        store = SegmentStore(scratch / f"segments-{counter[0]}", 1 << 20)
        locations[:] = [(store, store.append(record)) for _ in range(200)]
        return 200

    def read() -> int:
        for store, location in locations:
            store.read(location)
        return len(locations)

    return {
        "storage.micro.segment_append_us": _median_us(append),
        "storage.micro.segment_read_us": _median_us(read),
    }


def _index_and_mht() -> dict[str, float]:
    rng = random.Random("perf-micro-index")
    keys = [rng.uniform(0, 10_000) for _ in range(2000)]
    tree = BPlusTree.bulk_load([(k, i) for i, k in enumerate(keys)], order=32)
    ranges = [(low, low + 50.0) for low in (rng.uniform(0, 9_900) for _ in range(200))]
    mbtree = MBTree.bulk_load([(k, i) for i, k in enumerate(keys[:60])], order=32)

    def insert() -> int:
        fresh = BPlusTree(order=32)
        for i, k in enumerate(keys):
            fresh.insert(k, i)
        return len(keys)

    def scan() -> int:
        for low, high in ranges:
            for _ in tree.range(low, high):
                pass
        return len(ranges)

    def proof() -> int:
        for low, high in ranges:
            mbtree.range_proof(low, high + 2_000.0)
        return len(ranges)

    return {
        "index.micro.bptree_insert_us": _median_us(insert),
        "index.micro.bptree_range_us": _median_us(scan),
        "mht.micro.mbtree_proof_us": _median_us(proof),
    }


def _read_path() -> dict[str, float]:
    node = FullNode(
        "perf-micro", config=SebdbConfig.in_memory(),
        genesis=make_genesis(0, gen.SCHEMAS),
    )
    specs = gen.unsigned_stream(0, 600, "micro-read")
    for start in range(0, len(specs), 60):
        node.apply_batch([gen.to_transaction(s) for s in specs[start:start + 60]])
    node.create_index("amount", table="donate")
    statement = parse("SELECT * FROM donate WHERE amount BETWEEN 100.0 AND 200.0")
    optimizer = node.engine.optimizer

    def lex() -> int:
        for _ in range(200):
            tokenize(gen.Q5_SQL)
        return 200

    def rank() -> int:
        for _ in range(100):
            optimizer.rank(statement)
        return 100

    out = {
        "sqlparser.micro.tokenize_us": _median_us(lex),
        "query.micro.optimizer_rank_us": _median_us(rank),
    }
    node.close()
    return out


def _network() -> dict[str, float]:
    def roundtrips() -> int:
        bus = MessageBus(seed=0)
        remaining = [1000]

        def ping(src: str, message: object) -> None:
            bus.send("ping", "pong", message)

        def pong(src: str, message: object) -> None:
            remaining[0] -= 1
            if remaining[0]:
                bus.send("pong", "ping", message)

        bus.register("ping", ping)
        bus.register("pong", pong)
        bus.send("pong", "ping", {"kind": "probe"})
        bus.run_until_idle()
        return 1000

    return {"network.micro.bus_roundtrip_us": _median_us(roundtrips)}


def run_all(scratch: Path, lap: Callable[[], float]) -> dict[str, float]:
    """Every micro metric, at the reference speed.

    ``scratch`` is a directory the caller removes; ``lap`` closes a
    stopwatch lap and returns its raw-to-reference factor (calib.py), so
    each group of loops is scaled by the samples taken right around it.
    """
    out: dict[str, float] = {}
    groups = (_crypto, _codec, lambda: _storage(scratch), _index_and_mht,
              _read_path, _network)
    for group in groups:
        values = group()
        scale = lap()
        out.update({name: value * scale for name, value in values.items()})
    return out
