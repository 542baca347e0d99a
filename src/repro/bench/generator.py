"""BChainBench data generator.

Simulates the paper's two dimensions: the *time* dimension (how a query's
resulting transactions are physically distributed among blocks - uniform,
or Gaussian with a configurable variance around the middle block) and the
*attribute* dimension (how many transactions satisfy the query predicate,
i.e. the result size).

Every builder returns a :class:`Dataset` whose chain lives in a
standalone full node (consensus is exercised separately by the write
benchmark - for query benchmarks the chain content is what matters).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional, Sequence

from ..common.config import SebdbConfig
from ..model.transaction import Transaction
from ..node.fullnode import FullNode
from ..offchain.adapter import OffChainDatabase
from .schema import DISTRIBUTE, DONATE, ONCHAIN_SCHEMAS, TRANSFER, create_offchain_tables

UNIFORM = "uniform"
GAUSSIAN = "gaussian"

#: amount range that counts as "matching" for range-query datasets
RESULT_LOW = 100.0
RESULT_HIGH = 200.0
#: noise amounts fall far outside the result range
NOISE_LOW = 1_000.0
NOISE_HIGH = 10_000.0

#: ms of simulated time per block of generated history
TS_PER_BLOCK = 1_000

#: Benchmark cost-model calibration.  The paper's regime is 4 MB blocks of
#: ~300 B transactions on 4 KB pages: one block read costs ~(4 ms seek +
#: 1000 pages x 0.1 ms) = 104 ms while one indexed tuple read costs ~4.1 ms,
#: a ~25:1 ratio.  Our scaled blocks hold tens of transactions, so we keep
#: the *ratio* by pricing one page per transaction (page ~= tx size) with
#: cheap seeks and expensive transfers: block ~= (1 + 60x2) = 121 ms,
#: tuple ~= 3 ms - the same 25-40:1 regime, which is what gives Figs 8-16
#: their shapes.
BENCH_SEEK_MS = 1.0
BENCH_TRANSFER_MS = 2.0
BENCH_PAGE_SIZE = 128


@dataclasses.dataclass
class Dataset:
    """A generated chain plus its ground truth."""

    node: FullNode
    num_blocks: int
    txs_per_block: int
    result_size: int
    distribution: str
    offchain: Optional[OffChainDatabase] = None

    @property
    def store(self):
        return self.node.store

    @property
    def indexes(self):
        return self.node.indexes


def spread_counts(
    total: int,
    num_blocks: int,
    distribution: str,
    rng: random.Random,
    variance: float = 20.0,
) -> list[int]:
    """How many result transactions land in each block.

    Uniform spreads evenly; Gaussian concentrates around the middle block
    with the given standard deviation (the paper's "mean equals to the
    middle of block and variance set to 20").
    """
    if num_blocks <= 0:
        raise ValueError("num_blocks must be positive")
    counts = [0] * num_blocks
    if distribution == UNIFORM:
        base, extra = divmod(total, num_blocks)
        for i in range(num_blocks):
            counts[i] = base + (1 if i < extra else 0)
        return counts
    if distribution == GAUSSIAN:
        mean = num_blocks / 2
        for _ in range(total):
            bid = int(rng.gauss(mean, variance))
            bid = min(max(bid, 0), num_blocks - 1)
            counts[bid] += 1
        return counts
    raise ValueError(f"unknown distribution {distribution!r}")


def _fresh_node(config: Optional[SebdbConfig] = None) -> FullNode:
    from ..model.genesis import make_genesis

    config = config or SebdbConfig.in_memory(
        block_size_txs=100_000, cache_bytes=8 * 1024 * 1024
    )
    # schemas ship in the genesis block so data blocks start at height 1
    node = FullNode(
        "bench", config=config, genesis=make_genesis(0, ONCHAIN_SCHEMAS)
    )
    node.store.cost.seek_ms = BENCH_SEEK_MS
    node.store.cost.transfer_ms = BENCH_TRANSFER_MS
    node.store.cost.page_size = BENCH_PAGE_SIZE
    return node


def _load_blocks(
    node: FullNode, blocks: Sequence[Sequence[Transaction]]
) -> None:
    """Apply pre-built per-block transaction lists as consecutive blocks."""
    for txs in blocks:
        if txs:
            node.apply_batch(list(txs))


class _TxFactory:
    """Builds the benchmark's transaction mix with controlled attributes."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._noise_seq = 0

    def donate(self, ts: int, sender: str, amount: float) -> Transaction:
        return Transaction.create(
            DONATE.name,
            (f"donor{self.rng.randrange(1000)}", "education", amount),
            ts=ts, sender=sender,
        )

    def transfer(self, ts: int, sender: str, organization: str) -> Transaction:
        return Transaction.create(
            TRANSFER.name,
            ("education", f"donor{self.rng.randrange(1000)}", organization, 500.0),
            ts=ts, sender=sender,
        )

    def distribute(
        self, ts: int, sender: str, organization: str, donee: str
    ) -> Transaction:
        return Transaction.create(
            DISTRIBUTE.name,
            ("education", f"donor{self.rng.randrange(1000)}", organization,
             donee, 50.0),
            ts=ts, sender=sender,
        )

    def noise(self, ts: int) -> Transaction:
        """A transaction that matches none of the benchmark predicates."""
        self._noise_seq += 1
        sender = f"noise_org{self.rng.randrange(50)}"
        amount = self.rng.uniform(NOISE_LOW, NOISE_HIGH)
        return self.donate(ts, sender, amount)


def build_tracking_dataset(
    num_blocks: int,
    txs_per_block: int,
    result_size: int,
    distribution: str = UNIFORM,
    variance: float = 20.0,
    operator_extra: int = 0,
    operation_extra: int = 0,
    seed: int = 0,
    config: Optional[SebdbConfig] = None,
) -> Dataset:
    """Chain for Q2/Q3: ``result_size`` transactions are sent by ``org1``
    *and* of type ``transfer``; ``operator_extra`` extra transactions are
    by ``org1`` but a different type, ``operation_extra`` are transfers by
    other senders (the Fig 21 knobs).
    Noise fills each block to ``txs_per_block``.
    """
    rng = random.Random(seed)
    factory = _TxFactory(rng)
    result_counts = spread_counts(result_size, num_blocks, distribution, rng, variance)
    op_extra_counts = spread_counts(operator_extra, num_blocks, UNIFORM, rng)
    opn_extra_counts = spread_counts(operation_extra, num_blocks, UNIFORM, rng)
    blocks: list[list[Transaction]] = []
    for bid in range(num_blocks):
        ts0 = bid * TS_PER_BLOCK
        txs: list[Transaction] = []
        for k in range(result_counts[bid]):
            txs.append(factory.transfer(ts0 + len(txs), "org1", "orgA"))
        for k in range(op_extra_counts[bid]):
            # org1 sends a non-transfer transaction
            txs.append(factory.donate(ts0 + len(txs), "org1",
                                      rng.uniform(NOISE_LOW, NOISE_HIGH)))
        for k in range(opn_extra_counts[bid]):
            txs.append(factory.transfer(ts0 + len(txs), f"other_org{k % 9}", "orgB"))
        while len(txs) < txs_per_block:
            txs.append(factory.noise(ts0 + len(txs)))
        blocks.append(txs)
    node = _fresh_node(config)
    _load_blocks(node, blocks)
    return Dataset(
        node=node, num_blocks=num_blocks, txs_per_block=txs_per_block,
        result_size=result_size, distribution=distribution,
    )


def build_range_dataset(
    num_blocks: int,
    txs_per_block: int,
    result_size: int,
    distribution: str = UNIFORM,
    variance: float = 20.0,
    seed: int = 0,
    config: Optional[SebdbConfig] = None,
) -> Dataset:
    """Chain for Q4: ``result_size`` donate rows with amount inside
    [RESULT_LOW, RESULT_HIGH], the rest far outside."""
    rng = random.Random(seed)
    factory = _TxFactory(rng)
    result_counts = spread_counts(result_size, num_blocks, distribution, rng, variance)
    blocks: list[list[Transaction]] = []
    for bid in range(num_blocks):
        ts0 = bid * TS_PER_BLOCK
        txs: list[Transaction] = []
        for _ in range(result_counts[bid]):
            amount = rng.uniform(RESULT_LOW, RESULT_HIGH)
            txs.append(factory.donate(ts0 + len(txs), "donor_org", amount))
        while len(txs) < txs_per_block:
            txs.append(factory.noise(ts0 + len(txs)))
        blocks.append(txs)
    node = _fresh_node(config)
    _load_blocks(node, blocks)
    return Dataset(
        node=node, num_blocks=num_blocks, txs_per_block=txs_per_block,
        result_size=result_size, distribution=distribution,
    )


def build_join_dataset(
    num_blocks: int,
    txs_per_block: int,
    table_rows: int,
    result_pairs: int,
    distribution: str = UNIFORM,
    variance: float = 20.0,
    seed: int = 0,
) -> Dataset:
    """Chain for Q5: both join tables have ``table_rows`` rows and exactly
    ``result_pairs`` (transfer, distribute) pairs share an organization."""
    rng = random.Random(seed)
    factory = _TxFactory(rng)
    if result_pairs > table_rows:
        raise ValueError("result_pairs cannot exceed table_rows")
    match_t = spread_counts(result_pairs, num_blocks, distribution, rng, variance)
    match_d = spread_counts(result_pairs, num_blocks, distribution, rng, variance)
    # the whole table follows the distribution (not just the matches), so
    # Gaussian placement concentrates the tables into fewer blocks - the
    # property behind BG < BU in Figs 13-16
    rest_t = spread_counts(table_rows - result_pairs, num_blocks,
                           distribution, rng, variance)
    rest_d = spread_counts(table_rows - result_pairs, num_blocks,
                           distribution, rng, variance)
    next_match_t = 0
    next_match_d = 0
    uniq = 0
    blocks: list[list[Transaction]] = []
    for bid in range(num_blocks):
        ts0 = bid * TS_PER_BLOCK
        txs: list[Transaction] = []
        for _ in range(match_t[bid]):
            txs.append(factory.transfer(ts0 + len(txs), "charity",
                                        f"match_org{next_match_t}"))
            next_match_t += 1
        for _ in range(match_d[bid]):
            txs.append(factory.distribute(ts0 + len(txs), "orgX",
                                          f"match_org{next_match_d}",
                                          f"donee{next_match_d % 97}"))
            next_match_d += 1
        for _ in range(rest_t[bid]):
            uniq += 1
            txs.append(factory.transfer(ts0 + len(txs), "charity", f"t_only{uniq}"))
        for _ in range(rest_d[bid]):
            uniq += 1
            txs.append(factory.distribute(ts0 + len(txs), "orgX",
                                          f"d_only{uniq}", f"lonely{uniq}"))
        while len(txs) < txs_per_block:
            txs.append(factory.noise(ts0 + len(txs)))
        blocks.append(txs)
    node = _fresh_node()
    _load_blocks(node, blocks)
    return Dataset(
        node=node, num_blocks=num_blocks, txs_per_block=txs_per_block,
        result_size=result_pairs, distribution=distribution,
    )


def build_onoff_dataset(
    num_blocks: int,
    txs_per_block: int,
    onchain_rows: int,
    result_pairs: int,
    distribution: str = UNIFORM,
    variance: float = 20.0,
    seed: int = 0,
) -> Dataset:
    """Chain + off-chain DB for Q6: ``result_pairs`` distribute rows join
    a doneeinfo row; the remaining on-chain donees have no private record."""
    rng = random.Random(seed)
    factory = _TxFactory(rng)
    if result_pairs > onchain_rows:
        raise ValueError("result_pairs cannot exceed onchain_rows")
    match = spread_counts(result_pairs, num_blocks, distribution, rng, variance)
    rest = spread_counts(onchain_rows - result_pairs, num_blocks,
                         distribution, rng, variance)
    next_match = 0
    uniq = 0
    blocks: list[list[Transaction]] = []
    for bid in range(num_blocks):
        ts0 = bid * TS_PER_BLOCK
        txs: list[Transaction] = []
        for _ in range(match[bid]):
            txs.append(factory.distribute(ts0 + len(txs), "orgX", "orgA",
                                          f"known_donee{next_match}"))
            next_match += 1
        for _ in range(rest[bid]):
            uniq += 1
            txs.append(factory.distribute(ts0 + len(txs), "orgX", "orgA",
                                          f"stranger{uniq}"))
        while len(txs) < txs_per_block:
            txs.append(factory.noise(ts0 + len(txs)))
        blocks.append(txs)
    node = _fresh_node()
    _load_blocks(node, blocks)
    offchain = OffChainDatabase()
    create_offchain_tables(offchain)
    offchain.insert(
        "doneeinfo",
        [
            (f"known_donee{i}", f"name{i}", f"school{i % 12}",
             float(rng.randint(1_000, 60_000)))
            for i in range(result_pairs)
        ],
    )
    node.offchain = offchain
    node.engine = type(node.engine)(node.store, node.indexes, node.catalog, offchain)
    return Dataset(
        node=node, num_blocks=num_blocks, txs_per_block=txs_per_block,
        result_size=result_pairs, distribution=distribution, offchain=offchain,
    )


def create_standard_indexes(dataset: Dataset, authenticated: bool = False) -> None:
    """The index set the paper's evaluation assumes."""
    node = dataset.node
    node.create_index("senid", authenticated=authenticated)
    node.create_index("tname", authenticated=authenticated)
    node.create_index("amount", table="donate", authenticated=authenticated)
    node.create_index("organization", table="transfer", authenticated=authenticated)
    node.create_index("organization", table="distribute", authenticated=authenticated)
    node.create_index("donee", table="distribute", authenticated=authenticated)
    node.store.cost.reset()
