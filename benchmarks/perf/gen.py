"""Seeded input generator and ground truth for the wall-clock benchmark.

Everything a workload feeds the system comes from here, and everything
here is a pure function of ``--seed``: transactions, key-pair names,
statement parameters and the shuffle.  The generator keeps its own plain
record of every transaction (:class:`TxSpec`) and answers "which rows
should this statement return" by brute force over those records, so the
ground truth shares no code with the engine, the indexes or
``repro.bench`` (which ROADMAP item 2 rewrites).

``ts`` doubles as the row identity: every generated transaction carries a
distinct ``ts``, so a result set is checked as a set of ``ts`` values.
"""

from __future__ import annotations

import bisect
import random
from typing import Any, Iterable, Iterator, NamedTuple, Optional, Sequence

from repro.crypto.keys import KeyPair
from repro.model.schema import TableSchema
from repro.model.transaction import Transaction

DONATE = TableSchema.create(
    "donate",
    [("donor", "string"), ("project", "string"), ("amount", "decimal")],
)
TRANSFER = TableSchema.create(
    "transfer",
    [("project", "string"), ("donor", "string"),
     ("organization", "string"), ("amount", "decimal")],
)
DISTRIBUTE = TableSchema.create(
    "distribute",
    [("project", "string"), ("donor", "string"), ("organization", "string"),
     ("donee", "string"), ("amount", "decimal")],
)
SCHEMAS = (DONATE, TRANSFER, DISTRIBUTE)
DONEEINFO_COLUMNS = [
    ("donee", "string"), ("name", "string"), ("school", "string"),
    ("family_income", "decimal"),
]

#: positions in ``values``: donate.amount; organization (the same in
#: transfer and distribute); distribute.donee
DONATE_AMOUNT_POS = 2
ORGANIZATION_POS = 2
DONEE_POS = 3

AMOUNT_MAX = 10_000.0
#: simulated ms of history per generated block (keeps block windows disjoint)
TS_PER_BLOCK = 1_000


class TxSpec(NamedTuple):
    """The generator's own record of one transaction."""

    table: str
    values: tuple
    ts: int
    sender: str


def rng_for(seed: int, label: str) -> random.Random:
    """An independent deterministic stream per (seed, purpose)."""
    return random.Random(f"sebdb-perf/{seed}/{label}")


def to_transaction(spec: TxSpec, keypair: Optional[KeyPair] = None) -> Transaction:
    return Transaction.create(
        spec.table, spec.values, ts=spec.ts, keypair=keypair,
        sender=None if keypair is not None else spec.sender,
    )


def _amount(rng: random.Random) -> float:
    return round(rng.uniform(1.0, AMOUNT_MAX), 2)


def _spec(rng: random.Random, table: str, ts: int, sender: str,
          organization: str = "", donee: str = "") -> TxSpec:
    donor = f"donor{rng.randrange(1000)}"
    if table == "donate":
        values: tuple = (donor, "education", _amount(rng))
    elif table == "transfer":
        values = ("education", donor, organization, _amount(rng))
    else:
        values = ("education", donor, organization, donee, _amount(rng))
    return TxSpec(table, values, ts, sender)


# -- write streams ----------------------------------------------------------


def keypair_names(seed: int, count: int) -> list[str]:
    return [f"perf-{seed}-client-{i}" for i in range(count)]


def signed_stream(
    seed: int, count: int, keypairs: Sequence[KeyPair], first_ts: int = 1
) -> Iterator[tuple[TxSpec, Transaction]]:
    """``count`` donate rows, signed round-robin by ``keypairs``.

    ``sender`` of the spec is the signing key's address, which is what
    lands in the ``senid`` column.  Lazy, because signing is the expensive
    part and the caller times it in chunks.
    """
    rng = rng_for(seed, "signed")
    for i in range(count):
        keypair = keypairs[i % len(keypairs)]
        spec = _spec(rng, "donate", first_ts + i, keypair.address)
        yield spec, to_transaction(spec, keypair)


def unsigned_stream(
    seed: int, count: int, label: str, first_ts: int = 1, senders: int = 40
) -> list[TxSpec]:
    """A donate/transfer/distribute mix (2:1:1) from ``senders`` operators."""
    rng = rng_for(seed, label)
    out = []
    for i in range(count):
        table = ("donate", "donate", "transfer", "distribute")[rng.randrange(4)]
        out.append(_spec(
            rng, table, first_ts + i, f"org{rng.randrange(senders)}",
            organization=f"charity{rng.randrange(30)}",
            donee=f"donee{rng.randrange(500)}",
        ))
    return out


# -- ground truth -----------------------------------------------------------


class GroundTruth:
    """Brute-force answers over the generator's own transaction list.

    ``add`` appends committed transactions in chain order; every
    other method is a plain filter over those lists.  Only the
    amount column keeps a sorted copy, so a range count is two bisects
    instead of a scan when the checker replays hundreds of rounds.
    """

    def __init__(self) -> None:
        self.specs: list[TxSpec] = []
        self._by_sender: dict[str, list[TxSpec]] = {}
        self._donate_amounts: list[tuple[float, int]] = []

    def add(self, specs: Iterable[TxSpec]) -> None:
        for spec in specs:
            self.specs.append(spec)
            self._by_sender.setdefault(spec.sender, []).append(spec)
            if spec.table == "donate":
                bisect.insort(
                    self._donate_amounts, (spec.values[DONATE_AMOUNT_POS], spec.ts))

    def trace(self, operator: str, operation: Optional[str] = None,
              window: Optional[tuple[int, int]] = None) -> frozenset:
        return frozenset(
            s.ts for s in self._by_sender.get(operator, ())
            if (operation is None or s.table == operation)
            and (window is None or window[0] <= s.ts <= window[1])
        )

    def donate_range(self, low: float, high: float) -> frozenset:
        lo = bisect.bisect_left(self._donate_amounts, (low, -1))
        hi = bisect.bisect_right(self._donate_amounts, (high, float("inf")))
        return frozenset(ts for _amount, ts in self._donate_amounts[lo:hi])

    def join_organization(self) -> frozenset:
        """(transfer.ts, distribute.ts) pairs sharing an organization."""
        by_org: dict[str, list[int]] = {}
        for s in self.specs:
            if s.table == "distribute":
                by_org.setdefault(s.values[ORGANIZATION_POS], []).append(s.ts)
        return frozenset(
            (s.ts, other)
            for s in self.specs if s.table == "transfer"
            for other in by_org.get(s.values[ORGANIZATION_POS], ())
        )

    def join_doneeinfo(self, donees: Iterable[str]) -> frozenset:
        """(distribute.ts, donee) pairs with a private doneeinfo record."""
        known = set(donees)
        return frozenset(
            (s.ts, s.values[DONEE_POS]) for s in self.specs
            if s.table == "distribute" and s.values[DONEE_POS] in known
        )


# -- the read chain ---------------------------------------------------------


class Statement(NamedTuple):
    """One read statement as the client sends it, plus its expected rows."""

    kind: str          # q2 .. q7
    sql: str
    params: tuple
    expected: Any      # frozenset of row ids, or the block height for q7
    count: int         # rows the statement must return


class ReadChain(NamedTuple):
    blocks: list[list[TxSpec]]
    doneeinfo: list[tuple]
    truth: GroundTruth


#: read-chain population.  The *shape* is the same for every seed - how
#: many rows each operator, window and join has - and only placement and
#: values are random, so two seeds give the statements the same amount of
#: work and a spread across seeds measures the machine, not the dice.
#: Per block: one row from a tracked operator (Q2), two from windowed
#: operators (Q3); transfer/distribute rows only occur in every
#: CAMPAIGN_EVERY-th block, so the table bitmap prunes the joins to a
#: quarter of the chain (the paper's clustered "BG" placement) instead of
#: degenerating into a full scan; everything else is donate noise.
_Q2_OPERATORS = 8
_Q3_OPERATORS = 4
_JOIN_ORGS = 24
_KNOWN_DONEES = 60
_JOIN_ROWS_PER_CAMPAIGN_BLOCK = 2
CAMPAIGN_EVERY = 4


def read_chain(seed: int, num_blocks: int, txs_per_block: int) -> ReadChain:
    """One combined BChainBench chain with planted Q2-Q6 results."""
    rng = rng_for(seed, "read-chain")
    blocks: list[list[TxSpec]] = []
    distributes = 0
    for bid in range(1, num_blocks + 1):
        campaign = bid % CAMPAIGN_EVERY == 0
        planted: list[tuple] = [
            # (table, sender, organization, donee)
            ("transfer" if campaign and bid % 3 == 0 else "donate",
             f"tracked{bid % _Q2_OPERATORS}", f"solo-t{bid}", ""),
        ]
        for k in range(2):
            planted.append((
                "transfer" if campaign else "donate",
                f"windowed{(2 * bid + k) % _Q3_OPERATORS}", f"solo-w{bid}-{k}", ""))
        if campaign:
            for _ in range(_JOIN_ROWS_PER_CAMPAIGN_BLOCK):
                planted.append(("transfer", "charity",
                                f"joinorg{rng.randrange(_JOIN_ORGS)}", ""))
                distributes += 1
                donee = (f"known{rng.randrange(_KNOWN_DONEES)}"
                         if distributes % 3 == 0 else f"stranger{distributes}")
                planted.append(("distribute", "school",
                                f"joinorg{rng.randrange(_JOIN_ORGS)}", donee))
        rows = planted + [("donate", f"noise{rng.randrange(60)}", "", "")
                          for _ in range(txs_per_block - len(planted))]
        rng.shuffle(rows)
        blocks.append([
            _spec(rng, table, bid * TS_PER_BLOCK + position, sender,
                  organization=organization, donee=donee)
            for position, (table, sender, organization, donee) in enumerate(rows)
        ])
    doneeinfo = [
        (f"known{i}", f"name{i}", f"school{i % 12}",
         float(rng.randint(1_000, 60_000)))
        for i in range(_KNOWN_DONEES)
    ]
    truth = GroundTruth()
    for txs in blocks:
        truth.add(txs)
    return ReadChain(blocks, doneeinfo, truth)


def _statement(kind: str, sql: str, params: tuple, expected: frozenset) -> Statement:
    return Statement(kind, sql, params, expected, len(expected))


Q5_SQL = ("SELECT * FROM transfer, distribute "
          "ON transfer.organization = distribute.organization")
Q6_SQL = ("SELECT * FROM onchain.distribute, offchain.doneeinfo "
          "ON distribute.donee = doneeinfo.donee")


def read_statements(
    seed: int, chain: ReadChain, mix: dict[str, int], cycles: int
) -> list[Statement]:
    """``cycles`` shuffled cycles of the statement mix (``mix``: kind -> count).

    Parameters vary per statement (operator, window position, amount
    range position, block id) so no two consecutive statements of a kind
    hit the same rows; window span and range width are fixed, so every
    seed asks for about the same number of rows.
    """
    truth = chain.truth
    q5_expected = truth.join_organization()
    q6_expected = truth.join_doneeinfo(row[0] for row in chain.doneeinfo)
    out: list[Statement] = []
    for cycle in range(cycles):
        rng = rng_for(seed, f"read-statements-{cycle}")
        out.extend(_read_cycle(rng, chain, mix, q5_expected, q6_expected))
    return out


def _read_cycle(rng: random.Random, chain: ReadChain, mix: dict[str, int],
                q5_expected: frozenset, q6_expected: frozenset) -> list[Statement]:
    truth = chain.truth
    num_blocks = len(chain.blocks)
    out: list[Statement] = []
    for _ in range(mix.get("q2", 0)):
        operator = f"tracked{rng.randrange(_Q2_OPERATORS)}"
        out.append(_statement(
            "q2", "TRACE OPERATOR = ?", (operator,), truth.trace(operator)))
    for _ in range(mix.get("q3", 0)):
        operator = f"windowed{rng.randrange(_Q3_OPERATORS)}"
        span = num_blocks // 3
        first = rng.randrange(1, num_blocks - span + 1)
        window = (first * TS_PER_BLOCK, (first + span) * TS_PER_BLOCK - 1)
        out.append(_statement(
            "q3", "TRACE [?, ?] OPERATOR = ?, OPERATION = 'transfer'",
            (window[0], window[1], operator),
            truth.trace(operator, "transfer", window)))
    for _ in range(mix.get("q4", 0)):
        low = round(rng.uniform(0.0, AMOUNT_MAX * 0.99), 2)
        high = round(low + 0.004 * AMOUNT_MAX, 2)
        out.append(_statement(
            "q4", "SELECT * FROM donate WHERE amount BETWEEN ? AND ?",
            (low, high), truth.donate_range(low, high)))
    out.extend(_statement("q5", Q5_SQL, (), q5_expected)
               for _ in range(mix.get("q5", 0)))
    out.extend(_statement("q6", Q6_SQL, (), q6_expected)
               for _ in range(mix.get("q6", 0)))
    for _ in range(mix.get("q7", 0)):
        height = rng.randrange(1, num_blocks + 1)
        out.append(Statement("q7", "GET BLOCK ID = ?", (height,), height,
                             len(chain.blocks[height - 1])))
    rng.shuffle(out)
    return out


def readback_statements(seed: int, truth: GroundTruth) -> list[Statement]:
    """A few statements over whatever a write workload committed.

    Run against the live node and against a node reopened from its data
    directory; both must return exactly the generator's rows.
    """
    rng = rng_for(seed, "readback")
    senders = sorted({s.sender for s in truth.specs})
    out = []
    for operator in rng.sample(senders, min(3, len(senders))):
        out.append(_statement(
            "q2", "TRACE OPERATOR = ?", (operator,), truth.trace(operator)))
    for _ in range(3):
        low = round(rng.uniform(0.0, AMOUNT_MAX * 0.95), 2)
        high = round(low + 0.02 * AMOUNT_MAX, 2)
        out.append(_statement(
            "q4", "SELECT * FROM donate WHERE amount BETWEEN ? AND ?",
            (low, high), truth.donate_range(low, high)))
    return out


# -- thin-client operations ---------------------------------------------------


class AuthOp(NamedTuple):
    kind: str      # sync | spv | range | trace | two
    args: tuple


#: thin-client operations per round, by kind.  The counts are chosen so
#: the pooled latency percentiles sit inside one kind's band and not on a
#: boundary between two: by latency the kinds order sync < spv < range <
#: trace < two, which puts p50 inside ``range`` and p95 inside ``trace``
#: (``two`` runs every other round and stays below 5 % of the operations)
AUTH_ROUND_MIX = {"sync": 1, "spv": 2, "range": 8, "trace": 5}
AUTH_TWO_INDEX_EVERY = 2


def auth_round(seed: int, round_index: int, committed: int, senders: int) -> list[AuthOp]:
    """The thin-client operations of one round, header sync first.

    ``committed`` is the number of data transactions on chain when the
    round's reads start; SPV checks pick a tid below it.
    """
    rng = rng_for(seed, f"auth-round-{round_index}")
    ops = []
    for _ in range(AUTH_ROUND_MIX["spv"]):
        ops.append(AuthOp("spv", (rng.randrange(committed),)))
    for _ in range(AUTH_ROUND_MIX["range"]):
        low = round(rng.uniform(0.0, AMOUNT_MAX * 0.99), 2)
        ops.append(AuthOp("range", (low, round(low + 0.005 * AMOUNT_MAX, 2))))
    for _ in range(AUTH_ROUND_MIX["trace"]):
        ops.append(AuthOp("trace", (f"org{rng.randrange(senders)}",)))
    if round_index % AUTH_TWO_INDEX_EVERY == 0:
        ops.append(AuthOp("two", (f"org{rng.randrange(senders)}", "distribute")))
    rng.shuffle(ops)
    return [AuthOp("sync", ())] * AUTH_ROUND_MIX["sync"] + ops
