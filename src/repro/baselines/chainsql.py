"""ChainSQL baseline (Figs 20-21).

ChainSQL reaches agreement on transactions through a Ripple-style
blockchain, then replicates *everything* into each participant's
commercial RDBMS and answers queries there.  Two behaviours matter for
the comparison:

* one-dimension tracking (Fig 20) uses the RDBMS index on the sender -
  both systems are insensitive to chain size;
* two-dimension tracking (Fig 21) has no combined operator: ChainSQL's
  ``GET_TRANSACTION`` API returns *all* transactions of the operator and
  the client filters by operation locally, so latency grows linearly with
  the operator's transaction count while SEBDB stays flat.

The replica is an actual sqlite database (standing in for MySQL), so the
"two copies of data" overhead the paper criticises is real here too.
"""

from __future__ import annotations

import dataclasses
from ..model.transaction import SCHEMA_TNAME
from ..offchain.adapter import OffChainDatabase
from ..storage.blockstore import BlockStore

#: modelled network cost of shipping one transaction to the client (ms);
#: the client-side filtering of GET_TRANSACTION pays this per row.
TRANSFER_MS_PER_TX = 0.002
#: modelled client-side filter cost per row (ms).
FILTER_MS_PER_TX = 0.0005
#: modelled disk cost per row read through the RDBMS secondary index (ms).
#: Matches the benchmark cost calibration (one seek + one page transfer per
#: tuple - see repro.bench.generator) so ChainSQL and SEBDB latencies are
#: priced in the same currency.
ROW_IO_MS = 3.0


@dataclasses.dataclass
class ChainSQLMetrics:
    """What a baseline call cost."""

    rows_returned: int
    rows_transferred: int
    modelled_ms: float


class ChainSQLBaseline:
    """A ChainSQL-style node: chain for consensus, RDBMS for queries."""

    def __init__(self) -> None:
        self._db = OffChainDatabase()
        self._db.create_table(
            "txlog",
            [
                ("tid", "int"), ("ts", "int"), ("senid", "string"),
                ("tname", "string"), ("payload", "string"),
            ],
        )
        self._db._conn.execute("CREATE INDEX idx_senid ON txlog(senid)")
        self._db._conn.execute("CREATE INDEX idx_tname ON txlog(tname)")
        self._db._conn.commit()
        self._count = 0

    @property
    def replicated_rows(self) -> int:
        return self._count

    # -- replication ("transferring all transactions to RDBMS") --------------

    def replicate_chain(self, store: BlockStore) -> int:
        rows = []
        for block in store.iter_blocks():
            for tx in block.transactions:
                if tx.tname != SCHEMA_TNAME:
                    rows.append((tx.tid, tx.ts, tx.senid, tx.tname, repr(tx.values)))
        self._db.insert("txlog", rows)
        self._count += len(rows)
        return len(rows)

    # -- the two tracking paths -------------------------------------------------

    def track_one_dimension(self, operator: str) -> ChainSQLMetrics:
        """Indexed RDBMS lookup: SELECT ... WHERE senid = ? (Fig 20)."""
        rows = self._db.execute(
            "SELECT tid, ts, senid, tname, payload FROM txlog WHERE senid = ?",
            (operator,),
        )
        modelled = len(rows) * (ROW_IO_MS + TRANSFER_MS_PER_TX) + 0.1
        return ChainSQLMetrics(
            rows_returned=len(rows), rows_transferred=len(rows),
            modelled_ms=modelled,
        )

    def track_two_dimensions(self, operator: str, operation: str) -> ChainSQLMetrics:
        """GET_TRANSACTION + client filter (Fig 21).

        The server has no combined API: every transaction of ``operator``
        travels to the client, which filters by ``operation`` itself.
        """
        transferred = self._db.execute(
            "SELECT tid, ts, senid, tname, payload FROM txlog WHERE senid = ?",
            (operator,),
        )
        matching = [row for row in transferred if row[3] == operation]
        # every operator row is read from disk AND shipped to the client
        modelled = (
            len(transferred)
            * (ROW_IO_MS + TRANSFER_MS_PER_TX + FILTER_MS_PER_TX)
            + 0.1
        )
        return ChainSQLMetrics(
            rows_returned=len(matching),
            rows_transferred=len(transferred),
            modelled_ms=modelled,
        )
