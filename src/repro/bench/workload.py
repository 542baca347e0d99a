"""The BChainBench workload - the seven queries of Table II.

Q1 INSERT INTO donate VALUES (?, ?, ?)                        - write path
Q2 TRACE OPERATOR = "org1"                                    - 1-D tracking
Q3 TRACE [s, e] OPERATOR = "org1", OPERATION = "transfer"     - 2-D tracking
Q4 SELECT * FROM donate WHERE amount BETWEEN ? AND ?          - range query
Q5 SELECT * FROM transfer, distribute ON transfer.organization
       = distribute.organization                              - on-chain join
Q6 SELECT * FROM onchain.distribute, offchain.doneeinfo ON
       distribute.donee = doneeinfo.donee                     - on-off join
Q7 GET BLOCK ID = ?                                           - block fetch
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..node.fullnode import FullNode
from ..query.result import QueryResult


@dataclasses.dataclass(frozen=True)
class BenchQuery:
    """One named workload query with its Table II text."""

    qid: str
    sql: str
    description: str


Q1 = BenchQuery("Q1", "INSERT INTO donate VALUES (?, ?, ?)", "write throughput")
Q2 = BenchQuery("Q2", "TRACE OPERATOR = 'org1'", "one-dimension tracking")
Q3 = BenchQuery(
    "Q3",
    "TRACE [?, ?] OPERATOR = 'org1', OPERATION = 'transfer'",
    "two-dimension tracking in a time window",
)
Q4 = BenchQuery(
    "Q4", "SELECT * FROM donate WHERE amount BETWEEN ? AND ?", "range query"
)
Q5 = BenchQuery(
    "Q5",
    "SELECT * FROM transfer, distribute "
    "ON transfer.organization = distribute.organization",
    "on-chain join",
)
Q6 = BenchQuery(
    "Q6",
    "SELECT * FROM onchain.distribute, offchain.doneeinfo "
    "ON distribute.donee = doneeinfo.donee",
    "on-off chain join",
)
Q7 = BenchQuery("Q7", "GET BLOCK ID = ?", "block lookup")

ALL_QUERIES = (Q1, Q2, Q3, Q4, Q5, Q6, Q7)


def run_query(
    node: FullNode,
    query: BenchQuery,
    params: tuple[Any, ...] = (),
) -> QueryResult:
    """Execute one read query of the workload on a node."""
    if query.qid == "Q1":
        raise ValueError("Q1 is a write - drive it through the write bench")
    return node.query(query.sql, params=params)
