"""Thin clients (section VI).

A thin client stores only block headers - like an SPV node - and verifies
query answers from untrusted full nodes with the two-phase protocol:

Phase 1: send the query to a randomly chosen full node, receive a
:class:`QueryVO` (records + MB-tree range proofs + snapshot height ``h``).

Phase 2: send (query, h) to ``n`` randomly chosen *auxiliary* full nodes;
each returns the digest of the MB-roots the query must visit at height
``h``.  Once ``m`` identical digests arrive, reconstruct the roots from
the VO, hash them, and compare.  A mismatch raises
:class:`~repro.common.errors.VerificationError`.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Optional, Sequence

from ..common.errors import VerificationError
from ..mht.vo import verify_query_vo
from ..model.block import BlockHeader
from ..model.schema import TableSchema
from ..model.transaction import Transaction
from ..node.auth import AuthQueryServer
from ..node.fullnode import FullNode
from ..sqlparser.nodes import TimeWindow
from .sampling import digest_error_probability


@dataclasses.dataclass
class AuthenticatedAnswer:
    """A verified query answer plus the verification metadata.

    ``transactions`` are the client's cached rows (see
    :class:`ThinClient`), shared with every later answer that ships the
    same stored bytes: treat them as read-only.
    """

    transactions: tuple[Transaction, ...]
    vo_size_bytes: int
    digests_sampled: int
    digests_matched: int
    residual_risk: float
    chain_height: int


class ThinClient:
    """Header-only client verifying answers from untrusted full nodes.

    Besides the headers it keeps the decoded row of every record it has
    verified, keyed by the record's leaf digest and bounded by
    :data:`~repro.mht.vo.ROW_CACHE_ENTRIES`, so a record shipped again is
    hashed and checked again but not decoded again.  Answers hand out
    those row objects: a caller must not mutate a returned transaction,
    or later answers carrying the same record would check and return the
    mutated fields.
    """

    def __init__(
        self,
        full_nodes: Sequence[FullNode],
        seed: int = 0,
        byzantine_ratio: float = 0.0,
    ) -> None:
        if not full_nodes:
            raise VerificationError("a thin client needs at least one full node")
        self._nodes = list(full_nodes)
        self._servers = {id(n): AuthQueryServer(n) for n in self._nodes}
        self._rng = random.Random(seed)
        self._headers: list[BlockHeader] = []
        #: block hash of the last local header (None while there is none)
        self._tip_hash: Optional[bytes] = None
        self._byz_ratio = byzantine_ratio
        self._max_byz = (len(self._nodes) - 1) // 3
        #: leaf digest -> decoded transaction of every record verified so
        #: far (bounded, see :func:`~repro.mht.vo.verify_query_vo`)
        self._rows: dict[bytes, Transaction] = {}

    # -- header sync (what a thin client actually stores) ---------------------

    def sync_headers(self, from_node: Optional[FullNode] = None) -> int:
        """Download block headers; returns the new local height.

        When the served list is longer and its first new header links to
        the local tip, only the new headers are checked and appended to
        the local ones: the server's copy of the prefix is never adopted.
        Any other list (shorter, forked, or not linking) is checked link
        by link from the start and adopted whole if it holds.
        """
        node = from_node or self._rng.choice(self._nodes)
        headers = node.store.headers
        local = self._headers
        if local and len(headers) > len(local) and (
                headers[len(local)].prev_hash == self._tip_hash):
            suffix = headers[len(local):]
            self._tip_hash = _check_links(suffix)
            self._headers = local + suffix
        else:
            # verify the header chain before adopting it
            self._tip_hash = _check_links(headers)
            self._headers = headers
        return len(self._headers)

    @property
    def height(self) -> int:
        return len(self._headers)

    def header(self, height: int) -> BlockHeader:
        return self._headers[height]

    # -- the two-phase authenticated query ----------------------------------------

    def authenticated_range(
        self,
        column: str,
        low: Any,
        high: Any,
        table: Optional[str] = None,
        window: Optional[TimeWindow] = None,
        n_aux: int = 2,
        m: int = 2,
        key_of: Optional[Callable[[Transaction], Any]] = None,
        schema: Optional[TableSchema] = None,
        extra_filter: Optional[Callable[[Transaction], bool]] = None,
    ) -> AuthenticatedAnswer:
        """Range query with soundness + completeness verification."""
        if key_of is None:
            key_of = _key_extractor(column, schema)
        # phase one
        server_node = self._rng.choice(self._nodes)
        server = self._servers[id(server_node)]
        vo = server.range_vo(column, low, high, table=table, window=window)
        # phase two
        digest, sampled, matched = self._sample_digests(
            column, low, high, vo.chain_height, table, window, n_aux, m,
            exclude=server_node,
        )
        result = verify_query_vo(
            vo, key_of=key_of, expected_digest=digest,
            extra_filter=extra_filter, rows=self._rows,
            query=(column, low, high),
        )
        return AuthenticatedAnswer(
            transactions=result.transactions,
            vo_size_bytes=result.vo_size_bytes,
            digests_sampled=sampled,
            digests_matched=matched,
            residual_risk=digest_error_probability(
                self._byz_ratio, m, max(sampled, m), self._max_byz
            ),
            chain_height=vo.chain_height,
        )

    def authenticated_trace(
        self,
        operator: str,
        operation: Optional[str] = None,
        n_aux: int = 2,
        m: int = 2,
    ) -> AuthenticatedAnswer:
        """Tracking query: completeness proven on SenID, operation filtered
        client-side (still complete - see DESIGN.md)."""
        extra = None
        if operation is not None:
            lowered = operation.lower()

            def extra(tx: Transaction) -> bool:
                return tx.tname == lowered

        return self.authenticated_range(
            "senid", operator, operator,
            n_aux=n_aux, m=m, key_of=lambda tx: tx.senid, extra_filter=extra,
        )

    def verify_transaction(self, tid: int) -> Transaction:
        """SPV check: is transaction ``tid`` really on the chain?

        Fetches an inclusion proof from a random full node and verifies
        it against the locally stored block header - the "simple
        authenticated query" of classic blockchains.
        """
        if not self._headers:
            raise VerificationError("sync_headers() first")
        node = self._rng.choice(self._nodes)
        proof = self._servers[id(node)].inclusion_proof(tid)
        if not 0 <= proof.height < len(self._headers):
            raise VerificationError(
                f"proof references unknown block {proof.height}"
            )
        header = self._headers[proof.height]
        if not proof.verify(header):
            raise VerificationError(
                f"inclusion proof for transaction {tid} does not match "
                f"block {proof.height}'s transaction root"
            )
        tx = Transaction.from_bytes(proof.tx_bytes)
        if tx.tid != tid:
            raise VerificationError(
                f"server returned transaction {tx.tid}, wanted {tid}"
            )
        return tx

    def authenticated_aggregate(
        self,
        func: str,
        column: str,
        low: Any,
        high: Any,
        table: Optional[str] = None,
        schema: Optional[TableSchema] = None,
    ) -> tuple[Any, AuthenticatedAnswer]:
        """A verified aggregate: COUNT/SUM/AVG/MIN/MAX over a proven range.

        Because the underlying range answer is verified sound *and*
        complete, any aggregate computed locally over it inherits both
        properties - the untrusted server cannot bias the aggregate by
        adding, dropping or altering rows.
        """
        from ..query.aggregates import compute_aggregate

        key_of = _key_extractor(column, schema)
        answer = self.authenticated_range(
            column, low, high, table=table, key_of=key_of, schema=schema,
        )
        values = [
            v for v in (key_of(tx) for tx in answer.transactions)
            if v is not None
        ]
        return compute_aggregate(func, values), answer

    def authenticated_trace_two_index(
        self,
        operator: str,
        operation: str,
        n_aux: int = 2,
        m: int = 2,
    ) -> AuthenticatedAnswer:
        """Two-dimension tracking with one VO per ALI visited.

        As the paper sketches ("the VO consists of one VO each MB-tree the
        query visited"), the serving node proves the SenID dimension and
        the Tname dimension independently; the client verifies both
        (soundness + completeness on each) and intersects by transaction
        id.  The intersection of two complete sets is complete.
        """
        server_node = self._rng.choice(self._nodes)
        server = self._servers[id(server_node)]
        vo_op = server.range_vo("senid", operator, operator)
        vo_kind = server.range_vo("tname", operation, operation,
                                  height=vo_op.chain_height)
        digest_op, sampled_a, matched_a = self._sample_digests(
            "senid", operator, operator, vo_op.chain_height, None, None,
            n_aux, m, exclude=server_node,
        )
        digest_kind, sampled_b, matched_b = self._sample_digests(
            "tname", operation, operation, vo_op.chain_height, None, None,
            n_aux, m, exclude=server_node,
        )
        by_operator = verify_query_vo(
            vo_op, key_of=lambda tx: tx.senid, expected_digest=digest_op,
            rows=self._rows, query=("senid", operator, operator),
        )
        by_operation = verify_query_vo(
            vo_kind, key_of=lambda tx: tx.tname, expected_digest=digest_kind,
            rows=self._rows, query=("tname", operation, operation),
        )
        operation_tids = {tx.tid for tx in by_operation.transactions}
        both = tuple(
            tx for tx in by_operator.transactions if tx.tid in operation_tids
        )
        return AuthenticatedAnswer(
            transactions=both,
            vo_size_bytes=by_operator.vo_size_bytes + by_operation.vo_size_bytes,
            digests_sampled=sampled_a + sampled_b,
            digests_matched=min(matched_a, matched_b),
            residual_risk=digest_error_probability(
                self._byz_ratio, m, max(sampled_a, m), self._max_byz
            ),
            chain_height=vo_op.chain_height,
        )

    # -- internals --------------------------------------------------------------------

    def _sample_digests(
        self,
        column: str,
        low: Any,
        high: Any,
        height: int,
        table: Optional[str],
        window: Optional[TimeWindow],
        n_aux: int,
        m: int,
        exclude: FullNode,
    ) -> tuple[bytes, int, int]:
        """Collect digests from auxiliary nodes until m agree."""
        pool = [n for n in self._nodes if n is not exclude] or list(self._nodes)
        counts: dict[bytes, int] = {}
        sampled = 0
        order = list(pool)
        self._rng.shuffle(order)
        for node in (order * ((n_aux // max(len(order), 1)) + 1))[:max(n_aux, m)]:
            digest = self._servers[id(node)].auxiliary_digest(
                column, low, high, height, table=table, window=window
            )
            sampled += 1
            counts[digest] = counts.get(digest, 0) + 1
            if counts[digest] >= m:
                return digest, sampled, counts[digest]
        best = max(counts.items(), key=lambda kv: kv[1])
        raise VerificationError(
            f"no digest reached {m} matching copies from {sampled} auxiliary "
            f"nodes (best: {best[1]})"
        )


def _check_links(headers: list[BlockHeader]) -> Optional[bytes]:
    """Check that each header names the one before it as ``prev_hash``;
    return the last one's block hash (None for no headers)."""
    tip = None
    for header in headers:
        if tip is not None and header.prev_hash != tip:
            raise VerificationError(
                f"header chain broken at height {header.height}"
            )
        tip = header.block_hash()
    return tip


def _key_extractor(
    column: str, schema: Optional[TableSchema]
) -> Callable[[Transaction], Any]:
    lowered = column.lower()
    if lowered in ("tid", "ts", "senid", "tname"):
        return lambda tx: getattr(tx, lowered)
    if schema is None:
        raise VerificationError(
            f"verifying on app column {column!r} needs the table schema"
        )
    position = None
    for i, col in enumerate(schema.app_columns):
        if col.name == lowered:
            position = i
            break
    if position is None:
        raise VerificationError(f"schema has no column {column!r}")
    return lambda tx: tx.values[position]
