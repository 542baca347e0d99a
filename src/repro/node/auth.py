"""Server side of authenticated queries (section VI).

A full node answering a thin client builds a :class:`QueryVO` from its
Authenticated Layered Index (ALI - the layered index whose second level is
an MB-tree).  An *auxiliary* full node, given the same query and the
snapshot height ``h``, independently determines which blocks the query
must visit and returns the digest of their MB-roots; the thin client
compares that digest against the roots it reconstructs from the VO.

Both sides derive the visited-block set with the same deterministic
procedure, so any block the serving node hides or invents changes the
digest.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from ..common.codec import Reader
from ..common.errors import QueryError
from ..index.bitmap import Bitmap
from ..index.layered import LayeredIndex
from ..mht.mbtree import MBTree
from ..mht.vo import BlockVO, QueryVO, digest_of_roots
from ..sqlparser.nodes import TimeWindow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .fullnode import FullNode

import dataclasses


@dataclasses.dataclass(frozen=True)
class InclusionProof:
    """SPV membership proof: a transaction plus its Merkle path."""

    height: int
    position: int
    tx_bytes: bytes
    steps: tuple  # of merkle.ProofStep

    def verify(self, header: "object") -> bool:
        """Check the proof against the block header a thin client holds."""
        from ..mht.merkle import verify_proof

        return verify_proof(self.tx_bytes, self.steps, header.trans_root)


class AuthQueryServer:
    """Builds VOs and auxiliary digests over one node's ALIs."""

    def __init__(self, node: "FullNode") -> None:
        self._node = node

    # -- shared candidate-set derivation -----------------------------------

    def _ali(self, column: str, table: Optional[str]) -> LayeredIndex:
        index = self._node.indexes.layered(column, table)
        if index is None:
            raise QueryError(
                f"no index on {column!r}"
                + (f" of table {table!r}" if table else "")
            )
        probe = next(iter(index.trees.values()), None)
        if probe is not None and not isinstance(probe, MBTree):
            raise QueryError(
                f"index on {column!r} is not authenticated - create it with "
                f"authenticated=True"
            )
        return index

    def _candidate_blocks(
        self,
        index: LayeredIndex,
        low: Any,
        high: Any,
        height: int,
        window: Optional[TimeWindow],
        table: Optional[str] = None,
    ) -> list[int]:
        candidate = index.candidate_blocks_range(low, high)
        if table is not None:
            candidate = candidate & self._node.indexes.table_index.blocks_for_table(table)
        if window is not None and not window.is_open:
            candidate = candidate & self._node.indexes.block_index.window_bitmap(
                window.start, window.end
            )
        candidate = candidate & Bitmap.range(0, height)
        return sorted(candidate)

    # -- phase one: the serving node --------------------------------------------

    def range_vo(
        self,
        column: str,
        low: Any,
        high: Any,
        table: Optional[str] = None,
        window: Optional[TimeWindow] = None,
        height: Optional[int] = None,
    ) -> QueryVO:
        """VO for a range (or point, low == high) query on an ALI column.

        Each visited block contributes its MB-tree range proof and the
        records the proof covers, exactly as the chain stores them: one
        :meth:`~repro.storage.blockstore.BlockStore.read_records_at` per
        block, nothing decoded or re-encoded, so the thin client hashes
        the very bytes the block's Merkle root committed to.
        """
        index = self._ali(column, table)
        store = self._node.store
        h = store.height if height is None else height
        trees, read = index.trees, store.read_records_at
        blocks: list[BlockVO] = []
        for bid in self._candidate_blocks(index, low, high, h, window, table):
            tree = trees[bid]
            proof = tree.range_proof(low, high)
            blocks.append(BlockVO(
                bid, tuple(read(bid, tree.covered_positions(proof))), proof))
        return QueryVO(
            chain_height=h, column=column, low=low, high=high,
            blocks=tuple(blocks),
        )

    def trace_vo(
        self,
        operator: str,
        height: Optional[int] = None,
    ) -> QueryVO:
        """VO for a tracking query on the SenID ALI (point query)."""
        return self.range_vo("senid", operator, operator, height=height)

    # -- SPV-style inclusion proofs -----------------------------------------------

    def inclusion_proof(self, tid: int) -> "InclusionProof":
        """Membership proof for one transaction, located by global tid.

        This is the "simple authenticated query" classic blockchains
        offer (is this transaction in a block?); a thin client checks it
        against the block header it already stores.  The path is built
        over the block's stored records: tids are consecutive inside a
        block, so the position is ``tid - first_tid``, confirmed against
        the record's leading ``tid`` varint.
        """
        entry = self._node.indexes.block_index.by_tid(tid)
        if entry is None:
            raise QueryError(f"no block contains transaction {tid}")
        _header, records = self._node.store.read_records(entry.bid)
        position = tid - entry.first_tid
        if (not 0 <= position < len(records)
                or Reader(records[position]).read_signed() != tid):
            raise QueryError(f"transaction {tid} not found in block {entry.bid}")
        from ..mht.merkle import MerkleTree

        return InclusionProof(
            height=entry.bid,
            position=position,
            tx_bytes=records[position],
            steps=tuple(MerkleTree(records).proof(position)),
        )

    # -- phase two: the auxiliary node ------------------------------------------------

    def auxiliary_digest(
        self,
        column: str,
        low: Any,
        high: Any,
        height: int,
        table: Optional[str] = None,
        window: Optional[TimeWindow] = None,
    ) -> bytes:
        """Digest over the MB-roots the query must visit at snapshot ``height``."""
        index = self._ali(column, table)
        trees = index.trees
        return digest_of_roots([
            trees[bid].root for bid in
            self._candidate_blocks(index, low, high, height, window, table)])
