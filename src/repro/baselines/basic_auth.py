"""Basic authenticated-query baseline (Figs 17-19).

The paper compares the ALI against "a basic approach where all blocks are
transferred to the client and the client checks transactions by
reconstructing transactions merkle roots for each block".  The thin client
already stores every header, so it can verify each shipped block by
recomputing its ``transRoot`` - sound and complete, but the VO is the
whole chain window and the client pays a full Merkle reconstruction per
block.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Sequence

from ..common.errors import VerificationError
from ..common.hashing import merkle_root
from ..model.block import Block, BlockHeader
from ..model.transaction import Transaction
from ..node.fullnode import FullNode
from ..sqlparser.nodes import TimeWindow


@dataclasses.dataclass
class BasicVO:
    """The baseline's 'verification object': raw serialized blocks."""

    chain_height: int
    block_bytes: tuple[bytes, ...]

    def size_bytes(self) -> int:
        return sum(len(b) for b in self.block_bytes)


class BasicAuthServer:
    """Server side: ship every block in the window, unfiltered."""

    def __init__(self, node: FullNode) -> None:
        self._node = node

    def query(self, window: Optional[TimeWindow] = None) -> BasicVO:
        store = self._node.store
        if window is None or window.is_open:
            heights = range(store.height)
        else:
            heights = sorted(
                self._node.indexes.block_index.window_bitmap(
                    window.start, window.end
                )
            )
        blocks = tuple(store.read_block(h).to_bytes() for h in heights)
        return BasicVO(chain_height=store.height, block_bytes=blocks)


def verify_basic_vo(
    vo: BasicVO,
    headers: Sequence[BlockHeader],
    predicate: Callable[[Transaction], bool],
) -> list[Transaction]:
    """Client side: recompute each block's transaction Merkle root.

    Raises :class:`VerificationError` when a shipped block does not match
    the locally held header chain; otherwise returns the transactions
    satisfying ``predicate``.
    """
    by_height = {h.height: h for h in headers}
    results: list[Transaction] = []
    for raw in vo.block_bytes:
        block = Block.from_bytes(raw)
        header = by_height.get(block.header.height)
        if header is None:
            raise VerificationError(
                f"server shipped unknown block {block.header.height}"
            )
        root = merkle_root([tx.to_bytes() for tx in block.transactions])
        if root != header.trans_root:
            raise VerificationError(
                f"block {block.header.height}: transaction root mismatch"
            )
        if block.block_hash() != header.block_hash():
            raise VerificationError(
                f"block {block.header.height}: header mismatch"
            )
        results.extend(tx for tx in block.transactions if predicate(tx))
    return results


def predicate_for_range(
    key_of: Callable[[Transaction], Any], low: Any, high: Any
) -> Callable[[Transaction], bool]:
    """Filter used by the client after verification."""

    def predicate(tx: Transaction) -> bool:
        key = key_of(tx)
        if key is None:
            return False
        if low is not None and key < low:
            return False
        if high is not None and key > high:
            return False
        return True

    return predicate
