"""Observer nodes: full storage, no consensus seat.

The paper's network layer uses gossip "for block propagation and data
recovery".  An observer is a node that does not participate in consensus
but keeps a complete, verified copy of the chain by listening to block
rumors gossiped by consensus members - e.g. an analytics replica or a
read scale-out node.  After a partition it recovers with anti-entropy.
"""

from __future__ import annotations

from ..common.errors import CodecError, StorageError
from ..model.block import Block
from ..network.bus import MessageBus
from ..network.gossip import GossipNode
from .fullnode import FullNode


class BlockGossip:
    """Glues a node (member or observer) to the gossip mesh.

    Members call :meth:`announce` for each block they commit; every
    attached node applies rumored blocks in height order, buffering
    out-of-order arrivals.
    """

    def __init__(
        self,
        node: FullNode,
        bus: MessageBus,
        seed: int = 0,
        announce_commits: bool = False,
    ) -> None:
        self.node = node
        self._pending: dict[int, bytes] = {}
        self.gossip = GossipNode(
            f"gossip-{node.node_id}", bus, seed=seed,
            on_rumor=self._on_rumor, validate=self._validate_rumor,
        )
        if announce_commits:
            # member mode: every block this node commits via consensus is
            # announced to the mesh automatically
            node.add_block_listener(self.announce)

    def announce(self, block: Block) -> None:
        """Publish a freshly committed block to the mesh."""
        self.gossip.publish(f"block-{block.header.height:012d}",
                            block.to_bytes())

    @staticmethod
    def _validate_rumor(rumor_id: str, payload: bytes) -> bool:
        """Reject corrupted block rumors before they enter the rumor store.

        A stored rumor is covered by the anti-entropy watermark, so
        storing a corrupted payload would permanently shadow the clean
        copy.  Non-block rumors pass through untouched.
        """
        if not rumor_id.startswith("block-"):
            return True
        try:
            block = Block.from_bytes(payload)
        except CodecError:
            return False
        return (block.header.height == int(rumor_id.split("-", 1)[1])
                and block.verify_trans_root())

    def anti_entropy(self, peer: "BlockGossip") -> None:
        """Pull missed rumors from a peer (partition recovery)."""
        self.gossip.anti_entropy(peer.gossip.node_id)

    def _on_rumor(self, rumor_id: str, payload: bytes) -> None:
        if not rumor_id.startswith("block-"):
            return
        height = int(rumor_id.split("-", 1)[1])
        if height < self.node.store.height:
            return  # already have it
        self._pending[height] = payload
        self._drain()

    def _drain(self) -> None:
        """Apply buffered blocks in strict height order."""
        while self.node.store.height in self._pending:
            payload = self._pending.pop(self.node.store.height)
            try:
                block = Block.from_bytes(payload)
                self.node.accept_block(block)
            except (CodecError, StorageError):
                # an undecodable (fault-corrupted) or non-chaining rumor
                # is dropped; the chain stays intact and anti-entropy can
                # re-fetch a clean copy later
                return


def make_observer(
    genesis_source: FullNode,
    bus: MessageBus,
    node_id: str = "observer",
    seed: int = 0,
) -> tuple[FullNode, BlockGossip]:
    """Create a consensus-less node that follows the chain via gossip."""
    observer = FullNode(
        node_id,
        genesis=genesis_source.store.read_block(0),
        clock=bus.clock,
    )
    return observer, BlockGossip(observer, bus, seed=seed)
