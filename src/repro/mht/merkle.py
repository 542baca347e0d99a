"""Merkle hash trees (MHT).

Used for the per-block ``transRoot`` and by the *basic* authenticated-query
baseline, where a thin client verifies a whole block by reconstructing its
transaction Merkle root from the full transaction list (Figs 17-19).

The tree is the classic binary MHT of Merkle (1989): leaves are
domain-separated hashes of the serialized transactions; an odd node at any
level is promoted unchanged (Bitcoin-style duplication would allow a known
mutation vector, promotion does not).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..common.hashing import (
    EMPTY_MERKLE_ROOT as EMPTY_ROOT,
    hash_children,
    hash_leaf,
    merkle_root,
    merkle_root_from_leaves,
)

__all__ = [
    "EMPTY_ROOT",
    "MerkleTree",
    "ProofStep",
    "merkle_root",
    "merkle_root_from_leaves",
    "verify_proof",
]


@dataclasses.dataclass(frozen=True)
class ProofStep:
    """One sibling on a Merkle path: its hash and which side it sits on."""

    sibling: bytes
    is_left: bool


class MerkleTree:
    """In-memory MHT supporting membership proofs.

    Levels are stored bottom-up; ``levels[0]`` are the leaf hashes and
    ``levels[-1]`` is the single root.
    """

    def __init__(self, items: Sequence[bytes]) -> None:
        self._count = len(items)
        leaves = [hash_leaf(item) for item in items]
        self._levels: list[list[bytes]] = [leaves] if leaves else [[EMPTY_ROOT]]
        while len(self._levels[-1]) > 1:
            prev = self._levels[-1]
            nxt = []
            for i in range(0, len(prev) - 1, 2):
                nxt.append(hash_children(prev[i], prev[i + 1]))
            if len(prev) & 1:
                nxt.append(prev[-1])
            self._levels.append(nxt)

    def __len__(self) -> int:
        return self._count

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    def proof(self, index: int) -> list[ProofStep]:
        """Membership proof for the leaf at ``index``."""
        if not 0 <= index < self._count:
            raise IndexError(f"leaf index {index} out of range 0..{self._count - 1}")
        steps: list[ProofStep] = []
        pos = index
        for level in self._levels[:-1]:
            sibling_pos = pos ^ 1
            if sibling_pos < len(level):
                steps.append(
                    ProofStep(sibling=level[sibling_pos], is_left=sibling_pos < pos)
                )
            # when the node is the promoted odd one there is no sibling
            pos //= 2
        return steps


def verify_proof(item: bytes, proof: Sequence[ProofStep], root: bytes) -> bool:
    """Check a membership proof produced by :meth:`MerkleTree.proof`."""
    current = hash_leaf(item)
    for step in proof:
        if step.is_left:
            current = hash_children(step.sibling, current)
        else:
            current = hash_children(current, step.sibling)
    return current == root
