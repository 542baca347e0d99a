"""Hashing helpers.

SEBDB uses SHA-256 everywhere (block hashes, Merkle trees, MB-tree digests,
thin-client digests).  These helpers centralize domain separation so that a
leaf hash can never be confused with an interior-node hash - a standard
defence against second-preimage attacks on Merkle trees.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

DIGEST_SIZE = 32

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def sha256(data: bytes) -> bytes:
    """Plain SHA-256 of ``data``."""
    return hashlib.sha256(data).digest()


def hash_leaf(data: bytes) -> bytes:
    """Domain-separated hash of a Merkle-tree leaf."""
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def hash_children(left: bytes, right: bytes) -> bytes:
    """Domain-separated hash of two Merkle-tree children."""
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


#: Root of an empty Merkle tree - hash of the empty string leaf, fixed constant.
EMPTY_MERKLE_ROOT = hash_leaf(b"")


def merkle_root_from_leaves(leaves: Sequence[bytes]) -> bytes:
    """Root hash over pre-hashed ``leaves``; O(n) time, O(n) space.

    Lives here (not in ``mht``) because sealing a block - a ``model``
    layer operation - needs the root without the tree: ``model`` sits
    below ``mht`` in the layer DAG, and the proof-producing structures
    in ``mht`` build on this primitive instead.  An odd node at any
    level is promoted unchanged (Bitcoin-style duplication would allow
    a known mutation vector, promotion does not).
    """
    if not leaves:
        return EMPTY_MERKLE_ROOT
    level = list(leaves)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(hash_children(level[i], level[i + 1]))
        if len(level) & 1:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def merkle_root(items: Sequence[bytes]) -> bytes:
    """Root hash over raw ``items`` (hashes each as a leaf first)."""
    return merkle_root_from_leaves([hash_leaf(item) for item in items])


def hash_concat(parts: Iterable[bytes]) -> bytes:
    """Hash the concatenation of ``parts``.

    Used by auxiliary full nodes to digest the MB-tree roots a query
    visits (section VI of the paper), and by the MB-tree to hash a node's
    children.
    """
    return hashlib.sha256(b"".join(parts)).digest()


def hex_digest(data: bytes) -> str:
    """Hex rendering used in logs and examples."""
    return data.hex()
