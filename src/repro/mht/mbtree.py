"""Merkle B-tree (MB-tree).

The ALI (Authenticated Layered Index) replaces the level-2 B+-trees of the
layered index with MB-trees [Li et al., SIGMOD'06]: a search tree over one
block's tuples sorted by the indexed attribute, where each leaf carries the
hash of its record and each internal node the hash of the concatenation of
its children's digests.  A range query then admits a *verification object*
(VO) from which a thin client reconstructs the root digest and checks both
soundness (nothing forged) and completeness (nothing withheld) using the
boundary records just outside the range.

An MB-tree is a :class:`~repro.index.sorted_run.SortedRun` - the packed
sorted entries level 2 of the plain layered index also uses, searched
with ``bisect`` - in ``(key, repr(payload))`` order, with the digests
kept in packed n-ary levels (fan-out = ``order``) above it.  That is
exactly the digest structure of a bulk-loaded, always-full MB-tree:
blocks are immutable, so no insert/rebalance path is needed.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Sequence

from ..common.errors import IndexError_, VerificationError
from ..common.hashing import hash_concat, hash_leaf
from ..index.layered import LeafDigestAt, TreeFactory
from ..index.sorted_run import SortedRun

#: Root digest of an MB-tree with no entries.
EMPTY_MB_ROOT = hash_leaf(b"mbtree-empty")

DigestFn = Callable[[Any, Any], bytes]


def _default_digest(key: Any, payload: Any) -> bytes:
    return hash_leaf(repr((key, payload)).encode("utf-8"))


class MBTree(SortedRun):
    """Static Merkle B-tree over sorted (key, payload) entries."""

    __slots__ = ("_order", "_levels", "root")

    def __init__(
        self,
        entries: Sequence[tuple[Any, Any]],
        digests: Sequence[bytes],
        order: int = 32,
    ) -> None:
        if order < 2:
            raise IndexError_("MB-tree order must be at least 2")
        if len(entries) != len(digests):
            raise IndexError_("entries/digests length mismatch")
        keys = [key for key, _ in entries]
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            raise IndexError_("MB-tree entries must be sorted by key")
        super().__init__(keys, [payload for _, payload in entries])
        self._order = order
        # tuples: a proof's fills are slices of them, taken as they are
        self._levels: list[tuple[bytes, ...]] = [tuple(digests)]
        while len(self._levels[-1]) > 1:
            prev = self._levels[-1]
            self._levels.append(tuple([
                hash_concat(prev[i : i + order])
                for i in range(0, len(prev), order)
            ]))
        #: the root digest (:data:`EMPTY_MB_ROOT` for no entries): what an
        #: auxiliary node digests for every block a query visits
        self.root: bytes = self._levels[-1][0] if keys else EMPTY_MB_ROOT

    @classmethod
    def bulk_load(
        cls,
        pairs: Sequence[tuple[Any, Any]],
        order: int = 32,
        digest_fn: Optional[DigestFn] = None,
    ) -> "MBTree":
        """Build from unsorted (key, payload) pairs."""
        digest = digest_fn or _default_digest
        entries = sorted(pairs, key=lambda kv: (kv[0], repr(kv[1])))
        digests = [digest(key, payload) for key, payload in entries]
        return cls(entries, digests, order=order)

    @property
    def order(self) -> int:
        return self._order

    # -- verification objects --------------------------------------------------

    def range_proof(self, low: Any = None, high: Any = None) -> "MBRangeProof":
        """VO for the inclusive range ``[low, high]``.

        Covers the matching entries plus one boundary entry on each side
        (when one exists); carries the sibling digests needed to
        recompute the root from the covered leaf span.
        """
        n = len(self._keys)
        order = self._order
        if n == 0:
            return MBRangeProof(0, 0, 0, order, False, False, ())
        lo, hi = self._span(low, high, True, True)
        hi -= 1  # inclusive: lo > hi when nothing matches
        if lo > hi:  # empty result: sandwich the gap between two boundaries
            start = max(lo - 1, 0)
            end = min(lo, n - 1)
        else:
            start = lo - 1 if lo > 0 else lo
            end = hi + 1 if hi < n - 1 else hi
        fills = []
        span_lo, span_hi = start, end
        for level in self._levels[:-1]:
            parent_lo = span_lo // order
            parent_hi = span_hi // order
            fills.append((level[parent_lo * order : span_lo],
                          level[span_hi + 1 : (parent_hi + 1) * order]))
            span_lo, span_hi = parent_lo, parent_hi
        return MBRangeProof(
            n, start, end - start + 1, order, lo > 0,
            (hi if lo <= hi else lo - 1) < n - 1, tuple(fills))

    def covered_payloads(self, proof: "MBRangeProof") -> list[tuple[Any, Any]]:
        """(key, payload) of every leaf the proof covers, in order.

        The serving full node returns the corresponding records (boundary
        records included, as in the paper's Example 4 where T_k and T_p
        travel with the VO).
        """
        end = proof.start + proof.covered
        return list(zip(self._keys[proof.start : end],
                        self._payloads[proof.start : end]))

    def covered_positions(self, proof: "MBRangeProof") -> list[Any]:
        """The payloads alone of :meth:`covered_payloads`: the block
        positions of the records a VO ships for ``proof``."""
        return self._payloads[proof.start : proof.start + proof.covered]


def ali_tree_factory(order: int) -> TreeFactory:
    """Level 2 of the authenticated layered index: an MB-tree per block
    whose leaf digests are the keyed positions' stored-record digests."""

    def build(pairs: Sequence[tuple[Any, int]], leaf_digest: LeafDigestAt) -> MBTree:
        return MBTree.bulk_load(
            pairs, order=order,
            digest_fn=lambda key, position: leaf_digest(position))

    return build


@dataclasses.dataclass(slots=True)
class MBRangeProof:
    """Verification object of one MB-tree range query.

    Slotted and built positionally: one is made per visited block of
    every authenticated query.

    Attributes
    ----------
    total:
        Number of entries in the tree (public; needed to replay grouping).
    start / covered:
        Index of the first covered leaf and how many are covered.
    order:
        Tree fan-out.
    has_left_boundary / has_right_boundary:
        Whether the first / last covered record is a boundary record
        (outside the query range, proving completeness on that side).
    fills:
        Per level, the (left, right) sibling digests flanking the covered
        span within their parent groups.
    """

    total: int
    start: int
    covered: int
    order: int
    has_left_boundary: bool
    has_right_boundary: bool
    fills: tuple[tuple[tuple[bytes, ...], tuple[bytes, ...]], ...]

    def size_bytes(self) -> int:
        """VO size metric of Figs 17: digests carried by this proof."""
        size = 16  # small fixed overhead for the counters/flags
        for left, right in self.fills:
            size += sum(map(len, left)) + sum(map(len, right))
        return size


def reconstruct_root(proof: MBRangeProof, leaf_digests: Sequence[bytes]) -> bytes:
    """Recompute the MB-tree root from covered leaf digests + the proof.

    Raises :class:`VerificationError` when the shape of the proof is
    inconsistent with the claimed counters - a malformed VO can never
    produce a root by accident.
    """
    if proof.total == 0:
        if leaf_digests:
            raise VerificationError("proof claims an empty tree but leaves supplied")
        return EMPTY_MB_ROOT
    if len(leaf_digests) != proof.covered:
        raise VerificationError(
            f"proof covers {proof.covered} leaves, got {len(leaf_digests)}"
        )
    order = proof.order
    if order < 2:
        raise VerificationError(f"proof claims fan-out {order}, below 2")
    level = leaf_digests
    span_lo = proof.start
    count = proof.total
    for left_fill, right_fill in proof.fills:
        parent_lo = span_lo // order
        span_hi = span_lo + len(level) - 1
        parent_hi = span_hi // order
        if len(left_fill) != span_lo - parent_lo * order:
            raise VerificationError("left fill length mismatch")
        if len(right_fill) != min((parent_hi + 1) * order, count) - span_hi - 1:
            raise VerificationError("right fill length mismatch")
        full = [*left_fill, *level, *right_fill]
        if len(full) <= order:  # one parent group: the top levels' case
            level = [hash_concat(full)]
        else:
            level = [hash_concat(full[i : i + order])
                     for i in range(0, len(full), order)]
        span_lo = parent_lo
        count = -(-count // order)
    if count != 1 or len(level) != 1:
        raise VerificationError("proof did not reduce to a single root")
    return level[0]
