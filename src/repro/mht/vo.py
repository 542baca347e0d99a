"""Query-level verification objects (section VI).

An authenticated query runs in two phases.  Phase one: a full node
executes the query over the ALI and returns a :class:`QueryVO` - the block
height ``h`` it executed at, plus one :class:`BlockVO` (records + MB-tree
range proof) per visited block.  Phase two: auxiliary full nodes are sent
(query, h) and each returns the *digest* - the hash of the concatenation
of the MB-tree roots the query must visit at height h.  The thin client
reconstructs every MB-root from the VO, hashes them, and compares with the
(majority of the) auxiliary digests.

Soundness: forged or tampered records change a leaf digest and therefore
the reconstructed root.  Completeness: boundary records prove no matching
record was withheld on either side of the range, and the auxiliary digest
pins the *set of blocks* the query must visit so whole blocks cannot be
withheld either.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Sequence

from ..common.errors import CodecError, VerificationError
from ..common.hashing import hash_concat, hash_leaf
from ..model.transaction import Transaction
from .mbtree import MBRangeProof, reconstruct_root


@dataclasses.dataclass(slots=True)
class BlockVO:
    """Proof material for one visited block (slotted and built
    positionally: one is made per visited block of every query)."""

    height: int
    #: serialized covered records (boundaries included), in MB-tree order
    records: tuple[bytes, ...]
    proof: MBRangeProof

    def size_bytes(self) -> int:
        """Contribution to the VO-size metric (Fig 17)."""
        return sum(map(len, self.records)) + self.proof.size_bytes()


@dataclasses.dataclass(frozen=True)
class QueryVO:
    """Everything phase one returns to the thin client."""

    chain_height: int
    column: str
    low: Any
    high: Any
    blocks: tuple[BlockVO, ...]

    def size_bytes(self) -> int:
        return sum(b.size_bytes() for b in self.blocks) + 16


@dataclasses.dataclass(frozen=True)
class VerifiedResult:
    """Outcome of a successful verification."""

    transactions: tuple[Transaction, ...]
    digest: bytes
    blocks_verified: int
    #: the verified VO's :meth:`QueryVO.size_bytes`, summed on the way
    vo_size_bytes: int


KeyFn = Callable[[Transaction], Any]

#: decoded records a ``rows`` map passed to :func:`verify_query_vo` holds
#: before it starts over (the bound of a thin client's row memory; a full
#: map is cleared, as the codec's intern caches are, so a stream of new
#: records cannot switch the sharing off for good)
ROW_CACHE_ENTRIES = 1 << 16


def verify_query_vo(
    vo: QueryVO,
    key_of: KeyFn,
    expected_digest: Optional[bytes] = None,
    extra_filter: Optional[Callable[[Transaction], bool]] = None,
    rows: Optional[dict[bytes, Transaction]] = None,
    query: Optional[tuple[str, Any, Any]] = None,
) -> VerifiedResult:
    """Thin-client verification of a :class:`QueryVO`.

    Reconstructs each visited block's MB-root from the returned records
    and range proof, checks boundary/sort/range conditions, hashes the
    roots into the digest, and (when given) compares against the
    auxiliary-node digest.  Raises :class:`VerificationError` on any
    violation; returns the verified matching transactions otherwise.

    ``extra_filter`` implements client-side post-filtering for
    multi-dimension tracking: the proven-complete result on one dimension
    is narrowed locally, preserving completeness.

    ``rows`` maps the leaf digest of a record verified before to its
    decoded transaction, so a record is decoded once however many VOs
    ship it; it is filled here and cleared when it holds
    :data:`ROW_CACHE_ENTRIES`.  Every shipped record is still hashed,
    every root rebuilt and every key, sort, boundary and range check
    run: the digest is of the bytes shipped, so a record that differs
    from the cached one by a single byte misses and is decoded anew.
    The returned transactions are the map's objects: they are shared
    with every later answer that ships the same bytes and must not be
    mutated.

    ``query`` is the ``(column, low, high)`` the caller asked, and a VO
    proving anything else is refused.  Without it the VO's own bounds
    are trusted, which is sound only for a VO the caller built itself: a
    block's MB-root does not depend on the range its proof covers, so
    the honest block set with per-block proofs for another range still
    meets the auxiliary digest.
    """
    if query is not None and (vo.column, vo.low, vo.high) != query:
        column, low, high = query
        raise VerificationError(
            f"VO proves {vo.column} in [{vo.low!r}, {vo.high!r}], the query "
            f"asked {column} in [{low!r}, {high!r}]"
        )
    if rows is None:
        rows = {}
    roots: list[bytes] = []
    matched: list[Transaction] = []
    seen_heights: set[int] = set()
    size = 16
    low, high = vo.low, vo.high
    for block_vo in vo.blocks:
        height = block_vo.height
        if height in seen_heights:
            raise VerificationError(f"duplicate block {height} in VO")
        if height >= vo.chain_height:
            raise VerificationError(
                f"VO references block {height} beyond snapshot "
                f"height {vo.chain_height}"
            )
        seen_heights.add(height)
        root, block_size = _verify_block_vo(
            block_vo, low, high, key_of, matched, rows)
        roots.append(root)
        size += block_size
    digest = hash_concat(roots)
    if expected_digest is not None and digest != expected_digest:
        raise VerificationError(
            "digest mismatch: the serving node's result set does not match "
            "the auxiliary nodes' view of the chain"
        )
    if extra_filter is not None:
        matched = [tx for tx in matched if extra_filter(tx)]
    return VerifiedResult(tuple(matched), digest, len(roots), size)


def _verify_block_vo(
    block_vo: BlockVO,
    low: Any,
    high: Any,
    key_of: KeyFn,
    matched_out: list[Transaction],
    rows: dict[bytes, Transaction],
) -> tuple[bytes, int]:
    """Verify one block's proof; append its matches; return the MB-root
    and the block's :meth:`BlockVO.size_bytes`.

    One pass over the records: each is hashed, looked up in ``rows`` (or
    decoded and added), keyed, checked to sort after the one before and,
    between the boundaries, to lie in the range.
    """
    proof = block_vo.proof
    records = block_vo.records
    height = block_vo.height
    covered = len(records)
    if covered != proof.covered:
        raise VerificationError(
            f"block {height}: {covered} records for "
            f"a proof covering {proof.covered}"
        )
    # the records between the boundaries are the block's result
    first, last = 0, covered
    if proof.has_left_boundary:
        if not covered:
            raise VerificationError("left boundary claimed but no records")
        first = 1
    elif proof.start != 0:
        raise VerificationError(
            f"block {height}: no left boundary but proof does not "
            f"start at the first entry"
        )
    if proof.has_right_boundary:
        if not covered:
            raise VerificationError("right boundary claimed but no records")
        last -= 1
    elif proof.start + covered != proof.total:
        raise VerificationError(
            f"block {height}: no right boundary but proof does not "
            f"reach the last entry"
        )
    leaf, get = hash_leaf, rows.get
    digests: list[bytes] = []
    append = digests.append
    previous = key = None
    for i, raw in enumerate(records):
        digest = leaf(raw)
        append(digest)
        tx = get(digest)
        if tx is None:
            tx = _decode_row(raw, digest, rows, height)
        key = key_of(tx)
        if i:
            if previous > key:
                raise VerificationError(
                    f"block {height}: records not sorted by index key"
                )
        elif first and low is not None and not key < low:
            raise VerificationError(
                f"block {height}: left boundary key {key!r} "
                f"not below range start {low!r}"
            )
        previous = key
        if first <= i < last:
            if low is not None and key < low:
                raise VerificationError(
                    f"block {height}: result key {key!r} below range"
                )
            if high is not None and key > high:
                raise VerificationError(
                    f"block {height}: result key {key!r} above range"
                )
            matched_out.append(tx)
    if last < covered and high is not None and not key > high:
        raise VerificationError(
            f"block {height}: right boundary key {key!r} "
            f"not above range end {high!r}"
        )
    size = sum(map(len, records)) + proof.size_bytes()
    return reconstruct_root(proof, digests), size


def _decode_row(raw: bytes, digest: bytes,
                rows: dict[bytes, Transaction], height: int) -> Transaction:
    """Decode a shipped record the row map does not hold, and add it
    (clearing the map first when it is full)."""
    try:
        tx = Transaction.from_bytes(raw)
    except CodecError as exc:
        raise VerificationError(
            f"block {height}: a shipped record does not decode: {exc}"
        ) from exc
    if len(rows) >= ROW_CACHE_ENTRIES:
        rows.clear()
    rows[digest] = tx
    return tx


def digest_of_roots(roots: Sequence[bytes]) -> bytes:
    """The auxiliary-node digest: hash of the concatenated MB-roots."""
    return hash_concat(roots)
