"""Batched Schnorr verification (random linear combination).

One aggregate curve equation replaces per-signature verification: given
signatures ``(R_i, s_i)`` over messages ``m_i`` under keys ``Q_i``, draw
randomizers ``a_i`` and check

    (sum a_i * s_i) * G  ==  sum a_i * R_i  +  sum (a_i * e_i) * Q_i

which holds whenever every signature is valid and fails with probability
about ``2^-128`` when any is forged - the random coefficients stop a
forger from cancelling one bad term against another.  The whole check
collapses into a single multi-scalar multiplication
(:func:`repro.crypto.group.multi_scalar_mul`), and terms sharing a
public key fold into one ``Q`` term, so a batch verifies several times
faster than its signatures would individually.

Determinism: the randomizers come from a **seeded** ``random.Random``
whose seed is derived from the batch content itself (or passed
explicitly), so verification replays bit-for-bit on every replica - the
repo-wide determinism analysis rule stays clean - while a signer still
cannot predict the coefficients without first committing to the batch
bytes they are hashed from.

When the aggregate fails, the batch is **bisected**: each half re-checks
as its own aggregate (fresh deterministic randomizers per span) and
small spans fall back to per-signature checks, so the caller always
learns exactly which signatures are bad.  An all-valid batch costs one
aggregate check; a batch with k bad signatures costs O(k log n) extra
span checks - still far cheaper than n singles for the common
mostly-valid case, and at worst about twice the serial work when an
adversary poisons everything.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Sequence, Tuple

from ..common.errors import SignatureError
from ..common.hashing import sha256
from ..common.lru import LRUCache
from . import group, schnorr

#: one verification request: (public_key, message, signature) - the same
#: triple :func:`repro.crypto.schnorr.verify` takes
BatchItem = Tuple[bytes, bytes, bytes]

#: randomizer width in bits: 128-bit coefficients keep the forgery
#: probability negligible while halving the width of every R term in
#: the multi-scalar multiplication
RANDOMIZER_BITS = 128

#: spans at or below this size skip bisection and check singly - two
#: aggregate probes cannot beat four direct checks
_BISECT_FLOOR = 4


@dataclasses.dataclass
class BatchVerification:
    """Outcome of one :func:`verify_batch` call."""

    #: per-item validity, aligned with the input order
    valid: List[bool]
    #: aggregate (random-linear-combination) checks performed
    aggregate_checks: int = 0
    #: per-signature fallback checks performed during bisection
    single_checks: int = 0

    @property
    def all_valid(self) -> bool:
        return all(self.valid)


#: parsed item: (input index, s, R, e, Q, public key bytes)
_Parsed = Tuple[int, int, group.Point, int, group.Point, bytes]


def _decode_point(data: bytes) -> Optional[group.Point]:
    """The non-identity point ``data`` encodes, or ``None``."""
    try:
        point = group.deserialize_point(data)
    except SignatureError:
        return None
    return None if point.is_identity else point


def _parse_item(
    index: int, item: BatchItem, keys: LRUCache[bytes, group.Point]
) -> Optional[_Parsed]:
    """Screen one item exactly as :func:`schnorr.verify` would.

    Malformed inputs (bad lengths, off-curve points, identity points,
    out-of-range scalars) are rejected here so they can never poison the
    aggregate equation for well-formed neighbours.  ``keys`` memoizes
    public-key decompression (a modular square root) by exact key bytes.
    Only keys that decode to a non-identity point enter it, so an
    undecodable key is decoded again each time and rejects exactly the
    items that carry it.
    """
    public_key, message, signature = item
    if len(signature) != schnorr.SIGNATURE_SIZE:
        return None
    q_point = keys.get(public_key)
    if q_point is None:
        q_point = _decode_point(public_key)
        if q_point is None:
            return None
        keys.put(public_key, q_point)
    r_point = _decode_point(signature[:33])
    if r_point is None:
        return None
    s = int.from_bytes(signature[33:], "big")
    if s >= group.N:
        return None
    e = schnorr._hash_to_scalar(signature[:33], public_key, message)
    return (index, s, r_point, e, q_point, public_key)


def derive_seed(items: Sequence[BatchItem]) -> int:
    """Deterministic randomizer seed bound to the batch content."""
    rolling = sha256(b"sebdb-batch-verify")
    for public_key, message, signature in items:
        rolling = sha256(rolling + sha256(public_key) + sha256(message)
                         + sha256(signature))
    return int.from_bytes(rolling, "big")


def _aggregate_holds(entries: Sequence[_Parsed], rng: random.Random) -> bool:
    """One random-linear-combination probe over ``entries``."""
    s_coefficient = 0
    terms: list[tuple[int, group.Point]] = []
    #: public key -> [folded coefficient, point]; insertion ordered, so
    #: the term order is deterministic
    q_terms: dict[bytes, list] = {}
    for _index, s, r_point, e, q_point, public_key in entries:
        a = rng.getrandbits(RANDOMIZER_BITS) | 1
        s_coefficient = (s_coefficient + a * s) % group.N
        terms.append((a, r_point))
        held = q_terms.get(public_key)
        if held is None:
            q_terms[public_key] = [a * e % group.N, q_point]
        else:
            held[0] = (held[0] + a * e) % group.N
    for coefficient, q_point in q_terms.values():
        terms.append((coefficient, q_point))
    # the G side stays out of the multi-scalar multiplication: the
    # fixed-base table computes it in a fraction of a bucket pass
    return group.scalar_mul(s_coefficient) == group.multi_scalar_mul(terms)


def _check_singly(entries: Sequence[_Parsed], outcome: BatchVerification) -> None:
    """Per-signature fallback: the plain Schnorr equation for each entry."""
    for index, s, r_point, e, q_point, _public_key in entries:
        outcome.single_checks += 1
        outcome.valid[index] = schnorr.equation_holds(s, r_point, e, q_point)


def _verify_span(
    entries: Sequence[_Parsed], seed: int, outcome: BatchVerification
) -> None:
    """Recursive bisection: aggregate first, split on failure."""
    if len(entries) <= 1:
        _check_singly(entries, outcome)
        return
    # span-specific sub-seed: every probe draws fresh coefficients, so a
    # forger cannot target the recursion with a single lucky cancellation
    rng = random.Random(f"{seed}:{entries[0][0]}:{len(entries)}")
    outcome.aggregate_checks += 1
    if _aggregate_holds(entries, rng):
        for entry in entries:
            outcome.valid[entry[0]] = True
        return
    if len(entries) <= _BISECT_FLOOR:
        _check_singly(entries, outcome)
        return
    mid = len(entries) // 2
    _verify_span(entries[:mid], seed, outcome)
    _verify_span(entries[mid:], seed, outcome)


def verify_batch(
    items: Sequence[BatchItem],
    seed: Optional[int] = None,
    keys: Optional[LRUCache[bytes, group.Point]] = None,
) -> BatchVerification:
    """Verify a whole batch of Schnorr signatures at once.

    Returns a :class:`BatchVerification` whose ``valid`` list is aligned
    with ``items`` and agrees exactly with calling
    :func:`repro.crypto.schnorr.verify` on each triple.  ``seed``
    overrides the content-derived randomizer seed (tests; replicas must
    all pass the same value or none).  ``keys`` is a cache of
    decompressed public keys that outlives the call (the ledger pipeline
    owns one); it is read and filled here, and a cold or a warm cache
    gives the same verdicts.  Without one, keys are memoized for this
    call only.
    """
    outcome = BatchVerification(valid=[False] * len(items))
    if keys is None:
        keys = LRUCache(len(items))
    parsed = [
        entry
        for entry in (_parse_item(i, item, keys) for i, item in enumerate(items))
        if entry is not None
    ]
    if not parsed:
        return outcome
    if seed is None:
        seed = derive_seed(items)
    _verify_span(parsed, seed, outcome)
    return outcome
