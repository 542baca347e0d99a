"""Deterministic Schnorr signatures over secp256k1.

Scheme (BIP-340 flavoured, without x-only keys for simplicity):

* key pair: ``d`` (scalar), ``Q = d*G``
* sign(m):  ``k = H(d || m) mod n``; ``R = k*G``;
  ``e = H(R || Q || m) mod n``; ``s = k + e*d mod n``; signature = (R, s)
* verify:   ``s*G == R + e*Q``

Deterministic nonces make signing reproducible, which the test-suite and
benchmark harness rely on.
"""

from __future__ import annotations

from typing import Optional

from ..common.errors import SignatureError
from ..common.hashing import sha256
from . import group

SIGNATURE_SIZE = 33 + 32  # compressed R point + 32-byte scalar s


def _hash_to_scalar(*parts: bytes) -> int:
    return int.from_bytes(sha256(b"".join(parts)), "big") % group.N


def sign(
    private_key: int, message: bytes, public_key: Optional[bytes] = None
) -> bytes:
    """Sign ``message``; returns a 65-byte signature ``R || s``.

    ``public_key`` is the compressed encoding of ``private_key * G``; a
    caller that already holds it (:class:`~repro.crypto.keys.KeyPair`)
    passes it to save the scalar multiplication that derives it.
    """
    if not 0 < private_key < group.N:
        raise SignatureError("private key out of range")
    d_bytes = private_key.to_bytes(32, "big")
    k = _hash_to_scalar(b"nonce", d_bytes, message)
    if k == 0:  # pragma: no cover - probability ~2^-256
        k = 1
    r_bytes = group.serialize_point(group.scalar_mul(k))
    if public_key is None:
        public_key = group.serialize_point(group.scalar_mul(private_key))
    e = _hash_to_scalar(r_bytes, public_key, message)
    s = (k + e * private_key) % group.N
    return r_bytes + s.to_bytes(32, "big")


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is a valid signature of ``message``.

    ``public_key`` is the compressed SEC1 encoding of ``Q``.
    Malformed inputs return ``False`` rather than raising, so callers can
    treat any bad signature uniformly.
    """
    if len(signature) != SIGNATURE_SIZE:
        return False
    try:
        r_point = group.deserialize_point(signature[:33])
        q_point = group.deserialize_point(public_key)
    except SignatureError:
        return False
    if r_point.is_identity or q_point.is_identity:
        return False
    s = int.from_bytes(signature[33:], "big")
    if s >= group.N:
        return False
    e = _hash_to_scalar(signature[:33], public_key, message)
    return equation_holds(s, r_point, e, q_point)


def equation_holds(
    s: int, r_point: group.Point, e: int, q_point: group.Point
) -> bool:
    """The verification equation ``s*G == R + e*Q`` over parsed values.

    The caller has screened the encodings (:func:`verify`, and the batch
    verifier's per-signature fallback).
    """
    lhs = group.scalar_mul(s)
    rhs = group.point_add(r_point, group.scalar_mul(e, q_point))
    return lhs == rhs
