"""Elliptic-curve group arithmetic over secp256k1.

A minimal, dependency-free implementation of the secp256k1 short
Weierstrass curve (y^2 = x^3 + 7 over F_p) sufficient for Schnorr
signatures: point addition, doubling, scalar and multi-scalar
multiplication, and compressed-point (de)serialization.  The public API
speaks affine :class:`Point`; the multiplication kernels run on Jacobian
coordinates underneath (one modular inversion per result), with a
precomputed window table for the generator and mixed Jacobian+affine
addition wherever one operand is known to be affine.

This is *real* public-key cryptography, not a mock - signatures produced by
one node genuinely verify (or fail to) on another.  It is not constant-time
and must not be used outside this reproduction.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from ..common.errors import SignatureError

#: secp256k1 parameters (SEC 2).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


class Point(NamedTuple):
    """Affine curve point; ``None`` coordinates encode the identity."""

    x: Optional[int]
    y: Optional[int]

    @property
    def is_identity(self) -> bool:
        return self.x is None


IDENTITY = Point(None, None)
GENERATOR = Point(GX, GY)


def is_on_curve(point: Point) -> bool:
    """True iff ``point`` satisfies the curve equation (or is identity)."""
    if point.is_identity:
        return True
    x, y = point.x, point.y
    assert x is not None and y is not None
    return (y * y - (x * x * x + A * x + B)) % P == 0


def point_add(p1: Point, p2: Point) -> Point:
    """Group addition on the curve."""
    if p1.is_identity:
        return p2
    if p2.is_identity:
        return p1
    x1, y1 = p1.x, p1.y
    x2, y2 = p2.x, p2.y
    assert None not in (x1, y1, x2, y2)
    if x1 == x2 and (y1 + y2) % P == 0:
        return IDENTITY
    if p1 == p2:
        slope = (3 * x1 * x1 + A) * pow(2 * y1, -1, P) % P
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (slope * slope - x1 - x2) % P
    y3 = (slope * (x1 - x3) - y1) % P
    return Point(x3, y3)


def point_neg(point: Point) -> Point:
    if point.is_identity:
        return point
    assert point.x is not None and point.y is not None
    return Point(point.x, (-point.y) % P)


# -- Jacobian-coordinate kernels ---------------------------------------------
#
# Affine point_add pays one modular inversion per addition.  Scalar and
# multi-scalar multiplication therefore run on Jacobian triples
# (X, Y, Z) ~ (X/Z^2, Y/Z^3) internally - a handful of modular
# multiplications per step and exactly ONE inversion at the end.  Three
# kernels sit on top of that:
#
# * ``_G_TABLE``: every ``digit * 16^w * G`` precomputed in affine form,
#   so ``k * G`` is at most 64 additions and no doublings;
# * ``_jac_add_affine``: mixed addition (Z2 = 1), 11 field
#   multiplications instead of the 16 of ``_jac_add`` - used by the table
#   walk and by Pippenger's bucket accumulation, whose inputs are affine;
# * ``_jac_add`` / ``_jac_double``: the general case (bucket folding,
#   variable-base double-and-add).
#
# The public API still speaks affine :class:`Point` and produces
# bit-identical results.

#: Jacobian identity (any triple with Z == 0)
_JAC_IDENTITY = (0, 1, 0)


def _jac_to_affine(p: tuple[int, int, int]) -> Point:
    x, y, z = p
    if z == 0:
        return IDENTITY
    z_inv = pow(z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return Point(x * z_inv2 % P, y * z_inv2 * z_inv % P)


def _jac_double(p: tuple[int, int, int]) -> tuple[int, int, int]:
    x1, y1, z1 = p
    if z1 == 0 or y1 == 0:
        return _JAC_IDENTITY
    yy = y1 * y1 % P
    s = 4 * x1 * yy % P
    m = 3 * x1 * x1 % P
    x3 = (m * m - 2 * s) % P
    y3 = (m * (s - x3) - 8 * yy * yy) % P
    z3 = 2 * y1 * z1 % P
    return (x3, y3, z3)


def _jac_add(
    p: tuple[int, int, int], q: tuple[int, int, int]
) -> tuple[int, int, int]:
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2 * z2z2 % P
    s2 = y2 * z1 * z1z1 % P
    if u1 == u2:
        if s1 != s2:
            return _JAC_IDENTITY
        return _jac_double(p)
    h = u2 - u1
    r = s2 - s1
    hh = h * h % P
    hhh = h * hh % P
    v = u1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    y3 = (r * (v - x3) - s1 * hhh) % P
    z3 = z1 * z2 * h % P
    return (x3, y3, z3)


def _jac_add_affine(
    p: tuple[int, int, int], q: tuple[int, int]
) -> tuple[int, int, int]:
    """Mixed addition: Jacobian ``p`` plus the affine, non-identity ``q``."""
    x1, y1, z1 = p
    x2, y2 = q
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % P
    u2 = x2 * z1z1 % P
    s2 = y2 * z1 * z1z1 % P
    if u2 == x1:
        if s2 != y1:
            return _JAC_IDENTITY
        return _jac_double(p)
    h = u2 - x1
    r = s2 - y1
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    y3 = (r * (v - x3) - y1 * hhh) % P
    z3 = z1 * h % P
    return (x3, y3, z3)


def _build_generator_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    """``table[w][d - 1] == d * 16^w * G`` as affine ``(x, y)`` pairs."""
    rows = []
    base = GENERATOR
    for _ in range(64):  # 4-bit windows over a 256-bit scalar
        row = [base]
        for _ in range(14):
            row.append(point_add(row[-1], base))
        rows.append(tuple((p.x, p.y) for p in row))
        base = point_add(row[-1], base)
    return tuple(rows)


#: built once at import and never written again (64 rows x 15 points,
#: about 180 kB)
_G_TABLE = _build_generator_table()


def _generator_mul(k: int) -> tuple[int, int, int]:
    """``k * G`` for ``0 <= k < N``: one mixed addition per non-zero nibble."""
    acc = _JAC_IDENTITY
    for row in _G_TABLE:
        digit = k & 15
        if digit:
            acc = _jac_add_affine(acc, row[digit - 1])
        k >>= 4
    return acc


def scalar_mul(k: int, point: Point = GENERATOR) -> Point:
    """Scalar multiplication ``k * point``.

    The generator takes the fixed-base table walk; any other point takes
    Jacobian double-and-add.
    """
    k %= N
    if k == 0 or point.is_identity:
        return IDENTITY
    if point == GENERATOR:
        return _jac_to_affine(_generator_mul(k))
    result = _JAC_IDENTITY
    addend = (point.x, point.y, 1)
    while k:
        if k & 1:
            result = _jac_add(result, addend)
        addend = _jac_double(addend)
        k >>= 1
    return _jac_to_affine(result)


def multi_scalar_mul(terms: Sequence[tuple[int, Point]]) -> Point:
    """``sum(k_i * P_i)`` via Pippenger's bucket method.

    A length-n multi-scalar multiplication costs roughly
    ``(bits / log2 n) * (n + 2^window)`` point additions instead of the
    ``O(bits * n)`` of n independent double-and-add runs, which is what
    makes batch signature verification cheaper than verifying each
    signature alone.  Exact over any scalar widths (mixed 128-bit
    randomizer and 256-bit coefficient terms are fine); falls back to
    plain :func:`scalar_mul` for tiny inputs where bucketing cannot win.
    """
    reduced = [(k % N, p) for k, p in terms if k % N and not p.is_identity]
    if not reduced:
        return IDENTITY
    if len(reduced) <= 2:
        acc = IDENTITY
        for k, p in reduced:
            acc = point_add(acc, scalar_mul(k, p))
        return acc
    # the fold below pays two general additions per bucket per window,
    # so the window stays two bits under log2(n)
    window = min(12, max(2, len(reduced).bit_length() - 2))
    max_bits = max(k.bit_length() for k, _ in reduced)
    num_windows = (max_bits + window - 1) // window
    mask = (1 << window) - 1
    result = _JAC_IDENTITY
    for w in range(num_windows - 1, -1, -1):
        if result[2]:
            for _ in range(window):
                result = _jac_double(result)
        buckets: list[Optional[tuple[int, int, int]]] = [None] * mask
        shift = w * window
        # every input point is affine, so accumulation is mixed addition
        for k, p in reduced:
            digit = (k >> shift) & mask
            if digit:
                held = buckets[digit - 1]
                buckets[digit - 1] = (
                    (p.x, p.y, 1) if held is None else _jac_add_affine(held, p)
                )
        # fold buckets highest-first: sum(digit * bucket[digit]) with one
        # running partial sum instead of a scalar_mul per bucket
        running = _JAC_IDENTITY
        acc = _JAC_IDENTITY
        for index in range(mask - 1, -1, -1):
            bucket = buckets[index]
            if bucket is not None:
                running = _jac_add(running, bucket)
            if running[2]:
                acc = _jac_add(acc, running)
        result = _jac_add(result, acc)
    return _jac_to_affine(result)


def serialize_point(point: Point) -> bytes:
    """Compressed SEC1 encoding (33 bytes; 0x00*33 for identity)."""
    if point.is_identity:
        return b"\x00" * 33
    assert point.x is not None and point.y is not None
    prefix = b"\x03" if point.y & 1 else b"\x02"
    return prefix + point.x.to_bytes(32, "big")


def deserialize_point(data: bytes) -> Point:
    """Inverse of :func:`serialize_point`; validates curve membership."""
    if len(data) != 33:
        raise SignatureError(f"bad point encoding length {len(data)}")
    if data == b"\x00" * 33:
        return IDENTITY
    prefix, xbytes = data[0], data[1:]
    if prefix not in (2, 3):
        raise SignatureError(f"bad point prefix {prefix:#x}")
    x = int.from_bytes(xbytes, "big")
    if x >= P:
        raise SignatureError("point x coordinate out of range")
    # y^2 = x^3 + 7; sqrt via p % 4 == 3 shortcut
    y_sq = (pow(x, 3, P) + A * x + B) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if (y * y) % P != y_sq:
        raise SignatureError("x coordinate not on curve")
    if bool(y & 1) != (prefix == 3):
        y = P - y
    point = Point(x, y)
    if not is_on_curve(point):  # pragma: no cover - defensive
        raise SignatureError("decoded point not on curve")
    return point
