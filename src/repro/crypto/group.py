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

#: the GLV endomorphism (SEC 2, libsecp256k1): ``LAMBDA * (x, y) ==
#: (BETA * x, y)``; LAMBDA is a cube root of unity mod N, BETA one mod P
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
#: short basis (a1, b1), (a2, b2) of the lattice {(i, j): i + j*LAMBDA = 0 mod N}
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1


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
# multiplications per step and exactly ONE inversion at the end.  Four
# kernels sit on top of that:
#
# * ``_G_TABLE``: every ``digit * 16^w * G`` precomputed in affine form,
#   so ``k * G`` is at most 64 additions and no doublings;
# * ``_jac_add_affine``: mixed addition (Z2 = 1), 11 field
#   multiplications instead of the 16 of ``_jac_add`` - used by the table
#   walk and by Pippenger's bucket accumulation, whose inputs are affine;
# * ``_jac_add`` / ``_jac_double``: the general case (bucket folding,
#   variable-base double-and-add);
# * ``_glv_split`` / ``_signed_digits``: in front of Pippenger's buckets,
#   256-bit scalars become two ~128-bit halves (half the windows) and
#   digits are signed (half the buckets, so half the folding).
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


def _glv_split(k: int) -> tuple[int, int]:
    """``(k1, k2)`` with ``k1 + k2 * LAMBDA == k (mod N)`` for ``0 <= k < N``.

    Rounded-division decomposition against the short lattice basis
    (Guide to ECC, Alg. 3.74): both halves are signed and under 2^129 in
    magnitude.
    """
    c1 = (2 * _B2 * k + N) // (2 * N)
    c2 = (-2 * _B1 * k + N) // (2 * N)
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _signed_digits(k: int, window: int, count: int) -> list[int]:
    """``k`` as ``count`` base-``2^window`` digits in ``[-2^(w-1)+1, 2^(w-1)]``.

    Lowest window first; a digit above half the radix borrows from the
    next window.  ``count`` must leave the top window room for that carry.
    """
    half = 1 << (window - 1)
    radix = 1 << window
    mask = radix - 1
    digits = []
    for _ in range(count):
        digit = k & mask
        k >>= window
        if digit > half:
            digit -= radix
            k += 1
        digits.append(digit)
    assert k == 0, "signed recoding carried out of the top window"
    return digits


def multi_scalar_mul(terms: Sequence[tuple[int, Point]]) -> Point:
    """``sum(k_i * P_i)`` via Pippenger's bucket method.

    A length-n multi-scalar multiplication costs roughly
    ``(bits / log2 n) * (n + 2^window)`` point additions instead of the
    ``O(bits * n)`` of n independent double-and-add runs, which is what
    makes batch signature verification cheaper than verifying each
    signature alone.  Two reductions sit in front of the buckets: every
    scalar wider than 129 bits is GLV-split into two ~128-bit halves on
    ``P`` and ``(BETA * x, y)``, so a batch mixing 128-bit randomizer and
    256-bit coefficient terms needs half the windows; and digits are
    signed, so a window has ``2^(w-1)`` buckets instead of ``2^w - 1``.
    Falls back to plain :func:`scalar_mul` for tiny inputs where
    bucketing cannot win.
    """
    reduced = [(k % N, p) for k, p in terms if k % N and not p.is_identity]
    if not reduced:
        return IDENTITY
    if len(reduced) <= 2:
        acc = IDENTITY
        for k, p in reduced:
            acc = point_add(acc, scalar_mul(k, p))
        return acc
    #: (scalar > 0, x, y); a negative GLV half takes the negated point
    split: list[tuple[int, int, int]] = []
    for k, p in reduced:
        x, y = p.x, p.y
        assert x is not None and y is not None
        if k.bit_length() <= 129:
            split.append((k, x, y))
            continue
        for half, hx in zip(_glv_split(k), (x, BETA * x % P)):
            if half > 0:
                split.append((half, hx, y))
            elif half < 0:
                split.append((-half, hx, P - y))
    # the fold below pays two general additions per bucket per window,
    # so the window stays two bits under log2(n)
    window = min(12, max(2, len(split).bit_length() - 2))
    # one window more than the bits need: the top digit absorbs the last
    # carry of the signed recoding
    num_windows = max(k.bit_length() for k, _, _ in split) // window + 1
    prepared = [
        (_signed_digits(k, window, num_windows), (x, y), (x, P - y))
        for k, x, y in split
    ]
    num_buckets = 1 << (window - 1)
    result = _JAC_IDENTITY
    for w in range(num_windows - 1, -1, -1):
        if result[2]:
            for _ in range(window):
                result = _jac_double(result)
        buckets: list[Optional[tuple[int, int, int]]] = [None] * num_buckets
        # every input point is affine, so accumulation is mixed addition;
        # a negative digit adds the negated point to bucket |digit|
        for digits, positive, negative in prepared:
            digit = digits[w]
            if digit > 0:
                index, point = digit - 1, positive
            elif digit < 0:
                index, point = -digit - 1, negative
            else:
                continue
            held = buckets[index]
            buckets[index] = (
                (point[0], point[1], 1) if held is None
                else _jac_add_affine(held, point)
            )
        # fold buckets highest-first: sum(digit * bucket[digit]) with one
        # running partial sum instead of a scalar_mul per bucket
        running = _JAC_IDENTITY
        acc = _JAC_IDENTITY
        for index in range(num_buckets - 1, -1, -1):
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
