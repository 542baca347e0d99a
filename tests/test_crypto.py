"""Tests for secp256k1 group math, Schnorr signatures and key pairs."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import SignatureError
from repro.crypto import (
    GENERATOR,
    IDENTITY,
    KeyPair,
    Point,
    address_of,
    is_on_curve,
    multi_scalar_mul,
    point_add,
    scalar_mul,
    sign,
    verify,
)
from repro.crypto.group import (
    BETA,
    GX,
    GY,
    LAMBDA,
    N,
    P,
    _glv_split,
    _jac_add_affine,
    _jac_to_affine,
    _signed_digits,
    deserialize_point,
    point_neg,
    serialize_point,
)


class TestGroup:
    def test_generator_on_curve(self):
        assert is_on_curve(GENERATOR)

    def test_identity_is_neutral(self):
        assert point_add(GENERATOR, IDENTITY) == GENERATOR
        assert point_add(IDENTITY, GENERATOR) == GENERATOR

    def test_point_plus_negation_is_identity(self):
        assert point_add(GENERATOR, point_neg(GENERATOR)) == IDENTITY

    def test_doubling_matches_scalar(self):
        assert point_add(GENERATOR, GENERATOR) == scalar_mul(2)

    def test_group_order(self):
        assert scalar_mul(N) == IDENTITY
        assert scalar_mul(N + 1) == GENERATOR

    def test_scalar_mul_distributes(self):
        assert point_add(scalar_mul(3), scalar_mul(5)) == scalar_mul(8)

    def test_results_stay_on_curve(self):
        for k in (2, 3, 7, 12345, N - 1):
            assert is_on_curve(scalar_mul(k))

    def test_serialize_roundtrip(self):
        for k in (1, 2, 99, 2**200):
            point = scalar_mul(k)
            assert deserialize_point(serialize_point(point)) == point

    def test_identity_serialization(self):
        assert deserialize_point(serialize_point(IDENTITY)) == IDENTITY

    @pytest.mark.parametrize(
        "data",
        [b"", b"\x02" + b"\x00" * 31, b"\x04" + b"\x00" * 32,
         b"\x02" + P.to_bytes(32, "big")],
    )
    def test_bad_encodings_rejected(self, data):
        with pytest.raises(SignatureError):
            deserialize_point(data)

    def test_x_not_on_curve_rejected(self):
        # x = 5 has no square root for y^2 = x^3 + 7 on secp256k1
        with pytest.raises(SignatureError):
            deserialize_point(b"\x02" + (5).to_bytes(32, "big"))


def affine_ladder(k, point):
    """Reference ``k * point``: double-and-add on affine ``point_add`` alone."""
    result = IDENTITY
    while k:
        if k & 1:
            result = point_add(result, point)
        point = point_add(point, point)
        k >>= 1
    return result


class TestKernels:
    """Each fast kernel against the affine reference it must agree with."""

    def test_fixed_base_matches_affine_ladder(self):
        rng = random.Random("fixed-base")
        scalars = [0, 1, 2, 15, 16, N - 1, N, N + 1]
        # single nibbles in the lowest, a middle and the highest table row
        scalars += [1 << 4, 15 << 128, 1 << 252, 15 << 252]
        scalars += [rng.randrange(1, N) for _ in range(12)]
        for k in scalars:
            assert scalar_mul(k) == affine_ladder(k % N, GENERATOR), hex(k)

    def test_fixed_base_agrees_with_the_variable_base_path(self):
        # an equal point that is not the GENERATOR object still takes the table
        copy = Point(GENERATOR.x, GENERATOR.y)
        other = scalar_mul(7)
        for k in (3, 2**130 + 5, N - 2):
            assert scalar_mul(k, copy) == scalar_mul(k)
            assert scalar_mul(k, other) == affine_ladder(k, other)
            assert scalar_mul(k, other) == scalar_mul(7 * k)

    def test_mixed_addition_edge_cases(self):
        point = scalar_mul(0xC0FFEE)
        pair = (point.x, point.y)
        negated = point_neg(point)
        identity = (0, 1, 0)
        # identity on the Jacobian side
        assert _jac_to_affine(_jac_add_affine(identity, pair)) == point
        # P + P falls through to doubling, at Z == 1 and at Z != 1
        assert _jac_to_affine(_jac_add_affine((*pair, 1), pair)) == point_add(point, point)
        z = 0xABCDEF
        scaled = (point.x * z * z % P, point.y * z * z * z % P, z)
        assert _jac_to_affine(_jac_add_affine(scaled, pair)) == point_add(point, point)
        # P + (-P) is the identity; a sum that lands on it normalizes to IDENTITY
        assert _jac_to_affine(_jac_add_affine(scaled, (negated.x, negated.y))) == IDENTITY
        # the generic case
        other = scalar_mul(0xBEEF)
        mixed = _jac_add_affine(scaled, (other.x, other.y))
        assert _jac_to_affine(mixed) == point_add(point, other)

    def test_multi_scalar_mul_edge_terms(self):
        point = scalar_mul(99)
        # identity points and zero scalars on either side of real terms
        terms = [(5, IDENTITY), (0, point), (3, point), (N, GENERATOR),
                 (4, point_neg(point)), (2, point), (1, IDENTITY)]
        assert multi_scalar_mul(terms) == point
        # P and -P in one bucket, then the same point twice in one bucket
        assert multi_scalar_mul([(6, point), (6, point_neg(point)), (1, GENERATOR)]) == GENERATOR
        assert multi_scalar_mul([(6, point), (6, point), (6, point)]) == scalar_mul(18, point)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 2**128), st.integers(0, 2**256)),
                st.integers(0, 4),
            ),
            max_size=24,
        )
    )
    def test_multi_scalar_mul_is_the_sum_of_scalar_muls(self, picks):
        # five points, so lists beyond that repeat points across terms
        points = [scalar_mul(k) for k in (1, 2, 3, N - 1, 0xDEADBEEF)]
        terms = [(k, points[which]) for k, which in picks]
        expected = IDENTITY
        for k, point in terms:
            expected = point_add(expected, scalar_mul(k, point))
        assert multi_scalar_mul(terms) == expected


def naive_sum(terms):
    """Reference ``sum(k * P)``: one variable-base multiplication per term."""
    expected = IDENTITY
    for k, point in terms:
        expected = point_add(expected, scalar_mul(k, point))
    return expected


class TestGlvAndSignedDigits:
    """The endomorphism split and the signed-digit buckets of multi_scalar_mul."""

    def test_endomorphism_constants(self):
        assert scalar_mul(LAMBDA) == Point(BETA * GX % P, GY)
        assert LAMBDA != 1 and pow(LAMBDA, 3, N) == 1
        assert BETA != 1 and pow(BETA, 3, P) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, N - 1))
    @example(0)
    @example(1)
    @example(LAMBDA)
    @example(N - 1)
    @example(2**128 - 1)
    @example(2**128 + 1)
    def test_split_recombines_into_two_short_halves(self, k):
        k1, k2 = _glv_split(k)
        assert (k1 + k2 * LAMBDA - k) % N == 0
        assert abs(k1) < 2**129 and abs(k2) < 2**129

    @pytest.mark.parametrize("window", [2, 3, 4, 5, 8])
    def test_signed_digits_recombine_within_range(self, window):
        half = 1 << (window - 1)
        for k in (0, 1, half, half + 1, 2**129 - 1, N - 1,
                  2**(window * 7) - 1, 2**(window * 7)):
            count = k.bit_length() // window + 1
            digits = _signed_digits(k, window, count)
            assert len(digits) == count
            assert all(-half < d <= half for d in digits), (k, digits)
            assert sum(d << (window * i) for i, d in enumerate(digits)) == k

    @pytest.mark.parametrize("count", [3, 20, 40, 70])
    def test_carry_at_every_window_boundary(self, count):
        # with scalars under 130 bits nothing is split, so the window is
        # bit_length(count) - 2 and 2^(w*m) - 1 carries out of every window
        window = max(2, count.bit_length() - 2)
        points = [scalar_mul(k) for k in (3, 0xC0FFEE, N - 2)]
        widths = [window * m for m in range(1, 129 // window + 1)]
        terms = [((1 << widths[i % len(widths)]) - 1, points[i % 3])
                 for i in range(count)]
        assert multi_scalar_mul(terms) == naive_sum(terms)

    def test_point_its_negation_and_its_endomorphism_in_one_call(self):
        point = scalar_mul(0xFACADE)
        phi = Point(BETA * point.x % P, point.y)
        assert phi == scalar_mul(LAMBDA, point)
        rng = random.Random("glv-terms")
        # full-width scalars split into halves on point and phi, which
        # then share buckets with the explicit terms
        for _ in range(3):
            terms = [(rng.randrange(N), p)
                     for p in (point, point_neg(point), phi, point_neg(phi))
                     for _ in range(3)]
            terms += [(LAMBDA, point), (N - LAMBDA, phi), (2**128 + 1, point)]
            assert multi_scalar_mul(terms) == naive_sum(terms)
        # k*P + k*(-P) + (k*LAMBDA)*P - k*phi(P) is the identity
        k = rng.randrange(N)
        assert multi_scalar_mul(
            [(k, point), (k, point_neg(point)), (k * LAMBDA, point),
             (N - k, phi)]
        ) == IDENTITY


class TestSchnorr:
    #: (key seed, message, signature hex) captured before ``sign`` took the
    #: public key as an argument and before the fixed-base table existed
    PINNED = [
        ("alice", b"sebdb signature vector one",
         "0355deb170a74e41806cc719947b976e6ce94c40fd74fc94a8af874c5277376e6b"
         "8d3efaefcd3451a16c6d435f22b44a4ee9e91ab4001f5594b390efbd48c6f3ae"),
        ("org-7", bytes(range(200)),
         "03aa20bf106a5f7b2fa2db5b0d7b5413cce893fa85cb817741328bcc74543847f2"
         "d016f61c4773bf56b5c4f62ee128962c71b916700f4a9e9ac8cc272f9869aaaa"),
    ]

    def test_signature_bytes_are_pinned(self):
        for seed, message, expected in self.PINNED:
            kp = KeyPair.from_seed(seed)
            assert kp.sign(message).hex() == expected
            # with and without the public key handed in
            assert sign(kp.private_key, message).hex() == expected
            assert sign(kp.private_key, message, kp.public_key).hex() == expected

    def test_sign_verify(self):
        kp = KeyPair.from_seed("alice")
        sig = sign(kp.private_key, b"hello")
        assert verify(kp.public_key, b"hello", sig)

    def test_wrong_message_fails(self):
        kp = KeyPair.from_seed("alice")
        sig = sign(kp.private_key, b"hello")
        assert not verify(kp.public_key, b"hell0", sig)

    def test_wrong_key_fails(self):
        alice = KeyPair.from_seed("alice")
        bob = KeyPair.from_seed("bob")
        sig = sign(alice.private_key, b"msg")
        assert not verify(bob.public_key, b"msg", sig)

    def test_bitflip_in_signature_fails(self):
        kp = KeyPair.from_seed("alice")
        sig = bytearray(sign(kp.private_key, b"msg"))
        for position in (0, 16, 33, 64):
            tampered = bytearray(sig)
            tampered[position] ^= 0x01
            assert not verify(kp.public_key, b"msg", bytes(tampered))

    def test_deterministic(self):
        kp = KeyPair.from_seed("alice")
        assert sign(kp.private_key, b"m") == sign(kp.private_key, b"m")

    def test_malformed_signature_returns_false(self):
        kp = KeyPair.from_seed("alice")
        assert not verify(kp.public_key, b"m", b"short")
        assert not verify(kp.public_key, b"m", b"\x00" * 65)

    def test_out_of_range_private_key(self):
        with pytest.raises(SignatureError):
            sign(0, b"m")
        with pytest.raises(SignatureError):
            sign(N, b"m")

    @settings(max_examples=10, deadline=None)
    @given(st.binary(max_size=64), st.integers(min_value=1, max_value=2**64))
    def test_roundtrip_property(self, message, scalar):
        kp = KeyPair._from_scalar(scalar % (N - 1) + 1)
        assert verify(kp.public_key, message, sign(kp.private_key, message))


class TestKeyPair:
    def test_from_seed_deterministic(self):
        assert KeyPair.from_seed("x") == KeyPair.from_seed("x")
        assert KeyPair.from_seed("x") != KeyPair.from_seed("y")

    def test_generate_is_unique(self):
        assert KeyPair.generate() != KeyPair.generate()

    def test_address_derivation(self):
        kp = KeyPair.from_seed("alice")
        assert kp.address == address_of(kp.public_key)
        assert len(kp.address) == 40  # 20 bytes hex

    def test_sign_verify_methods(self):
        kp = KeyPair.from_seed("alice")
        assert kp.verify(b"data", kp.sign(b"data"))

    def test_seed_accepts_bytes(self):
        assert KeyPair.from_seed(b"raw") == KeyPair.from_seed(b"raw")
