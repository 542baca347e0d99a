"""Tests for the batched (random-linear-combination) Schnorr verifier."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.lru import LRUCache
from repro.crypto import KeyPair, multi_scalar_mul, verify, verify_batch
from repro.crypto.batch import derive_seed
from repro.crypto.group import (
    GENERATOR,
    IDENTITY,
    N,
    deserialize_point,
    point_add,
    scalar_mul,
)


def make_items(count, signers=4, tag=""):
    """``count`` valid (public_key, message, signature) triples."""
    items = []
    for i in range(count):
        kp = KeyPair.from_seed(f"batch{tag}-{i % signers}")
        msg = f"message-{tag}-{i}".encode()
        items.append((kp.public_key, msg, kp.sign(msg)))
    return items


class TestMultiScalarMul:
    def test_matches_naive_sum(self):
        rng = random.Random(5)
        points = [scalar_mul(rng.getrandbits(200)) for _ in range(7)]
        terms = [(rng.getrandbits(130), p) for p in points]
        naive = IDENTITY
        for k, p in terms:
            naive = point_add(naive, scalar_mul(k, p))
        assert multi_scalar_mul(terms) == naive

    def test_empty_and_zero_terms(self):
        assert multi_scalar_mul([]) == IDENTITY
        assert multi_scalar_mul([(0, GENERATOR), (N, GENERATOR)]) == IDENTITY
        assert multi_scalar_mul([(7, IDENTITY)]) == IDENTITY

    def test_single_term(self):
        assert multi_scalar_mul([(12345, GENERATOR)]) == scalar_mul(12345)

    def test_cancellation(self):
        terms = [(5, GENERATOR), (N - 5, GENERATOR)]
        assert multi_scalar_mul(terms) == IDENTITY

    def test_mixed_scalar_widths(self):
        rng = random.Random(9)
        points = [scalar_mul(rng.getrandbits(180)) for _ in range(5)]
        terms = [
            (rng.getrandbits(128) if i % 2 else rng.getrandbits(256), p)
            for i, p in enumerate(points)
        ]
        naive = IDENTITY
        for k, p in terms:
            naive = point_add(naive, scalar_mul(k, p))
        assert multi_scalar_mul(terms) == naive


class TestVerifyBatch:
    def test_all_valid_is_one_aggregate(self):
        outcome = verify_batch(make_items(12))
        assert outcome.all_valid
        assert outcome.valid == [True] * 12
        assert outcome.aggregate_checks == 1
        assert outcome.single_checks == 0

    def test_empty_batch(self):
        outcome = verify_batch([])
        assert outcome.valid == []
        assert outcome.all_valid

    def test_single_item_batch(self):
        items = make_items(1)
        assert verify_batch(items).valid == [True]
        pk, _msg, sig = items[0]
        assert verify_batch([(pk, b"other message", sig)]).valid == [False]

    def test_forgeries_pinpointed_exactly(self):
        items = make_items(16, tag="forge")
        attacker = KeyPair.from_seed("attacker")
        # a signature from the wrong key, and a swapped message
        items[3] = (items[3][0], items[3][1], attacker.sign(items[3][1]))
        items[11] = (items[11][0], b"swapped", items[11][2])
        outcome = verify_batch(items)
        expected = [verify(pk, m, s) for pk, m, s in items]
        assert outcome.valid == expected
        assert not outcome.valid[3]
        assert not outcome.valid[11]
        assert sum(outcome.valid) == 14
        assert outcome.aggregate_checks > 1  # bisection ran

    def test_malformed_items_isolated(self):
        items = make_items(6, tag="malformed")
        items[0] = (items[0][0], items[0][1], b"short")
        items[2] = (b"\x00" * 33, items[2][1], items[2][2])  # identity key
        items[4] = (b"junkkey", items[4][1], items[4][2])
        outcome = verify_batch(items)
        expected = [verify(pk, m, s) for pk, m, s in items]
        assert outcome.valid == expected
        assert outcome.valid == [False, True, False, True, False, True]

    def test_agrees_with_serial_verify_fuzz(self):
        rng = random.Random(77)
        for trial in range(3):
            items = make_items(8, tag=f"fuzz{trial}")
            for _ in range(rng.randrange(1, 4)):
                victim = rng.randrange(len(items))
                pk, msg, sig = items[victim]
                mutated = bytearray(sig)
                mutated[rng.randrange(len(sig))] ^= 1 << rng.randrange(8)
                items[victim] = (pk, msg, bytes(mutated))
            expected = [verify(pk, m, s) for pk, m, s in items]
            assert verify_batch(items).valid == expected

    def test_deterministic_outcome(self):
        items = make_items(10, tag="det")
        seed = derive_seed(items)
        first = verify_batch(items, seed=seed)
        second = verify_batch(items, seed=seed)
        assert first.valid == second.valid
        assert first.aggregate_checks == second.aggregate_checks
        assert first.single_checks == second.single_checks
        # the content-derived seed is itself stable
        assert derive_seed(items) == seed
        assert verify_batch(items).valid == first.valid


class TestHostileBytes:
    """Neither verifier may raise on any bytes, and they must agree per item."""

    @staticmethod
    def assert_agreement(items):
        expected = [verify(pk, m, s) for pk, m, s in items]
        assert verify_batch(items).valid == expected
        return expected

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                # lengths around the real encodings, so parsing gets past
                # the length checks and into decompression often enough
                st.one_of(st.binary(max_size=40), st.binary(min_size=33, max_size=33)),
                st.binary(max_size=16),
                st.one_of(st.binary(max_size=70), st.binary(min_size=65, max_size=65)),
            ),
            max_size=6,
        )
    )
    def test_arbitrary_triples(self, items):
        self.assert_agreement(items)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_single_byte_mutations_of_valid_triples(self, data):
        items = make_items(6, signers=2, tag="hostile")
        for _ in range(data.draw(st.integers(1, 3))):
            victim = data.draw(st.integers(0, len(items) - 1))
            field = data.draw(st.integers(0, 2))
            mutated = bytearray(items[victim][field])
            position = data.draw(st.integers(0, len(mutated) - 1))
            mutated[position] ^= data.draw(st.integers(1, 255))
            triple = list(items[victim])
            triple[field] = bytes(mutated)
            items[victim] = tuple(triple)
        self.assert_agreement(items)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 32), st.integers(1, 255))
    def test_mutated_key_shared_by_several_items(self, position, flip):
        # three signers; every item of signer 0 carries the same mutated
        # key, so the per-call key memo sees it repeatedly - whatever it
        # remembers must reject those items and nothing else
        items = make_items(9, signers=3, tag="shared")
        good_key = items[0][0]
        mutated = bytearray(good_key)
        mutated[position] ^= flip
        bad_key = bytes(mutated)
        items = [
            (bad_key if pk == good_key else pk, m, s) for pk, m, s in items
        ]
        expected = self.assert_agreement(items)
        assert expected == [pk != bad_key for pk, _m, _s in items]
        # and the memo is per call: the intact batch verifies afterwards
        intact = [(good_key if pk == bad_key else pk, m, s) for pk, m, s in items]
        assert verify_batch(intact).all_valid


#: triples shaped like TestHostileBytes.test_arbitrary_triples draws them
hostile_triples = st.tuples(
    st.one_of(st.binary(max_size=40), st.binary(min_size=33, max_size=33)),
    st.binary(max_size=16),
    st.one_of(st.binary(max_size=70), st.binary(min_size=65, max_size=65)),
)


class TestKeyCache:
    """A decompressed-key cache that outlives one verify_batch call."""

    def test_keys_are_reused_across_calls(self):
        keys = LRUCache(8)
        assert verify_batch(make_items(6, signers=3, tag="reuse"), keys=keys).all_valid
        assert len(keys) == 3 and keys.misses == 3
        for public_key in keys:
            assert keys.peek(public_key) == deserialize_point(public_key)
        # a later batch from the same signers decompresses nothing
        assert verify_batch(make_items(9, signers=3, tag="reuse"), keys=keys).all_valid
        assert keys.misses == 3

    def test_evicts_at_its_bound(self):
        keys = LRUCache(2)
        items = make_items(8, signers=4, tag="evict")
        assert verify_batch(items, keys=keys).all_valid
        assert len(keys) == 2
        assert keys.evictions == 6  # four signers, alternating, two slots
        assert list(keys) == [items[6][0], items[7][0]]

    def test_identity_and_undecodable_keys_never_enter(self):
        items = make_items(6, signers=2, tag="never")
        good_key = items[1][0]
        items[0] = (b"\x00" * 33, items[0][1], items[0][2])  # identity
        items[2] = (b"junkkey", items[2][1], items[2][2])
        items[4] = (b"\x02" + (5).to_bytes(32, "big"), items[4][1], items[4][2])
        keys = LRUCache(16)
        outcome = verify_batch(items, keys=keys)
        assert outcome.valid == [verify(pk, m, s) for pk, m, s in items]
        assert outcome.valid == [False, True, False, True, False, True]
        assert list(keys) == [good_key]
        # and they still reject on a warm cache
        assert verify_batch(items, keys=keys).valid == outcome.valid

    @staticmethod
    def assert_cold_and_warm_agree(items, keys):
        expected = [verify(pk, m, s) for pk, m, s in items]
        assert verify_batch(items, keys=LRUCache(64)).valid == expected
        assert verify_batch(items, keys=keys).valid == expected
        assert verify_batch(items, keys=keys).valid == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(hostile_triples, max_size=6))
    def test_arbitrary_triples_cold_and_warm(self, hostile):
        # valid neighbours warm the cache with real keys before the hostile
        # bytes arrive
        keys = LRUCache(64)
        valid = make_items(3, signers=2, tag="warm-hostile")
        verify_batch(valid, keys=keys)
        self.assert_cold_and_warm_agree(valid + hostile, keys)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_mutated_triples_cold_and_warm(self, data):
        keys = LRUCache(64)
        items = make_items(6, signers=2, tag="warm-mutated")
        verify_batch(items, keys=keys)
        for _ in range(data.draw(st.integers(1, 3))):
            victim = data.draw(st.integers(0, len(items) - 1))
            field = data.draw(st.integers(0, 2))
            mutated = bytearray(items[victim][field])
            position = data.draw(st.integers(0, len(mutated) - 1))
            mutated[position] ^= data.draw(st.integers(1, 255))
            triple = list(items[victim])
            triple[field] = bytes(mutated)
            items[victim] = tuple(triple)
        self.assert_cold_and_warm_agree(items, keys)
