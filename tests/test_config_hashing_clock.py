"""Tests for SebdbConfig validation, hashing helpers and the clocks."""

import pytest

from repro.common.clock import Clock
from repro.common.config import SebdbConfig
from repro.common.errors import ConfigError
from repro.common.hashing import (
    DIGEST_SIZE,
    hash_children,
    hash_concat,
    hash_leaf,
    hex_digest,
    sha256,
)


class TestConfig:
    def test_defaults_match_paper(self):
        config = SebdbConfig()
        assert config.segment_file_size == 256 * 1024 * 1024

    def test_in_memory_is_small(self):
        config = SebdbConfig.in_memory()
        assert config.data_dir is None
        assert config.segment_file_size < SebdbConfig().segment_file_size

    def test_in_memory_overrides(self):
        config = SebdbConfig.in_memory(cache_mode="block", histogram_depth=3)
        assert config.cache_mode == "block"
        assert config.histogram_depth == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"segment_file_size": 0},
            {"num_shards": 0},
            {"block_size_txs": 0},
            {"package_timeout_ms": -5},
            {"bptree_order": 2},
            {"histogram_depth": 0},
            {"cache_mode": "bogus"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SebdbConfig(**kwargs)

    def test_data_dir_coerced_to_path(self, tmp_path):
        config = SebdbConfig(data_dir=str(tmp_path))
        assert config.data_dir == tmp_path


class TestHashing:
    def test_sha256_size(self):
        assert len(sha256(b"x")) == DIGEST_SIZE

    def test_leaf_and_node_domains_differ(self):
        # identical payloads must not collide across leaf/interior roles
        payload = sha256(b"a") + b""
        assert hash_leaf(payload) != sha256(payload)
        left = right = sha256(b"y")
        assert hash_children(left, right) != hash_leaf(left + right)

    def test_hash_concat_matches_manual(self):
        parts = [b"a", b"bc", b""]
        assert hash_concat(parts) == sha256(b"abc")

    def test_hex_digest(self):
        assert hex_digest(b"\x00\xff") == "00ff"

    def test_determinism(self):
        assert hash_leaf(b"same") == hash_leaf(b"same")
        assert hash_children(b"l", b"r") == hash_children(b"l", b"r")

    def test_child_order_matters(self):
        assert hash_children(b"l", b"r") != hash_children(b"r", b"l")


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now_ms() == 0.0

    def test_advance(self):
        clock = Clock()
        clock.advance(12.5)
        clock.advance(0.5)
        assert clock.now_ms() == 13.0

    def test_cannot_go_backwards(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)

    def test_seq_monotone(self):
        clock = Clock()
        values = [clock.next_seq() for _ in range(5)]
        assert values == sorted(values)
        assert len(set(values)) == 5
