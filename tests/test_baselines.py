"""Tests for the ChainSQL and basic-authentication baselines."""

import dataclasses

import pytest

from repro.baselines import (
    BasicAuthServer,
    ChainSQLBaseline,
    predicate_for_range,
    verify_basic_vo,
)
from repro.bench.generator import UNIFORM, build_tracking_dataset
from repro.common.errors import VerificationError


@pytest.fixture(scope="module")
def tracking_dataset():
    return build_tracking_dataset(
        num_blocks=12, txs_per_block=20, result_size=30,
        distribution=UNIFORM, operator_extra=18, operation_extra=12, seed=3,
    )


class TestChainSQL:
    def test_replication_counts(self, tracking_dataset):
        baseline = ChainSQLBaseline()
        rows = baseline.replicate_chain(tracking_dataset.store)
        assert rows == 12 * 20
        assert baseline.replicated_rows == rows

    def test_one_dimension_tracking(self, tracking_dataset):
        baseline = ChainSQLBaseline()
        baseline.replicate_chain(tracking_dataset.store)
        metrics = baseline.track_one_dimension("org1")
        # org1 sends result_size transfers + operator_extra others
        assert metrics.rows_returned == 30 + 18
        assert metrics.rows_transferred == metrics.rows_returned

    def test_two_dimension_filters_client_side(self, tracking_dataset):
        baseline = ChainSQLBaseline()
        baseline.replicate_chain(tracking_dataset.store)
        metrics = baseline.track_two_dimensions("org1", "transfer")
        assert metrics.rows_returned == 30           # the true answer
        assert metrics.rows_transferred == 48        # but ALL org1 rows moved

    def test_transfer_cost_grows_with_operator_txs(self, tracking_dataset):
        baseline = ChainSQLBaseline()
        baseline.replicate_chain(tracking_dataset.store)
        small = baseline.track_two_dimensions("org1", "transfer")
        big_dataset = build_tracking_dataset(
            num_blocks=12, txs_per_block=40, result_size=30,
            distribution=UNIFORM, operator_extra=200, seed=3,
        )
        baseline2 = ChainSQLBaseline()
        baseline2.replicate_chain(big_dataset.store)
        big = baseline2.track_two_dimensions("org1", "transfer")
        assert big.modelled_ms > small.modelled_ms

    def test_matches_sebdb_answer(self, tracking_dataset):
        baseline = ChainSQLBaseline()
        baseline.replicate_chain(tracking_dataset.store)
        from repro.bench.generator import create_standard_indexes

        create_standard_indexes(tracking_dataset)
        sebdb = tracking_dataset.node.query(
            "TRACE OPERATOR = 'org1', OPERATION = 'transfer'"
        )
        chainsql = baseline.track_two_dimensions("org1", "transfer")
        assert len(sebdb) == chainsql.rows_returned

    def test_schema_transactions_not_replicated(self):
        dataset = build_tracking_dataset(2, 5, 2, seed=1)
        baseline = ChainSQLBaseline()
        rows = baseline.replicate_chain(dataset.store)
        assert rows == 10  # genesis schema txs excluded


class TestBasicAuth:
    def make(self, tracking_dataset):
        server = BasicAuthServer(tracking_dataset.node)
        headers = tracking_dataset.store.headers
        return server, headers

    def test_roundtrip(self, tracking_dataset):
        server, headers = self.make(tracking_dataset)
        vo = server.query()
        results = verify_basic_vo(
            vo, headers, lambda tx: tx.senid == "org1"
        )
        truth = tracking_dataset.node.query("TRACE OPERATOR = 'org1'",
                                            method="scan")
        assert len(results) == len(truth)

    def test_vo_is_whole_chain(self, tracking_dataset):
        server, _ = self.make(tracking_dataset)
        vo = server.query()
        assert len(vo.block_bytes) == tracking_dataset.store.height
        total = sum(
            tracking_dataset.store.block_size(h)
            for h in range(tracking_dataset.store.height)
        )
        assert vo.size_bytes() == total

    def test_tampered_block_detected(self, tracking_dataset):
        from repro.model import Block

        server, headers = self.make(tracking_dataset)
        vo = server.query()
        block = Block.from_bytes(vo.block_bytes[3])
        forged = dataclasses.replace(block.transactions[0], values=("forged",))
        block = Block(header=block.header,
                      transactions=(forged,) + block.transactions[1:])
        doctored = list(vo.block_bytes)
        doctored[3] = block.to_bytes()
        vo = type(vo)(chain_height=vo.chain_height,
                      block_bytes=tuple(doctored))
        with pytest.raises(VerificationError):
            verify_basic_vo(vo, headers, lambda tx: True)

    def test_unknown_block_detected(self, tracking_dataset):
        from repro.model import Block, GENESIS_PREV_HASH

        server, headers = self.make(tracking_dataset)
        vo = server.query()
        alien = Block.package(GENESIS_PREV_HASH, 999, 0, [])
        bad = type(vo)(chain_height=vo.chain_height,
                       block_bytes=vo.block_bytes + (alien.to_bytes(),))
        with pytest.raises(VerificationError):
            verify_basic_vo(bad, headers, lambda tx: True)

    def test_window_restricts_blocks(self, tracking_dataset):
        from repro.sqlparser.nodes import TimeWindow

        server, _ = self.make(tracking_dataset)
        vo = server.query(window=TimeWindow(2_000, 4_999))
        assert 0 < len(vo.block_bytes) < tracking_dataset.store.height

    def test_predicate_for_range(self):
        from repro.model import Transaction

        predicate = predicate_for_range(lambda tx: tx.values[0], 5, 10)
        mk = lambda v: Transaction.create("t", (v,), ts=0, sender="s")  # noqa: E731
        assert predicate(mk(7))
        assert not predicate(mk(4))
        assert not predicate(mk(11))
        assert not predicate(mk(None))
