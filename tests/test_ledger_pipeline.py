"""Tests for the staged write path: pipeline stages, the write-ahead
commit log, signature caching, and crash-mid-append recovery."""

import dataclasses
import random

import pytest

from repro.common.clock import Clock
from repro.common.codec import Writer
from repro.common.config import SebdbConfig
from repro.common.errors import ConfigError, LedgerError, StorageError
from repro.consensus import KafkaOrderer, PBFTCluster
from repro.crypto import KeyPair
from repro.faults.checker import InvariantChecker
from repro.ledger import pipeline as pipeline_module
from repro.ledger import (
    STAGES,
    BeginRecord,
    CheckpointRecord,
    CommitLog,
    CommitRecord,
    LedgerPipeline,
)
from repro.model import TableSchema, make_genesis
from repro.model.block import Block
from repro.model import transaction as transaction_module
from repro.model.catalog import Catalog
from repro.model.transaction import (
    SCHEMA_TNAME,
    Transaction,
    schema_from_sync_transaction,
    schema_sync_transaction,
)
from repro.network import MessageBus
from repro.node import FullNode
from repro.node.stats import collect_stats
from repro.storage.blockstore import BlockStore
from tests.conftest import DONATE, TRANSFER


def durable_config(tmp_path, **overrides):
    return SebdbConfig.in_memory(data_dir=tmp_path, **overrides)


# -- the commit log ----------------------------------------------------------

class TestCommitLog:
    def test_begin_commit_resolves_pending(self):
        log = CommitLog(None)
        log.begin(3, b"\x01" * 32, 100)
        assert isinstance(log.pending(), BeginRecord)
        assert log.pending().height == 3
        log.commit(3)
        assert log.pending() is None

    def test_begin_abort_resolves_pending(self):
        log = CommitLog(None)
        log.begin(3, b"\x01" * 32, 100)
        log.abort(3)
        assert log.pending() is None
        # the log accepts a fresh intent after the abort
        log.begin(3, b"\x02" * 32, 90)
        assert log.pending().block_hash == b"\x02" * 32

    def test_begin_while_pending_is_refused(self):
        log = CommitLog(None)
        log.begin(3, b"\x01" * 32, 100)
        with pytest.raises(LedgerError):
            log.begin(4, b"\x02" * 32, 100)

    def test_durable_reload_roundtrips_records(self, tmp_path):
        log = CommitLog(tmp_path)
        log.begin(0, b"\x0a" * 32, 64)
        log.commit(0)
        log.record_checkpoint(7, b"\x0b" * 32, ("pbft-0", "pbft-1", "pbft-2"),
                              height=8, tip_hash=b"\x0c" * 32)
        reloaded = CommitLog(tmp_path)
        assert reloaded.records == log.records
        assert reloaded.pending() is None
        assert reloaded.trusted_anchor() == (8, b"\x0c" * 32)
        cp = reloaded.latest_checkpoint()
        assert isinstance(cp, CheckpointRecord)
        assert cp.seq == 7 and cp.votes == ("pbft-0", "pbft-1", "pbft-2")

    def test_torn_log_tail_is_dropped(self, tmp_path):
        log = CommitLog(tmp_path)
        log.begin(0, b"\x0a" * 32, 64)
        log.commit(0)
        # a crash mid-log-write: a length prefix promising 50 bytes
        # followed by only two
        writer = Writer()
        writer.write_varint(50)
        with open(tmp_path / "commit.log", "ab") as fh:
            fh.write(writer.getvalue() + b"\x01\x02")
        reloaded = CommitLog(tmp_path)
        assert reloaded.torn_log_bytes > 0
        assert len(reloaded) == 2
        assert isinstance(reloaded.records[1], CommitRecord)
        assert reloaded.pending() is None

    def test_latest_checkpoint_wins(self):
        log = CommitLog(None)
        log.record_checkpoint(3, b"\x01" * 32, ("pbft-0",), 4, b"\x02" * 32)
        log.record_checkpoint(7, b"\x03" * 32, ("pbft-1",), 8, b"\x04" * 32)
        assert log.trusted_anchor() == (8, b"\x04" * 32)
        assert [c.seq for c in log.checkpoints()] == [3, 7]


# -- pipeline stages and counters --------------------------------------------

class TestPipelineStages:
    def test_standalone_commits_run_every_stage(self):
        node = FullNode("n0")
        node.create_table("CREATE t (a string)")
        for i in range(3):
            node.insert("t", (f"v{i}",))
        stats = node.ledger.stats
        # schema block + three inserts, each through all six stages
        assert stats.blocks_committed == 4
        assert stats.txs_committed == 4
        for name in STAGES:
            assert stats.stage(name).calls >= 4, name
        # genesis runs persist/apply but not validate
        assert stats.stage("persist").calls == stats.stage("validate").calls + 1
        assert stats.wal_committed == stats.wal_begun == 5

    def test_adoption_counts_separately(self):
        source = FullNode("n0")
        source.create_table("CREATE t (a string)")
        source.insert("t", ("x",))
        sink = FullNode("n1", genesis=source.store.read_block(0))
        sink.sync_from(source)
        stats = sink.ledger.stats
        assert stats.blocks_adopted == 2
        assert stats.blocks_committed == 0
        assert stats.stage("notify").calls == 0  # adopted, never re-announced
        assert sink.store.tip_hash == source.store.tip_hash

    def test_stage_breakdown_covers_canonical_order(self):
        node = FullNode("n0")
        node.create_table("CREATE t (a string)")
        breakdown = node.ledger.stats.stage_breakdown()
        assert tuple(breakdown) == STAGES
        assert all(ms >= 0.0 for ms in breakdown.values())

    def test_node_stats_fold_in_the_ledger(self):
        node = FullNode("n0")
        node.create_table("CREATE t (a string)")
        node.insert("t", ("x",))
        summary = collect_stats(node).summary()
        assert "write path:" in summary
        assert "commit log:" in summary
        for name in STAGES:
            assert name in summary


# -- validate stage: signatures ----------------------------------------------

class TestSignatureValidation:
    def test_verified_signature_cache_skips_rechecks(self, keypair):
        node = FullNode("n0", verify_signatures=True)
        node.create_table("CREATE donate (donor string, amount decimal)")
        tx = Transaction.create("donate", ("Jack", 10.0), ts=1, keypair=keypair)
        before = node.ledger.stats.sig_checks
        node.apply_batch([tx, tx])
        assert node.ledger.stats.sig_checks == before + 1
        assert node.ledger.stats.sig_cache_hits == 1

    def test_unsigned_transactions_are_rejected(self, keypair):
        node = FullNode("n0", verify_signatures=True)
        node.create_table("CREATE donate (donor string, amount decimal)")
        good = Transaction.create("donate", ("Jack", 10.0), ts=1,
                                  keypair=keypair)
        bad = Transaction.create("donate", ("Eve", 10.0), ts=1, sender="eve")
        height = node.store.height
        block = node.apply_batch([bad, good])
        assert block is not None and len(block.transactions) == 1
        assert node.store.height == height + 1
        assert node.ledger.stats.txs_rejected == 1
        assert node.rejected_transactions == [bad]

    def test_all_rejected_batch_produces_no_block(self):
        node = FullNode("n0", verify_signatures=True)
        node.create_table("CREATE donate (donor string, amount decimal)")
        bad = Transaction.create("donate", ("Eve", 1.0), ts=1, sender="eve")
        height = node.store.height
        assert node.apply_batch([bad]) is None
        assert node.store.height == height
        assert node.ledger.stats.wal_begun == node.ledger.stats.wal_committed


class TestSingleValidatePath:
    """Cache misses go through the aggregate check."""

    @staticmethod
    def batch_with_one_forgery():
        signers = [KeyPair.from_seed(f"validate-path-{i}") for i in range(4)]
        batch = [
            Transaction.create("donate", (f"d{i}", "edu", float(i + 1)),
                               ts=i + 1, keypair=signers[i % 4])
            for i in range(32)
        ]
        forger = KeyPair.from_seed("validate-path-forger")
        batch[13] = dataclasses.replace(
            batch[13], sig=forger.sign(batch[13].signing_payload())
        )
        return batch

    def test_default_node_aggregates_and_rejects_exactly_the_forgery(self):
        batch = self.batch_with_one_forgery()
        genesis = make_genesis(0, [DONATE])
        node = FullNode("n0", verify_signatures=True, genesis=genesis)
        node.apply_batch(batch)
        stats = node.ledger.stats
        assert stats.sig_aggregate_checks > 0
        assert stats.txs_rejected == 1
        assert node.rejected_transactions == [batch[13]]
        # the reference filters one signature at a time and verifies nothing
        reference = FullNode("ref", verify_signatures=False, genesis=genesis)
        reference.apply_batch([tx for tx in batch if tx.verify_signature()])
        assert reference.ledger.stats.sig_checks == 0
        assert node.store.height == reference.store.height == 2
        for height in range(node.store.height):
            assert (node.store.read_block(height).to_bytes()
                    == reference.store.read_block(height).to_bytes()), height

    def test_public_keys_stay_decompressed_across_blocks(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "_KEY_CACHE_ENTRIES", 2)
        signers = [KeyPair.from_seed(f"key-cache-{i}") for i in range(3)]
        node = FullNode("n0", verify_signatures=True,
                        genesis=make_genesis(0, [DONATE]))

        def block(first, keypairs):
            return [
                Transaction.create("donate", (f"d{i}", "edu", float(i + 1)),
                                   ts=i + 1, keypair=keypairs[i % len(keypairs)])
                for i in range(first, first + 4)
            ]

        keys = node.ledger._key_cache
        node.apply_batch(block(0, signers[:2]))
        assert len(keys) == 2 and keys.misses == 2
        node.apply_batch(block(4, signers[:2]))
        assert keys.misses == 2  # the second block decompresses no key
        node.apply_batch(block(8, signers[2:]))
        assert len(keys) == 2 and keys.evictions == 1
        assert node.ledger.stats.txs_committed == 12

    def test_adoption_still_refuses_a_forged_signature(self):
        batch = self.batch_with_one_forgery()
        genesis = make_genesis(0, [DONATE])
        source = FullNode("src", verify_signatures=False, genesis=genesis)
        source.apply_batch(batch)  # an unverifying peer commits the forgery
        sink = FullNode("sink", verify_signatures=True, genesis=genesis)
        with pytest.raises(StorageError, match="invalid signature"):
            sink.accept_block(source.store.read_block(1))
        assert sink.store.height == 1
        assert sink.ledger.stats.sig_aggregate_checks > 0


# -- validate stage: the honest cache and the bounded reject buffer ----------

class TestSignatureCacheHonesty:
    def test_cached_negative_verdict_still_rejects(self, keypair):
        node = FullNode("n0", verify_signatures=True)
        node.create_table("CREATE donate (donor string, amount decimal)")
        tx = Transaction.create("donate", ("Jack", 10.0), ts=1, keypair=keypair)
        # a poisoned cache entry: the stored verdict must be honored, not
        # flattened into "any cached entry means valid"
        node.ledger.sig_cache.put(tx.hash(), False)
        assert node.apply_batch([tx]) is None
        assert node.rejected_transactions == [tx]
        assert node.ledger.stats.sig_cache_hits == 1

    def test_invalid_signatures_are_never_cached_as_valid(self, keypair):
        node = FullNode("n0", verify_signatures=True)
        node.create_table("CREATE donate (donor string, amount decimal)")
        bad = Transaction.create("donate", ("Eve", 1.0), ts=1, sender="eve")
        node.apply_batch([bad])
        assert node.ledger.sig_cache.get(bad.hash()) is None
        # a retry re-checks and is rejected again, not cache-admitted
        node.apply_batch([bad])
        assert node.ledger.stats.txs_rejected == 2


class TestBoundedRejectBuffer:
    def _pipeline(self, cap):
        return LedgerPipeline(
            BlockStore(), Catalog(), Clock(), verify_signatures=True,
            rejected_cap=cap,
        )

    def test_rejections_beyond_the_cap_are_dropped(self):
        pipeline = self._pipeline(cap=4)
        bad = [
            Transaction.create("t", (f"v{i}",), ts=1, sender=f"eve{i}")
            for i in range(10)
        ]
        assert pipeline.commit_batch(bad) is None
        assert pipeline.stats.txs_rejected == 10
        assert pipeline.stats.rejected_dropped == 6
        # the buffer keeps the newest rejections
        assert pipeline.rejected == bad[-4:]

    def test_buffer_under_the_cap_keeps_everything(self):
        pipeline = self._pipeline(cap=8)
        bad = [
            Transaction.create("t", (f"v{i}",), ts=1, sender=f"eve{i}")
            for i in range(3)
        ]
        pipeline.commit_batch(bad)
        assert pipeline.rejected == bad
        assert pipeline.stats.rejected_dropped == 0

    def test_invalid_caps_are_refused(self):
        with pytest.raises(ConfigError):
            self._pipeline(cap=0)


# -- package stage: header timestamps never regress ---------------------------

class TestTimestampMonotonicity:
    def test_package_clamps_to_the_parent_header(self):
        node = FullNode("n0")
        node.create_table("CREATE t (a string)")
        node.insert("t", ("early",), ts=500)
        high = node.store.header(node.store.height - 1).timestamp
        assert high >= 500
        # a later batch whose transactions claim an older time: the block
        # timestamp must clamp to the parent, not regress
        node.insert("t", ("late",), ts=5)
        assert node.store.header(node.store.height - 1).timestamp >= high
        node.verify_local_chain(full=True)

    def test_adoption_refuses_a_regressing_header(self):
        node = FullNode("n0")
        node.create_table("CREATE t (a string)")
        node.insert("t", ("x",), ts=500)
        tx = Transaction.create("t", ("y",), ts=1, sender="peer").with_tid(
            node.ledger.next_tid
        )
        stale = Block.package(
            prev_hash=node.store.tip_hash,
            height=node.store.height,
            timestamp=10,  # far behind the adopted tip's 500+
            transactions=[tx],
        )
        with pytest.raises(StorageError, match="regresses"):
            node.accept_block(stale)

    def test_chain_verification_catches_tampered_headers(self):
        node = FullNode("n0")
        node.create_table("CREATE t (a string)")
        node.insert("t", ("x",), ts=500)
        node.insert("t", ("y",), ts=600)
        # inflate a middle header: its successor now appears to regress
        middle = node.store.height - 2
        node.store._headers[middle] = dataclasses.replace(
            node.store._headers[middle], timestamp=10**9
        )
        with pytest.raises(StorageError, match="regresses"):
            node.verify_local_chain(full=True)
        report = InvariantChecker([node]).check(raise_on_violation=False)
        assert any("timestamp regresses" in v for v in report.violations)


# -- durable engine checkpoints ----------------------------------------------

class TestTrustedCheckpointRecovery:
    def test_recovery_skips_merkle_work_below_the_anchor(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE t (a string)")
        for i in range(6):
            node.insert("t", (f"v{i}",))
        node.ledger.record_checkpoint(
            seq=5, digest=b"\x0d" * 32, votes=("pbft-0", "pbft-1", "pbft-2")
        )
        height = node.store.height
        del node

        reopened = FullNode("n0", config=durable_config(tmp_path))
        report = reopened.store.recovery_report
        assert report["blocks"] == height
        assert report["merkle_skipped"] == height
        assert report["trusted_fallback"] is False
        cp = reopened.persisted_engine_checkpoint
        assert cp is not None and cp.seq == 5
        assert cp.votes == ("pbft-0", "pbft-1", "pbft-2")
        assert len(reopened.query("SELECT * FROM t")) == 6

    def test_mismatched_anchor_falls_back_to_full_reverify(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE t (a string)")
        node.insert("t", ("x",))
        # a checkpoint whose tip hash does not match the stored chain: the
        # store must refuse the fast path rather than trust a bad anchor
        node.commit_log.record_checkpoint(
            5, b"\x0e" * 32, ("pbft-0", "pbft-1", "pbft-2"),
            height=node.store.height, tip_hash=b"\x11" * 32,
        )
        height = node.store.height
        del node

        reopened = FullNode("n0", config=durable_config(tmp_path))
        report = reopened.store.recovery_report
        assert report["trusted_fallback"] is True
        assert report["merkle_skipped"] == 0
        assert report["blocks"] == height
        reopened.verify_local_chain(full=True)

    def test_checkpointed_verify_starts_at_the_anchor(self):
        node = FullNode("n0")
        node.create_table("CREATE t (a string)")
        for i in range(4):
            node.insert("t", (f"v{i}",))
        node.ledger.record_checkpoint(3, b"\x0f" * 32, ("pbft-0",))
        anchored_height = node.store.height
        node.insert("t", ("after",))
        # only the suffix past the anchor needs re-verification
        assert node.verify_local_chain() == node.store.height - anchored_height + 1
        assert node.verify_local_chain(full=True) == node.store.height


# -- crash mid-append ---------------------------------------------------------

class TestCrashMidAppend:
    def _seed(self, tmp_path):
        node = FullNode("n0", config=durable_config(tmp_path))
        node.create_table("CREATE t (a string)")
        node.insert("t", ("committed",))
        return node

    def test_torn_append_is_discarded_on_restart(self, tmp_path):
        node = self._seed(tmp_path)
        height = node.store.height
        node.crash_during_next_persist("torn")
        node.insert("t", ("lost",))
        assert node.crashed
        assert node.commit_log.pending() is not None

        node.restart()
        assert node.last_recovery["wal_discarded"] == 1
        assert node.last_recovery["wal_replayed"] == 0
        assert node.store.height == height
        assert node.commit_log.pending() is None
        node.verify_local_chain(full=True)
        # the torn write is gone; the client retries and the chain moves on
        node.insert("t", ("retried",))
        values = {tx.values[0] for tx in node.query("SELECT * FROM t").transactions}
        assert values == {"committed", "retried"}

    def test_completed_append_is_replayed_on_restart(self, tmp_path):
        node = self._seed(tmp_path)
        height = node.store.height
        node.crash_during_next_persist("after-append")
        node.insert("t", ("replayed",))
        assert node.crashed

        node.restart()
        assert node.last_recovery["wal_replayed"] == 1
        assert node.last_recovery["wal_discarded"] == 0
        assert node.store.height == height + 1
        assert node.commit_log.pending() is None
        node.verify_local_chain(full=True)
        values = {tx.values[0] for tx in node.query("SELECT * FROM t").transactions}
        assert values == {"committed", "replayed"}

    def test_torn_append_is_discarded_by_a_fresh_process(self, tmp_path):
        node = self._seed(tmp_path)
        height = node.store.height
        node.crash_during_next_persist("torn")
        node.insert("t", ("lost",))
        del node

        reopened = FullNode("n0", config=durable_config(tmp_path))
        assert reopened.store.height == height
        assert reopened.ledger.stats.wal_discarded == 1
        assert reopened.commit_log.pending() is None
        reopened.verify_local_chain(full=True)
        assert len(reopened.query("SELECT * FROM t")) == 1

    def test_completed_append_is_replayed_by_a_fresh_process(self, tmp_path):
        node = self._seed(tmp_path)
        height = node.store.height
        node.crash_during_next_persist("after-append")
        node.insert("t", ("replayed",))
        del node

        reopened = FullNode("n0", config=durable_config(tmp_path))
        assert reopened.store.height == height + 1
        assert reopened.ledger.stats.wal_replayed == 1
        assert reopened.commit_log.pending() is None
        reopened.verify_local_chain(full=True)
        values = {
            tx.values[0] for tx in reopened.query("SELECT * FROM t").transactions
        }
        assert values == {"committed", "replayed"}

    def test_replay_refuses_a_mismatched_block(self, tmp_path):
        node = self._seed(tmp_path)
        node.crash_during_next_persist("after-append")
        node.insert("t", ("replayed",))
        # corrupt the intent record's hash: replay must refuse, not guess
        pending = node.commit_log.pending()
        node.commit_log._records[-1] = BeginRecord(
            height=pending.height, block_hash=b"\x66" * 32,
            length=pending.length,
        )
        with pytest.raises(LedgerError):
            node.ledger.resolve_wal()

    def test_unknown_crash_mode_is_refused(self):
        node = FullNode("n0")
        with pytest.raises(LedgerError):
            node.crash_during_next_persist("meteor-strike")


# -- adoption guards stay intact ----------------------------------------------

class TestAdoptionGuards:
    def test_forked_block_is_refused(self):
        a = FullNode("a")
        a.create_table("CREATE t (a string)")
        a.insert("t", ("x",))
        b = FullNode("b", genesis=a.store.read_block(0))
        b.create_table("CREATE u (a string)")
        # same height, different parent: a fork, not a catch-up
        with pytest.raises(StorageError, match="does not chain"):
            b.accept_block(a.store.read_block(2))

    def test_height_gap_is_refused(self):
        a = FullNode("a")
        a.create_table("CREATE t (a string)")
        a.insert("t", ("x",))
        b = FullNode("b", genesis=a.store.read_block(0))
        with pytest.raises(StorageError, match="cannot accept block"):
            b.accept_block(a.store.read_block(2))


# -- live commit, fresh-process rebuild and adoption agree --------------------

KEYPAIRS = [KeyPair.from_seed(f"fuzz-client-{i}") for i in range(4)]
FORGER = KeyPair.from_seed("fuzz-forger")


def make_batches(seed, num_batches=5, batch_size=14):
    """Random signed batches: schema transactions mid-batch among
    inserts, same-cell writes, and forged signatures."""
    rng = random.Random(seed)
    batches = []
    for b in range(num_batches):
        batch = []
        for i in range(batch_size):
            kp = KEYPAIRS[rng.randrange(len(KEYPAIRS))]
            roll = rng.random()
            if roll < 0.08:
                schema = TableSchema.create(
                    f"extra{b}_{i}", [("k", "string"), ("v", "decimal")]
                )
                tx = schema_sync_transaction(
                    schema, ts=rng.randrange(1, 500), keypair=kp
                )
            elif roll < 0.55:
                # 3 donors over 14 txs: plenty of same-cell writes
                tx = Transaction.create(
                    "donate",
                    (f"d{rng.randrange(3)}", "edu",
                     float(rng.randrange(1, 100))),
                    ts=rng.randrange(1, 500), keypair=kp,
                )
            else:
                tx = Transaction.create(
                    "transfer",
                    (f"p{rng.randrange(3)}", f"d{rng.randrange(3)}",
                     "org1", float(rng.randrange(1, 100))),
                    ts=rng.randrange(1, 500), keypair=kp,
                )
            if rng.random() < 0.15:
                # forged: right structure, wrong signer
                tx = dataclasses.replace(
                    tx, sig=FORGER.sign(tx.signing_payload())
                )
            batch.append(tx)
        batches.append(batch)
    return batches


def _chain_bytes(node):
    return [
        node.store.read_block(h).to_bytes() for h in range(node.store.height)
    ]


class TestLiveRebuildAdopt:
    """The three ways a node reaches chain state agree with each other and
    with what the submitted transactions say, checked one at a time."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_three_routes_reach_the_same_state(self, seed, tmp_path):
        batches = make_batches(seed)
        genesis = make_genesis(0, [DONATE, TRANSFER])
        live = FullNode("live", config=durable_config(tmp_path),
                        verify_signatures=True, genesis=genesis)
        for batch in batches:
            live.apply_batch(batch)

        # the oracle: each submitted transaction verified on its own
        verdicts = [
            (tx, tx.verify_signature()) for batch in batches for tx in batch
        ]
        forged = [tx for tx, ok in verdicts if not ok]
        assert forged
        assert live.rejected_transactions == forged
        assert live.ledger.next_tid == (
            len(genesis.transactions) + len(verdicts) - len(forged)
        )
        created = [
            schema_from_sync_transaction(tx).name for tx, ok in verdicts
            if ok and tx.tname == SCHEMA_TNAME
        ]
        assert created
        assert live.catalog.table_names == sorted(
            ["donate", "transfer"] + created
        )
        on_chain = [
            schema_from_sync_transaction(tx).name
            for height in range(1, live.store.height)
            for tx in live.store.read_block(height).transactions
            if tx.tname == SCHEMA_TNAME
        ]
        assert on_chain == created  # each exactly once, a forged one never

        # (a) a fresh process on the same data dir rebuilds from the store
        rebuilt = FullNode("live", config=durable_config(tmp_path),
                           verify_signatures=True)
        # (b) a follower adopts the chain block by block
        follower = FullNode("follower", verify_signatures=True,
                            genesis=genesis)
        follower.sync_from(live)
        for node in (rebuilt, follower):
            assert _chain_bytes(node) == _chain_bytes(live)
            assert node.catalog.table_names == live.catalog.table_names
            assert node.ledger.next_tid == live.ledger.next_tid
            for table in ("donate", "transfer"):
                assert (node.query(f"SELECT * FROM {table}").rows
                        == live.query(f"SELECT * FROM {table}").rows)
            node.close()
        live.close()


class TestOneEncodingPerTransaction:
    """The wire bytes travel with the transaction: PBFT's request and batch
    digests, the Merkle leaves, the segment appends and the ALI leaf
    digests of every replica reuse one encoding."""

    def test_four_pbft_nodes_encode_each_transaction_once(self, tmp_path,
                                                          monkeypatch):
        bus = MessageBus(seed=5)
        engine = PBFTCluster(bus, n=4, batch_txs=10)
        genesis = make_genesis(0, [DONATE, TRANSFER])
        nodes = [
            FullNode(f"node-{i}", config=durable_config(tmp_path / f"node-{i}"),
                     consensus=engine, clock=bus.clock, genesis=genesis)
            for i in range(4)
        ]
        for node in nodes:
            node.create_index("senid", authenticated=True)
            node.create_index("amount", table="donate", authenticated=True)
        count = 60
        txs = [
            Transaction.create("donate", (f"d{i % 7}", "edu", float(i)),
                               ts=i + 1, sender=f"org{i % 3}")
            for i in range(count)
        ]
        encoded = []
        encode = transaction_module._encode

        def counting_encode(tx):
            encoded.append(tx)
            return encode(tx)

        monkeypatch.setattr(transaction_module, "_encode", counting_encode)
        acks = []
        for tx in txs:
            nodes[0].submit_transaction(tx, acks.append)
        bus.run_until_idle()
        engine.flush()
        bus.run_until_idle()
        assert len(acks) == count
        for node in nodes:
            assert node.store.tip_hash == nodes[0].store.tip_hash
            assert sum(node.store.transactions_in_block(h)
                       for h in range(1, node.store.height)) == count
        assert len(encoded) <= count

    def test_three_kafka_nodes_encode_each_transaction_once(self, tmp_path,
                                                             monkeypatch):
        # nothing digests a Kafka submission, so the ledger's sequence stage
        # encodes it; the three replicas share the delivered batch objects
        bus = MessageBus(seed=5)
        engine = KafkaOrderer(bus, batch_txs=10)
        genesis = make_genesis(0, [DONATE, TRANSFER])
        nodes = [
            FullNode(f"node-{i}", config=durable_config(tmp_path / f"node-{i}"),
                     consensus=engine, clock=bus.clock, genesis=genesis)
            for i in range(3)
        ]
        for node in nodes:
            node.create_index("senid", authenticated=True)
            node.create_index("tname", authenticated=True)
            node.create_index("amount", table="donate", authenticated=True)
        count = 60
        txs = [
            Transaction.create("donate", (f"d{i % 7}", "edu", float(i)),
                               ts=i + 1, sender=f"org{i % 3}")
            for i in range(count)
        ]
        encoded = []
        encode = transaction_module._encode

        def counting_encode(tx):
            encoded.append(tx)
            return encode(tx)

        monkeypatch.setattr(transaction_module, "_encode", counting_encode)
        acks = []
        for tx in txs:
            nodes[0].submit_transaction(tx, acks.append)
        bus.run_until_idle()
        engine.flush()
        bus.run_until_idle()
        assert len(acks) == count
        for node in nodes:
            assert node.store.tip_hash == nodes[0].store.tip_hash
            assert sum(node.store.transactions_in_block(h)
                       for h in range(1, node.store.height)) == count
        assert len(encoded) <= count
