"""The staged write path: one commit pipeline for every block.

SEBDB's ordering/execution split (the ABCI-style application layer the
paper's plug-in consensus implies): consensus totally orders batches,
and this pipeline - alone - turns ordered input into chain state.  The
lifecycle runs as six explicit, instrumented stages:

1. **validate**  - signature checks, fronted by a verified-signature LRU
   so retried/replayed transactions are not re-verified;
2. **sequence**  - global tid assignment (deterministic across replicas);
3. **package**   - deterministic block sealing (Merkle root, chaining);
4. **persist**   - write-ahead commit record + segment append, so a
   crash mid-append replays or discards deterministically on restart;
5. **apply**     - catalog, indexes and MHTs observe the new block;
6. **notify**    - block listeners (gossip announcers) hear about it.

Every producer of blocks drives this one pipeline: consensus deliveries
through :meth:`commit_batch`, catch-up/gossip adoption through
:meth:`adopt_block`.  ``store.append_block`` outside this package is a
layering violation the ``commit-path`` analysis rule rejects.
"""

from __future__ import annotations

import collections
from typing import Callable, Iterable, List, Optional, Sequence

from ..common.clock import Clock
from ..common.errors import ConfigError, LedgerError, StorageError
from ..common.lru import LRUCache
from ..crypto.batch import verify_batch
from ..crypto.group import Point
from ..crypto.keys import address_of
from ..model.block import Block
from ..model.catalog import Catalog
from ..model.transaction import Transaction
from ..storage.blockstore import BlockStore, serialize_block
from ..storage.segment import BlockLocation
from .commitlog import CheckpointRecord, CommitLog
from .stats import LedgerStats

#: fault modes :meth:`LedgerPipeline.crash_next_persist` accepts
CRASH_TORN = "torn"
CRASH_AFTER_APPEND = "after-append"

#: packager identity sealed into locally built blocks (see commit_batch)
_PACKAGER = "consensus"
#: capacity of the verified-signature LRU, in transactions
_SIG_CACHE_ENTRIES = 4096
#: capacity of the decompressed-public-key LRU, in keys (a consortium
#: chain has few senders; a miss costs one modular square root)
_KEY_CACHE_ENTRIES = 1024


class LedgerPipeline:
    """Owns the block lifecycle from ordered batch to notified listeners."""

    def __init__(
        self,
        store: BlockStore,
        catalog: Catalog,
        clock: Clock,
        commit_log: Optional[CommitLog] = None,
        verify_signatures: bool = False,
        rejected_cap: int = 256,
    ) -> None:
        if rejected_cap < 1:
            raise ConfigError(
                f"rejected-transaction cap must be >= 1, got {rejected_cap}"
            )
        self._store = store
        self._catalog = catalog
        self._clock = clock
        self.log = commit_log if commit_log is not None else CommitLog(None)
        self.verify_signatures = verify_signatures
        self.stats = LedgerStats()
        self._next_tid = 0
        #: most recent rejections only - a peer spraying garbage must not
        #: grow node memory without bound (drops are counted in stats)
        self._rejected: collections.deque[Transaction] = collections.deque(
            maxlen=rejected_cap
        )
        self._block_listeners: list[Callable[[Block], None]] = []
        #: positive signature verifications, keyed by transaction hash
        self._sig_cache: LRUCache[bytes, bool] = LRUCache(
            _SIG_CACHE_ENTRIES, size_of=lambda _: 1
        )
        #: decompressed public keys by exact encoding, shared by every
        #: verify_batch call; a pure function of the bytes, so it never
        #: changes a verdict
        self._key_cache: LRUCache[bytes, Point] = LRUCache(_KEY_CACHE_ENTRIES)
        #: store height through which apply has run on THIS pipeline object
        #: (0 until bootstrap/rebuild; lets WAL replay tell an in-process
        #: restart apart from a fresh process that rebuilds afterwards)
        self._applied_height = 0
        self._crash_persist: Optional[tuple[str, Optional[Callable[[], None]]]] = None
        #: height -> certified block hash; bulk-transferred blocks adopted
        #: at an anchored height must hash to exactly this value
        self._anchors: dict[int, bytes] = {}

    # -- lifecycle ---------------------------------------------------------

    def bootstrap(self, genesis: Block) -> None:
        """Commit the genesis block through persist + apply (fresh chain)."""
        location = self._persist_block(genesis)
        if location is None:
            return
        self._apply_block(genesis, location)
        self._next_tid = len(genesis.transactions)

    def rebuild_from_store(
        self, schema_transactions: Iterable[Transaction], next_tid: int
    ) -> None:
        """Re-derive catalog and tid counter from a recovered chain.

        Both come from the blocks the store's segment parse decoded (a
        :class:`~repro.index.manager.ChainBackfill` gathers them while it
        builds the indexes), so nothing is read or decoded again:
        ``schema_transactions`` are the chain's schema transactions in
        order, ``next_tid`` one past its last tid.  The recovery reads do
        not count against the cost model.
        """
        self._catalog.apply_transactions(schema_transactions)
        self._next_tid = max(self._next_tid, next_tid)
        self._applied_height = self._store.height
        self._store.cost.reset()

    def resolve_wal(self) -> dict:
        """Resolve a pending commit record left by a crash mid-persist.

        A ``BEGIN`` without its ``COMMIT`` is resolved exactly one of two
        ways: *replay* when the store recovered the block completely (the
        append finished, only the commit mark is missing), or *discard*
        when it did not (the torn tail past the last complete block is
        truncated and the record aborted).  Idempotent when the log is
        clean.
        """
        report = {"wal_replayed": 0, "wal_discarded": 0, "torn_bytes": 0}
        pending = self.log.pending()
        if pending is None:
            return report
        if self._store.height > pending.height:
            if (self._store.header(pending.height).block_hash()
                    != pending.block_hash):
                raise LedgerError(
                    f"pending commit record at height {pending.height} does "
                    f"not match the recovered block"
                )
            self.log.commit(pending.height)
            self.stats.wal_replayed += 1
            report["wal_replayed"] = 1
            # an in-process restart replays the apply/notify the crash cut
            # short; a fresh process has applied nothing yet and rebuilds
            # from the store right after this resolves
            while 0 < self._applied_height < self._store.height:
                height = self._applied_height
                self._apply_block(
                    self._store.read_block(height),
                    self._store.location(height),
                )
        else:
            removed = self._store.discard_torn_tail()
            self.log.abort(pending.height)
            self.stats.wal_discarded += 1
            report["wal_discarded"] = 1
            report["torn_bytes"] = removed
        return report

    # -- the commit path ---------------------------------------------------

    def commit_batch(self, batch: Sequence[Transaction]) -> Optional[Block]:
        """Deterministically turn a consensus-ordered batch into a block."""
        accepted: list[Transaction] = []
        with self.stats.timed("validate", len(batch)):
            if self.verify_signatures:
                flags = self._verify_signatures(list(batch))
            else:
                flags = [True] * len(batch)
            for tx, ok in zip(batch, flags):
                if not ok:
                    self._reject(tx)
                    continue
                accepted.append(tx)
        if not accepted:
            return None
        with self.stats.timed("sequence", len(accepted)):
            sequenced = []
            for tx in accepted:
                # an unsequenced transaction keeps its first encoding and
                # every replica is handed the same batch objects, so all
                # their sequenced copies inherit one encode
                if not tx.is_sequenced:
                    tx.to_bytes()
                sequenced.append(tx.with_tid(self._next_tid))
                self._next_tid += 1
        with self.stats.timed("package", len(sequenced)):
            # clamp to the parent header so block timestamps never regress
            # across heights, whatever a replica's clock or a stale client
            # timestamp claims (verify_local_chain rejects regressions)
            prev_ts = (
                self._store.header(self._store.height - 1).timestamp
                if self._store.height
                else 0
            )
            timestamp = max(
                int(self._clock.now_ms()),
                max(tx.ts for tx in sequenced),
                prev_ts,
            )
            # the block must be byte-identical on every replica, so it
            # carries no per-node identity: authenticity comes from
            # consensus itself
            block = Block.package(
                prev_hash=self._store.tip_hash or b"\x00" * 32,
                height=self._store.height,
                timestamp=timestamp,
                transactions=sequenced,
                packager=_PACKAGER,
            )
        location = self._persist_block(block)
        if location is None:
            return None  # simulated crash consumed the persist stage
        self._apply_block(block, location)
        with self.stats.timed("notify"):
            for listener in self._block_listeners:
                listener(block)
        self.stats.blocks_committed += 1
        self.stats.txs_committed += len(sequenced)
        return block

    def adopt_block(self, block: Block) -> None:
        """Adopt a block produced elsewhere (sync / gossip catch-up).

        Same persist and apply stages as a local commit; validate checks
        chaining and the Merkle root instead of re-sequencing, and the
        notify stage is skipped (an adopted block is never re-announced).
        The root covers each transaction's bytes while apply reads its
        fields, so a peer's transaction whose fields no longer encode to
        its bytes is rejected first.
        """
        with self.stats.timed("validate", len(block.transactions)):
            if block.header.height != self._store.height:
                raise StorageError(
                    f"cannot accept block {block.header.height} at height "
                    f"{self._store.height}"
                )
            if (self._store.tip_hash is not None
                    and block.header.prev_hash != self._store.tip_hash):
                raise StorageError(
                    f"block {block.header.height} does not chain to our tip"
                )
            if not all(tx.wire_matches_fields() for tx in block.transactions):
                raise StorageError(
                    f"block {block.header.height} carries a transaction "
                    f"whose fields disagree with its bytes"
                )
            if not block.verify_trans_root():
                raise StorageError(
                    f"block {block.header.height} has a corrupt transaction root"
                )
            if self._store.height:
                prev_ts = self._store.header(self._store.height - 1).timestamp
                if block.header.timestamp < prev_ts:
                    raise StorageError(
                        f"block {block.header.height} timestamp "
                        f"{block.header.timestamp} regresses below its "
                        f"parent's {prev_ts}"
                    )
            anchor = self._anchors.get(block.header.height)
            if anchor is not None:
                self.stats.anchor_checks += 1
                if block.header.block_hash() != anchor:
                    raise StorageError(
                        f"block {block.header.height} does not match the "
                        f"certified adoption anchor"
                    )
            if self.verify_signatures:
                signed = [tx for tx in block.transactions if tx.sig]
                if signed and not all(self._verify_signatures(signed)):
                    raise StorageError(
                        f"block {block.header.height} carries a "
                        f"transaction with an invalid signature"
                    )
        location = self._persist_block(block)
        if location is None:
            return
        self._apply_block(block, location)
        self.stats.blocks_adopted += 1

    # -- stages ------------------------------------------------------------

    def _reject(self, tx: Transaction) -> None:
        if len(self._rejected) == self._rejected.maxlen:
            self.stats.rejected_dropped += 1
        self._rejected.append(tx)
        self.stats.txs_rejected += 1

    def _verify_signatures(self, txs: Sequence[Transaction]) -> List[bool]:
        """Validate-stage signature check for a whole batch.

        Cache-aware (the verified-signature LRU answers with the *stored*
        verdict, never a blanket yes), deduplicated within the batch, and
        batched: cache misses always go through the aggregate Schnorr
        check (:func:`repro.crypto.batch.verify_batch`), one call per
        batch.  The result is aligned with ``txs`` and agrees exactly with
        calling ``tx.verify_signature()`` on each transaction.
        """
        results: list[Optional[bool]] = [None] * len(txs)
        keys = [tx.hash() for tx in txs]
        #: tx hash -> index of the first occurrence still being verified
        pending_by_key: dict[bytes, int] = {}
        #: (duplicate index, first-occurrence index) to patch at the end
        duplicates: list[tuple[int, int]] = []
        pending: list[int] = []
        for index, tx in enumerate(txs):
            first = pending_by_key.get(keys[index])
            if first is not None:
                self.stats.sig_cache_hits += 1
                duplicates.append((index, first))
                continue
            cached = self._sig_cache.get(keys[index])
            if cached is not None:
                self.stats.sig_cache_hits += 1
                results[index] = cached
                continue
            self.stats.sig_checks += 1
            # structural screening mirrors Transaction.verify_signature
            if (not tx.sig or not tx.pubkey
                    or address_of(tx.pubkey) != tx.senid):
                results[index] = False
                continue
            pending_by_key[keys[index]] = index
            pending.append(index)
        if pending:
            flags = self._batch_verify([txs[i] for i in pending])
            for index, ok in zip(pending, flags):
                results[index] = ok
                if ok:
                    self._sig_cache.put(keys[index], True)
        for index, first in duplicates:
            results[index] = results[first]
        return [bool(entry) for entry in results]

    def _batch_verify(self, txs: Sequence[Transaction]) -> List[bool]:
        """Aggregate-verify ``txs`` in one :func:`verify_batch` call."""
        outcome = verify_batch(
            [(tx.pubkey, tx.signing_payload(), tx.sig) for tx in txs],
            keys=self._key_cache,
        )
        self.stats.sig_aggregate_checks += outcome.aggregate_checks
        self.stats.sig_single_checks += outcome.single_checks
        return outcome.valid

    def _persist_block(self, block: Block) -> Optional[BlockLocation]:
        """Persist stage: intent record, segment append, commit record.

        The block is serialized once: the intent record takes its length,
        and the append (or a torn append's half) writes its bytes.
        """
        with self.stats.timed("persist", len(block.transactions)):
            serialized = serialize_block(block)
            data = serialized[0]
            self.log.begin(block.header.height, block.block_hash(), len(data))
            self.stats.wal_begun += 1
            if self._crash_persist is not None:
                mode, on_crash = self._crash_persist
                self._crash_persist = None
                if mode == CRASH_TORN:
                    self._store.simulate_torn_append(
                        data[: max(1, len(data) // 2)]
                    )
                else:
                    self._store.append_block(block, notify=False,
                                             serialized=serialized)
                if on_crash is not None:
                    on_crash()
                return None
            location = self._store.append_block(block, notify=False,
                                                serialized=serialized)
            self.log.commit(block.header.height)
            self.stats.wal_committed += 1
        return location

    def _apply_block(self, block: Block, location: BlockLocation) -> None:
        """Apply stage: catalog first, then the maintenance listeners.

        The only chain state a block changes beyond the store itself is
        the catalog (``__schema__`` transactions); it goes through
        :meth:`Catalog.apply_transactions`, the same call
        :meth:`rebuild_from_store` makes, so live apply and recovery
        share one route.
        """
        with self.stats.timed("apply", len(block.transactions)):
            self._catalog.apply_transactions(block.transactions)
            self._store.notify_append_listeners(block, location)
            if block.transactions:
                self._next_tid = max(self._next_tid, block.last_tid + 1)
        self._applied_height = block.header.height + 1

    # -- durable engine checkpoints ----------------------------------------

    def record_checkpoint(
        self, seq: int, digest: bytes, votes: Sequence[str]
    ) -> None:
        """Persist a consensus checkpoint pinned to our chain position."""
        if self._store.tip_hash is None:
            return
        self.log.record_checkpoint(
            seq, digest, tuple(votes), self._store.height, self._store.tip_hash
        )
        self.stats.checkpoints_recorded += 1

    @property
    def chain_checkpoints(self) -> list[tuple[int, bytes]]:
        """Durable (height, tip_hash) anchors, oldest first."""
        return [(c.height, c.tip_hash) for c in self.log.checkpoints()]

    def add_adoption_anchor(self, height: int, block_hash: bytes) -> None:
        """Pin the block hash a bulk transfer must produce at ``height``.

        Anchors come from quorum-certified manifests (PBFT bulk state
        transfer): a gossip-fetched block adopted at an anchored height
        is rejected with :class:`StorageError` unless its hash matches,
        so a corrupted or equivocated payload can never extend the chain
        past a certified prefix.
        """
        if height < 0:
            raise LedgerError(f"anchor height cannot be negative: {height}")
        if not isinstance(block_hash, bytes) or len(block_hash) != 32:
            raise LedgerError("anchor hash must be a 32-byte digest")
        known = self._anchors.get(height)
        if known is not None and known != block_hash:
            raise LedgerError(
                f"conflicting adoption anchor for height {height}"
            )
        if known is None:
            self._anchors[height] = block_hash
            self.stats.anchors_trusted += 1

    @property
    def latest_engine_checkpoint(self) -> Optional[CheckpointRecord]:
        return self.log.latest_checkpoint()

    # -- plumbing ----------------------------------------------------------

    @property
    def next_tid(self) -> int:
        return self._next_tid

    @property
    def rejected(self) -> list[Transaction]:
        return list(self._rejected)

    @property
    def sig_cache(self) -> LRUCache[bytes, bool]:
        return self._sig_cache

    def add_block_listener(self, listener: Callable[[Block], None]) -> None:
        self._block_listeners.append(listener)

    # -- fault injection ---------------------------------------------------

    def crash_next_persist(
        self, mode: str = CRASH_TORN,
        on_crash: Optional[Callable[[], None]] = None,
    ) -> None:
        """Arm a one-shot simulated crash inside the next persist stage.

        ``torn`` writes the intent record plus half the block's bytes (a
        power cut mid-``write``); ``after-append`` completes the segment
        append but never writes the commit record.  ``on_crash`` runs at
        the crash point (chaos harnesses pass ``node.crash``); the
        pipeline then reports the persist as consumed instead of raising,
        so consensus keeps delivering to the surviving replicas.
        """
        if mode not in (CRASH_TORN, CRASH_AFTER_APPEND):
            raise LedgerError(f"unknown persist crash mode {mode!r}")
        self._crash_persist = (mode, on_crash)
