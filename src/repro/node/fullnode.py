"""The SEBDB full node.

A full node owns: the block store and its caches, the index manager (block
/ table / layered indexes), the on-chain catalog, an optional off-chain
RDBMS, the query engine, and a connection to the pluggable consensus
engine.  Writes (CREATE / INSERT) are turned into transactions and
submitted for ordering; every committed batch is deterministically turned
into a block - identical ordering therefore yields identical chains on
every node.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

from ..common.clock import Clock
from ..common.config import SebdbConfig
from ..common.errors import StorageError
from ..common.hashing import merkle_root
from ..consensus.base import Checkpoint, ConsensusEngine, ReplyCallback
from ..crypto.keys import KeyPair
from ..index.manager import ChainBackfill, IndexManager
from ..ledger import CRASH_TORN, CheckpointRecord, CommitLog, LedgerPipeline
from ..mht.mbtree import ali_tree_factory
from ..model.block import Block
from ..model.catalog import Catalog
from ..model.genesis import make_genesis
from ..model.transaction import Transaction
from ..offchain.adapter import OffChainDatabase
from ..query.engine import MethodArg, QueryEngine
from ..query.result import QueryResult
from ..sqlparser import nodes
from ..storage.blockstore import BlockStore
from .access import AccessController
from .base import SqlNode


class FullNode(SqlNode):
    """One heavy SEBDB participant (stores everything, runs consensus)."""

    def __init__(
        self,
        node_id: str,
        config: Optional[SebdbConfig] = None,
        consensus: Optional[ConsensusEngine] = None,
        clock: Optional[Clock] = None,
        keypair: Optional[KeyPair] = None,
        offchain: Optional[OffChainDatabase] = None,
        verify_signatures: bool = False,
        genesis: Optional[Block] = None,
        access: Optional[AccessController] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config or SebdbConfig.in_memory()
        self.clock = clock or Clock()
        self.keypair = keypair or KeyPair.from_seed(node_id)
        #: the write-ahead commit log shares the chain's data directory
        self.commit_log = CommitLog(self.config.data_dir)
        # the segment parse decodes each stored record once and hands the
        # blocks to the backfill
        backfill = ChainBackfill(self.config.bptree_order)
        # a persisted engine checkpoint lets segment recovery skip the
        # Merkle recomputation over the quorum-certified prefix
        self.store = BlockStore(
            self.config, trusted_checkpoint=self.commit_log.trusted_anchor(),
            recovered=backfill,
        )
        self.catalog = Catalog()
        #: the one write path: every block this node commits, adopts or
        #: bootstraps goes through the staged ledger pipeline
        self.ledger = LedgerPipeline(
            self.store,
            self.catalog,
            self.clock,
            commit_log=self.commit_log,
            verify_signatures=verify_signatures,
        )
        # resolve a commit record torn by a crash mid-append BEFORE the
        # indexes take the backfill, so they never observe an uncommitted
        # block: resolve_wal either commits the parsed block as it is or
        # cuts bytes the parse never admitted
        self.ledger.resolve_wal()
        self.indexes = IndexManager(
            self.store,
            order=self.config.bptree_order,
            histogram_depth=self.config.histogram_depth,
            backfill=backfill,
        )
        self.offchain = offchain
        self.access = access
        self.engine = QueryEngine(self.store, self.indexes, self.catalog, offchain)
        self._consensus = consensus
        #: True between :meth:`crash` and :meth:`restart`
        self.crashed = False
        #: diagnostics of the most recent :meth:`restart`
        self.last_recovery: dict[str, Any] = {}
        if self.store.height > 0:
            # the store recovered an existing chain from its segment files:
            # rebuild the catalog and the tid counter instead of re-creating
            # a genesis block
            self.ledger.rebuild_from_store(
                backfill.schema_transactions, backfill.next_tid)
        else:
            if genesis is None:
                genesis = make_genesis(timestamp=int(self.clock.now_ms()))
            self.ledger.bootstrap(genesis)
        if consensus is not None:
            consensus.register_replica(node_id, self.apply_batch)
            consensus.register_checkpoint_listener(
                node_id, self._on_engine_checkpoint
            )

    @property
    def verify_signatures(self) -> bool:
        return self.ledger.verify_signatures

    @verify_signatures.setter
    def verify_signatures(self, value: bool) -> None:
        self.ledger.verify_signatures = value

    # -- write path -----------------------------------------------------------

    def submit_transaction(
        self, tx: Transaction, on_reply: Optional[ReplyCallback] = None
    ) -> None:
        """Send a transaction into consensus (or apply directly standalone)."""
        if self.access is not None:
            self.access.check_write(tx.senid, tx.tname)
        if self._consensus is not None:
            self._consensus.submit(tx, on_reply)
        else:
            self.apply_batch([tx])
            if on_reply is not None:
                on_reply(self.clock.now_ms())

    # -- consensus callback ------------------------------------------------------

    def apply_batch(self, batch: Sequence[Transaction]) -> Optional[Block]:
        """Deterministically turn a committed batch into the next block."""
        return self.ledger.commit_batch(batch)

    @property
    def rejected_transactions(self) -> list[Transaction]:
        """Transactions dropped for invalid signatures."""
        return self.ledger.rejected

    def add_block_listener(self, listener: Callable[[Block], None]) -> None:
        """Observe every block this node packages (gossip announce hook)."""
        self.ledger.add_block_listener(listener)

    def close(self) -> None:
        """End-of-life hook; callers end a node's life through it.

        Releases the block store's held segment read descriptors; the
        node owns no thread or pool, and its commit log is opened per
        call.
        """
        self.store.close()

    # -- engine checkpoints -----------------------------------------------------

    def _on_engine_checkpoint(self, checkpoint: Checkpoint) -> None:
        """The engine certified an ordered prefix: pin our chain position.

        Every registered node applied the same delivered batches when the
        quorum formed, so (height, tip_hash) is identical across live
        nodes.  The ledger writes the certificate (seq, digest, votes)
        plus our chain position through the commit log, making it a
        durable restart point: segment recovery skips Merkle work below
        it, and a PBFT replica that lost its process state reseeds its
        protocol state from it.
        """
        self.ledger.record_checkpoint(
            checkpoint.seq, checkpoint.digest, checkpoint.votes
        )

    @property
    def chain_checkpoints(self) -> list[tuple[int, bytes]]:
        """Durable (height, tip_hash) anchors, oldest first."""
        return self.ledger.chain_checkpoints

    @property
    def persisted_engine_checkpoint(self) -> Optional[CheckpointRecord]:
        """The newest consensus checkpoint the commit log persisted."""
        return self.ledger.latest_engine_checkpoint

    # -- crash / restart -------------------------------------------------------

    def crash(self) -> None:
        """Crash-stop: detach from consensus, stop applying batches.

        The block store (our simulated durable segment files) survives;
        everything delivered while down is missed and must be recovered
        on :meth:`restart`.
        """
        if self.crashed:
            return
        self.crashed = True
        if self._consensus is not None:
            self._consensus.unregister_replica(self.node_id)
            self._consensus.unregister_checkpoint_listener(self.node_id)

    def crash_during_next_persist(self, mode: str = CRASH_TORN) -> None:
        """Fault hook: crash-stop inside the next persist stage.

        Arms the ledger's one-shot persist crash (``torn`` leaves half a
        block in the segment, ``after-append`` a complete block without
        its commit record) with :meth:`crash` as the crash point, so the
        node drops out of consensus exactly as the power cut hits.
        """
        self.ledger.crash_next_persist(mode, on_crash=self.crash)

    def restart(self, peers: Sequence["FullNode"] = ()) -> int:
        """Recover from a crash and rejoin consensus.

        Recovery order matters: first re-verify the durable chain from
        the newest recorded checkpoint (hash chaining + Merkle roots over
        the unverified suffix only), then catch up on blocks missed while
        down by pulling from live peers (the anti-entropy path), and only
        then re-register with consensus so the next delivered batch
        builds on a complete chain.  Returns the number of blocks
        adopted.
        """
        if not self.crashed:
            return 0
        # first resolve a commit record the crash may have left pending
        # (replay a complete append / truncate a torn one), then verify
        wal = self.ledger.resolve_wal()
        verified = self.verify_local_chain()
        adopted = 0
        for peer in peers:
            if peer.crashed:
                continue
            adopted += self.sync_from(peer)
        self.crashed = False
        if self._consensus is not None:
            self._consensus.register_replica(self.node_id, self.apply_batch)
            self._consensus.register_checkpoint_listener(
                self.node_id, self._on_engine_checkpoint
            )
        self.last_recovery = {
            "verified": verified,
            "adopted": adopted,
            "from_checkpoint": verified < self.store.height - adopted,
            "wal_replayed": wal["wal_replayed"],
            "wal_discarded": wal["wal_discarded"],
        }
        return adopted

    def verify_local_chain(self, full: bool = False) -> int:
        """Integrity check over the local chain (crash recovery).

        Re-verifies hash chaining and every block's transaction Merkle
        root, raising :class:`StorageError` on the first inconsistency.
        When a durable chain checkpoint is recorded (and ``full`` is not
        forced), verification starts at the newest checkpoint at or
        below the current height instead of at genesis - the certified
        prefix was already quorum-checked when the checkpoint formed.
        Falls back to a full scan when the checkpointed block no longer
        matches (a corrupted store must never hide behind a checkpoint).
        Returns the number of blocks verified.
        """
        start = 0
        if not full:
            for height, tip_hash in reversed(self.ledger.chain_checkpoints):
                if height > self.store.height or height < 1:
                    continue
                anchor = self.store.read_block(height - 1)
                if anchor.block_hash() == tip_hash:
                    start = height - 1
                break
        prev_hash: Optional[bytes] = None
        count = 0
        for height in range(start, self.store.height):
            # the stored records are what the root commits to: hash them
            # as they are, without decoding a transaction
            header, records = self.store.read_records(height)
            if prev_hash is not None and header.prev_hash != prev_hash:
                raise StorageError(
                    f"chain broken at height {header.height}: "
                    f"prev_hash does not match our block "
                    f"{header.height - 1}"
                )
            if merkle_root(records) != header.trans_root:
                raise StorageError(
                    f"block {header.height} has a corrupt "
                    f"transaction root"
                )
            if height > 0:
                prev_ts = self.store.header(height - 1).timestamp
                if header.timestamp < prev_ts:
                    raise StorageError(
                        f"block {header.height} timestamp regresses "
                        f"below its parent's"
                    )
            prev_hash = header.block_hash()
            count += 1
        return count

    # -- catch-up (data recovery over gossip/anti-entropy) ---------------------

    def accept_block(self, block: Block) -> None:
        """Adopt a block produced elsewhere (catch-up path).

        Runs the ledger pipeline's adoption path: validate (height, hash
        chaining, transaction Merkle root), persist, apply.  Used by
        :meth:`sync_from` and by gossip-driven block propagation.
        """
        self.ledger.adopt_block(block)

    def adopt_certified_anchor(
        self, record: dict[str, Any], quorum: int
    ) -> bool:
        """Trust a bulk-transfer anchor backed by a consensus certificate.

        ``record`` is a ``{"height", "tip_hash", "votes"}`` mapping -
        e.g. a peer's persisted engine checkpoint (see
        :attr:`persisted_engine_checkpoint`) relayed during gossip-backed
        state transfer.  The vote set must carry at least ``quorum``
        distinct members; on success the certified chain position is
        pinned in the ledger pipeline, so every gossip-fetched block
        adopted at the anchored height is verified against the certified
        hash before it can extend the chain.  Returns True when the
        anchor was installed, False when we are already caught up.
        """
        height = record.get("height")
        tip_hash = record.get("tip_hash")
        if not isinstance(height, int) or height < 1:
            raise StorageError("anchor certificate carries no usable height")
        if not isinstance(tip_hash, bytes):
            raise StorageError("anchor certificate carries no tip hash")
        voters = {
            voter for voter in record.get("votes", ())
            if isinstance(voter, str)
        }
        if len(voters) < quorum:
            raise StorageError(
                f"anchor certificate carries {len(voters)} distinct "
                f"vote(s), quorum is {quorum}"
            )
        if height <= self.store.height:
            return False  # already at or past the certified position
        # chain_checkpoints record (height, tip_hash) with tip_hash the
        # hash of the block at height-1
        self.ledger.add_adoption_anchor(height - 1, tip_hash)
        return True

    def sync_from(self, peer: "FullNode") -> int:
        """Pull and verify every block we are missing from ``peer``.

        Returns the number of blocks adopted.  A peer serving a forked or
        tampered chain is rejected at the first bad block (the local chain
        stays intact).
        """
        adopted = 0
        while self.store.height < peer.store.height:
            block = peer.store.read_block(self.store.height)
            self.accept_block(block)
            adopted += 1
        return adopted

    # -- read path ------------------------------------------------------------------

    def query(
        self,
        sql: Union[str, nodes.Statement],
        params: tuple[Any, ...] = (),
        method: MethodArg = None,
        channel_member: Optional[str] = None,
    ) -> QueryResult:
        """Execute a read statement against local state."""
        if channel_member is not None:
            # the check reads the bound statement: a TRACE's table can
            # be a parameter
            self._read_statement(sql, params, channel_member)
        return self.engine.execute(sql, params, method=method)

    # -- index administration ------------------------------------------------------------

    def create_index(
        self,
        column: str,
        table: Optional[str] = None,
        authenticated: bool = False,
    ):
        """Create a layered index (ALI when ``authenticated``)."""
        schema = self.catalog.get(table) if table else None
        return self.indexes.create_layered_index(
            column, table=table, schema=schema,
            tree_factory=(ali_tree_factory(self.config.bptree_order)
                          if authenticated else None))

    def refresh_statistics(self) -> dict[str, int]:
        """Re-sample histograms for every continuous layered index.

        Exposed in the CLI as ``\\analyze``.  Returns column -> sample
        size for each refreshed index.
        """
        return self.indexes.refresh_statistics()

