"""ShardedNode: the FullNode surface over a partitioned ledger.

One chain serializes every write through a single orderer and one staged
pipeline; a :class:`ShardedNode` instead runs ``config.num_shards``
independent :class:`~repro.node.fullnode.FullNode` instances - each with
its own commit log, segment store (under ``data_dir/shard-NN``), ledger
pipeline and (optionally) orderer - and routes every transaction to its
home shard via :class:`~repro.shard.routing.ShardRouter`.

It keeps the FullNode surface so the CLI, clients, benches and the chaos
harness work unchanged: the SQL front (``create_table`` / ``insert`` /
``execute`` and the parse-bind-access-check of ``query``) is the one
:class:`~repro.node.base.SqlNode` both flavours inherit; what is written
here is what sharding changes - routing, 2PC, whole-node crash/restart.
Reads that touch one shard delegate to that shard's node; reads that
genuinely span shards compile to a fan-out plan under a
:class:`~repro.query.physical.ShardMerge`
(:mod:`repro.query.optimizer.sharded`; EXPLAIN shows the fan-out) and
run through the same ``run_plan`` / ``explain_plan`` a single engine
uses.  Multi-shard atomic writes go through the logged two-phase commit
in :mod:`repro.shard.twophase`; ``restart`` resolves any in-doubt
participants from the journals.

Determinism: all shards share one clock, one genesis block and the
node's keypair, and each shard's chain is a pure function of the batches
routed to it - so a one-shard ShardedNode commits byte-identical blocks
to an unsharded FullNode fed the same writes.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Sequence, Union

from ..common.clock import Clock
from ..common.config import SebdbConfig
from ..common.errors import QueryError, ShardError
from ..consensus.base import ConsensusEngine, ReplyCallback
from ..crypto.keys import KeyPair
from ..index.manager import IndexManager
from ..ledger import CRASH_TORN
from ..model.catalog import Catalog
from ..model.genesis import make_genesis
from ..model.transaction import SCHEMA_TNAME, Transaction
from ..node.access import AccessController
from ..node.base import SqlNode
from ..node.fullnode import FullNode
from ..query.engine import (
    MethodArg,
    QueryEngine,
    _resolve_method,
    explain_plan,
    run_plan,
)
from ..query.operators import extract_constraints
from ..query.optimizer import plan_sharded_select, plan_sharded_trace
from ..query.plan import AccessPath, PhysicalPlan, Planner
from ..query.result import QueryResult
from ..sqlparser import nodes
from ..storage.blockstore import BlockStore
from .routing import ShardRouter
from .twophase import CrashHook, resolve_in_doubt, run_cross_shard_commit

#: builds the consensus engine for one shard (or None for standalone)
ConsensusFactory = Callable[[int], Optional[ConsensusEngine]]


class ShardedNode(SqlNode):
    """N partitioned ledger pipelines behind one FullNode-shaped API."""

    def __init__(
        self,
        node_id: str,
        config: Optional[SebdbConfig] = None,
        clock: Optional[Clock] = None,
        keypair: Optional[KeyPair] = None,
        access: Optional[AccessController] = None,
        consensus_factory: Optional[ConsensusFactory] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config or SebdbConfig.in_memory()
        self.clock = clock or Clock()
        self.keypair = keypair or KeyPair.from_seed(node_id)
        self.access = access
        self.router = ShardRouter(
            self.config.num_shards, self.config.shard_placement
        )
        # one genesis for every shard: all chains share block 0, so a
        # one-shard deployment is byte-identical to a FullNode
        genesis = make_genesis(timestamp=int(self.clock.now_ms()))
        self.shards: dict[int, FullNode] = {}
        for sid in self.router.all_shards():
            shard_config = dataclasses.replace(
                self.config,
                data_dir=(
                    self.config.data_dir / f"shard-{sid:02d}"
                    if self.config.data_dir is not None else None
                ),
            )
            self.shards[sid] = FullNode(
                f"{node_id}/s{sid}",
                config=shard_config,
                consensus=(
                    consensus_factory(sid) if consensus_factory is not None
                    else None
                ),
                clock=self.clock,
                keypair=self.keypair,
                genesis=genesis,
                access=access,
            )
        #: True between :meth:`crash` and :meth:`restart`
        self.crashed = False
        #: diagnostics of the most recent :meth:`restart`
        self.last_recovery: dict[str, Any] = {}
        # one-shot 2PC crash hook armed by crash_during_next_atomic
        self._crash_atomic: Optional[CrashHook] = None

    # -- shard-0 views (catalog and schema state are replicated) -----------

    @property
    def catalog(self) -> Catalog:
        """The replicated catalog (every shard holds the same schemas)."""
        return self.shards[0].catalog

    @property
    def store(self) -> BlockStore:
        """Shard 0's block store (per-shard stores via :attr:`shards`)."""
        return self.shards[0].store

    @property
    def indexes(self) -> IndexManager:
        """Shard 0's index manager (per-shard managers via :attr:`shards`)."""
        return self.shards[0].indexes

    @property
    def engine(self) -> QueryEngine:
        """Shard 0's query engine (fan-out queries go through :meth:`query`)."""
        return self.shards[0].engine

    @property
    def verify_signatures(self) -> bool:
        return self.shards[0].verify_signatures

    @verify_signatures.setter
    def verify_signatures(self, value: bool) -> None:
        for sid in sorted(self.shards):
            self.shards[sid].verify_signatures = value

    @property
    def rejected_transactions(self) -> list[Transaction]:
        """Transactions any shard dropped for invalid signatures."""
        rejected: list[Transaction] = []
        for sid in sorted(self.shards):
            rejected.extend(self.shards[sid].rejected_transactions)
        return rejected

    # -- write path --------------------------------------------------------

    def submit_transaction(
        self, tx: Transaction, on_reply: Optional[ReplyCallback] = None
    ) -> None:
        """Route a transaction to its home shard (schemas broadcast)."""
        if tx.tname == SCHEMA_TNAME:
            # every shard's catalog must know every table; the reply hook
            # fires once, after the last shard committed
            last = max(self.shards)
            for sid in sorted(self.shards):
                self.shards[sid].submit_transaction(
                    tx, on_reply if sid == last else None
                )
            return
        sid = self.router.home_shard(tx)
        self.shards[sid].submit_transaction(tx, on_reply)

    def apply_batch(self, batch: Sequence[Transaction]) -> None:
        """Commit an ordered batch, split per home shard (order kept).

        Schema transactions within the batch broadcast to every shard.
        Cross-shard *atomicity* is :meth:`submit_atomic`'s job; this is
        the plain committed-batch path.
        """
        slices: dict[int, list[Transaction]] = {}
        for tx in batch:
            if tx.tname == SCHEMA_TNAME:
                for sid in sorted(self.shards):
                    slices.setdefault(sid, []).append(tx)
                continue
            slices.setdefault(self.router.home_shard(tx), []).append(tx)
        for sid in sorted(slices):
            self.shards[sid].apply_batch(slices[sid])

    def submit_atomic(self, txs: Sequence[Transaction]) -> Optional[bytes]:
        """Commit a multi-transaction write atomically across shards.

        A single-shard group commits as one ordinary block (no 2PC tax).
        A multi-shard group runs the logged two-phase commit; the return
        value is its xid, or ``None`` when it landed on one shard,
        aborted, or a simulated crash interrupted it (recovery then
        finishes the protocol from the journals on :meth:`restart`).
        """
        if not txs:
            raise ShardError("submit_atomic needs at least one transaction")
        slices: dict[int, list[Transaction]] = {}
        for tx in txs:
            if tx.tname == SCHEMA_TNAME:
                raise ShardError(
                    "schema transactions replicate everywhere - submit "
                    "them through create_table, not submit_atomic"
                )
            slices.setdefault(self.router.home_shard(tx), []).append(tx)
        groups = [(sid, slices[sid]) for sid in sorted(slices)]
        if len(groups) == 1:
            sid, group = groups[0]
            self.shards[sid].apply_batch(group)
            return None
        crash, self._crash_atomic = self._crash_atomic, None
        return run_cross_shard_commit(self.shards, groups, crash)

    # -- crash / restart ---------------------------------------------------

    def crash(self) -> None:
        """Crash-stop the whole node: every shard drops out at once."""
        if self.crashed:
            return
        self.crashed = True
        for sid in sorted(self.shards):
            self.shards[sid].crash()

    def crash_during_next_persist(self, mode: str = CRASH_TORN) -> None:
        """Arm a one-shot persist crash on shard 0, dropping the whole
        node (all shards) at the fault point."""
        self.shards[0].ledger.crash_next_persist(mode, on_crash=self.crash)

    def crash_during_next_atomic(self, point: str) -> None:
        """Arm a one-shot crash inside the next cross-shard 2PC.

        ``point`` is one of the :mod:`repro.shard.twophase` crash points
        (``after-prepare``, ``after-decision``, ``mid-outcome``); the
        whole node crash-stops when the protocol reaches it.
        """
        self._crash_atomic = (point, self.crash)

    def restart(self, peers: Sequence["ShardedNode"] = ()) -> int:
        """Recover every shard, then resolve in-doubt 2PC participants.

        Per-shard recovery (WAL resolution, chain verification, peer
        catch-up) runs first so the commit logs and chains are sound;
        the deterministic 2PC resolution pass then replays or aborts
        every interrupted cross-shard commit.  Returns the total number
        of blocks adopted from peers.
        """
        if not self.crashed:
            return 0
        adopted = 0
        for sid in sorted(self.shards):
            shard_peers = [
                peer.shards[sid] for peer in peers if not peer.crashed
            ]
            adopted += self.shards[sid].restart(shard_peers)
        report = resolve_in_doubt(self.shards)
        self.crashed = False
        self.last_recovery = {
            "adopted": adopted,
            "twophase": report,
            "per_shard": {
                sid: self.shards[sid].last_recovery
                for sid in sorted(self.shards)
            },
        }
        return adopted

    def refresh_statistics(self) -> dict[str, int]:
        """Rebuild every shard's layered-index histograms (CLI \\analyze)."""
        refreshed: dict[str, int] = {}
        for sid in sorted(self.shards):
            for column, samples in self.shards[sid].refresh_statistics().items():
                refreshed[column] = refreshed.get(column, 0) + samples
        return refreshed

    def verify_local_chain(self, full: bool = False) -> int:
        """Verify every shard's chain; returns total blocks verified."""
        return sum(
            self.shards[sid].verify_local_chain(full=full)
            for sid in sorted(self.shards)
        )

    def sync_from(self, peer: "ShardedNode") -> int:
        """Pull missing blocks shard-by-shard from a sharded peer."""
        return sum(
            self.shards[sid].sync_from(peer.shards[sid])
            for sid in sorted(self.shards)
        )

    def close(self) -> None:
        """End-of-life hook: ends every shard's, releasing its segment
        read descriptors."""
        for sid in sorted(self.shards):
            self.shards[sid].close()

    # -- read path ---------------------------------------------------------

    def query(
        self,
        sql: Union[str, nodes.Statement],
        params: tuple[Any, ...] = (),
        method: MethodArg = None,
        channel_member: Optional[str] = None,
    ) -> QueryResult:
        """Execute a read: single-shard statements delegate to the owning
        shard, genuinely multi-shard SELECT/TRACE fan out under a
        ShardMerge."""
        statement = self._read_statement(sql, params, channel_member)
        explain = isinstance(statement, nodes.Explain)
        target = self._route(
            statement.statement if explain else statement,
            _resolve_method(method),
        )
        if isinstance(target, int):
            # one shard owns the statement outright: delegate it whole
            return self.shards[target].query(sql, params, method=method)
        if explain:
            return explain_plan(target, statement.analyze)
        return run_plan(target)

    def create_index(self, column: str, table: Optional[str] = None,
                     authenticated: bool = False) -> dict[int, Any]:
        """Create a layered index on every shard that may hold ``table``
        (all shards when ``table`` is None); returns them per shard."""
        sids = (
            self.router.shards_for_table(table) if table is not None
            else self.router.all_shards()
        )
        return {
            sid: self.shards[sid].create_index(
                column, table=table, authenticated=authenticated
            )
            for sid in sids
        }

    # -- statement routing -------------------------------------------------

    def _route(
        self, statement: nodes.Statement, method: Optional[AccessPath]
    ) -> Union[int, PhysicalPlan]:
        """Where a read runs: the one shard that owns it, or the fan-out
        plan over the shards it spans."""
        if isinstance(statement, nodes.Select):
            sids = self._select_shards(statement)
            if sids is None or len(sids) == 1:
                return 0 if sids is None else sids[0]
            return plan_sharded_select(
                self._planners(sids), statement, method,
                unpruned=self._unpruned_planners(statement, sids),
            )
        if isinstance(statement, nodes.Trace):
            sids = self._trace_shards(statement)
            if len(sids) == 1:
                return sids[0]
            return plan_sharded_trace(self._planners(sids), statement, method)
        if isinstance(statement, nodes.GetBlock):
            if self.router.num_shards == 1:
                return 0
            raise QueryError(
                "GET BLOCK addresses one shard's chain - query "
                "node.shards[i] directly in a sharded deployment"
            )
        raise QueryError(
            f"unsupported statement {type(statement).__name__}"
        )

    def _planners(
        self, sids: Sequence[int]
    ) -> list[tuple[int, Planner]]:
        return [(sid, self.shards[sid].engine.planner) for sid in sids]

    def _unpruned_planners(
        self, stmt: nodes.Select, pruned: tuple[int, ...]
    ) -> Optional[list[tuple[int, Planner]]]:
        """The full shard set for the statement's table, when partition
        pruning narrowed it - the optimizer enumerates skipping the
        pruning as a costed alternative."""
        if len(stmt.tables) != 1 or stmt.tables[0].source != "onchain":
            return None
        all_sids = self.router.shards_for_table(stmt.tables[0].name)
        if set(all_sids) == set(pruned):
            return None
        return self._planners(all_sids)

    def _select_shards(
        self, stmt: nodes.Select
    ) -> Optional[tuple[int, ...]]:
        """Shards a SELECT must touch; ``None`` means "delegate to shard 0"
        (off-chain statements, which live on the shared adapter)."""
        onchain = [t for t in stmt.tables if t.source == "onchain"]
        if not onchain:
            return None
        if len(stmt.tables) == 1:
            table = onchain[0].name
            if table not in self.catalog:
                # let the owning shard raise its usual CatalogError
                return self.router.shards_for_table(table)
            if not self.router.is_range_partitioned(table):
                return self.router.shards_for_table(table)
            # prune range partitions on the leading-key predicate
            schema = self.catalog.get(table)
            lead = schema.app_columns[0].name
            constraint = extract_constraints(stmt.where).get(lead)
            if constraint is None:
                return self.router.shards_for_table(table)
            return self.router.shards_for_range(
                table, constraint.low, constraint.high
            )
        # join: fine when every referenced on-chain table lives on one
        # common shard, otherwise unsupported
        shard_sets = [
            set(self.router.shards_for_table(t.name)) for t in onchain
        ]
        union = set().union(*shard_sets)
        if len(union) == 1:
            return (next(iter(union)),)
        raise QueryError(
            "cross-shard joins are not supported - co-locate the joined "
            "tables with shard_placement or query the shards directly"
        )

    def _trace_shards(self, stmt: nodes.Trace) -> tuple[int, ...]:
        if stmt.operation:
            return self.router.shards_for_table(stmt.operation)
        return self.router.all_shards()
