"""The SEBDB network facade.

Assembles a full deployment in one object: a simulated message bus, a
pluggable consensus engine (``"kafka"``, ``"pbft"``, ``"tendermint"`` or
``None`` for a standalone node), N full nodes sharing a genesis block,
gossip block propagation metadata, and factories for thin clients.

This is the entry point the examples and the README quickstart use::

    net = SebdbNetwork.single_node()
    net.execute("CREATE donate (donor string, project string, amount decimal)")
    net.execute("INSERT INTO donate VALUES ('Jack', 'Education', 100.0)")
    net.commit()
    rows = net.execute("SELECT * FROM donate WHERE donor = 'Jack'")
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from ..common.config import SebdbConfig
from ..common.errors import ConfigError
from ..consensus.base import ConsensusEngine
from ..consensus.kafka import KafkaOrderer
from ..consensus.pbft import PBFTCluster
from ..consensus.tendermint import TendermintEngine
from ..crypto.keys import KeyPair
from ..model.genesis import make_genesis
from ..model.transaction import Transaction
from ..network.bus import MessageBus
from ..offchain.adapter import OffChainDatabase
from ..query.engine import MethodArg
from ..query.result import QueryResult
from ..sqlparser import nodes
from ..sqlparser.parser import parse, prepare
from .fullnode import FullNode


class SebdbNetwork:
    """A whole SEBDB deployment behind one convenience API."""

    def __init__(
        self,
        num_nodes: int = 4,
        consensus: Optional[str] = "kafka",
        config: Optional[SebdbConfig] = None,
        seed: int = 0,
        verify_signatures: bool = False,
        batch_txs: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        num_brokers: int = 1,
    ) -> None:
        if num_nodes < 1:
            raise ConfigError("need at least one node")
        self.config = config or SebdbConfig.in_memory()
        self.bus = MessageBus(seed=seed)
        batch = batch_txs if batch_txs is not None else self.config.block_size_txs
        timeout = timeout_ms if timeout_ms is not None else float(
            self.config.package_timeout_ms
        )
        self.consensus: Optional[ConsensusEngine]
        if consensus is None:
            self.consensus = None
        elif consensus == "kafka":
            self.consensus = KafkaOrderer(
                self.bus, batch_txs=batch, timeout_ms=timeout,
                num_brokers=num_brokers,
            )
        elif consensus == "pbft":
            self.consensus = PBFTCluster(
                self.bus, n=num_nodes, batch_txs=batch, timeout_ms=timeout
            )
        elif consensus == "tendermint":
            self.consensus = TendermintEngine(
                self.bus, n=num_nodes, batch_txs=batch, timeout_ms=timeout
            )
        else:
            raise ConfigError(
                f"unknown consensus {consensus!r}; use kafka, pbft, tendermint or None"
            )
        genesis = make_genesis(timestamp=0)
        self.nodes = [
            FullNode(
                f"node-{i}",
                config=self._node_config(f"node-{i}"),
                consensus=self.consensus,
                clock=self.bus.clock,
                keypair=KeyPair.from_seed(f"node-{i}-{seed}"),
                verify_signatures=verify_signatures,
                genesis=genesis,
            )
            for i in range(num_nodes)
        ]
        self._pending: list[Transaction] = []

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def single_node(
        cls,
        config: Optional[SebdbConfig] = None,
        **kwargs: Any,
    ) -> "SebdbNetwork":
        """One standalone node without consensus (fastest for examples)."""
        return cls(num_nodes=1, consensus=None, config=config, **kwargs)

    def node(self, index: int = 0) -> FullNode:
        return self.nodes[index]

    def _node_config(self, node_id: str) -> SebdbConfig:
        """The deployment config with a ``data_dir`` of the node's own.

        Every node keeps its own segment files and commit log, in
        ``data_dir / node_id``; an in-memory config is shared as is.
        """
        if self.config.data_dir is None:
            return self.config
        return dataclasses.replace(
            self.config, data_dir=self.config.data_dir / node_id
        )

    def attach_offchain(self, offchain: OffChainDatabase, index: int = 0) -> None:
        """Give one node a local off-chain RDBMS (its private data)."""
        node = self.nodes[index]
        node.offchain = offchain
        node.engine = type(node.engine)(
            node.store, node.indexes, node.catalog, offchain
        )

    # -- the SQL entry point -----------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: tuple[Any, ...] = (),
        method: MethodArg = None,
        keypair: Optional[KeyPair] = None,
        sender: Optional[str] = None,
        node: int = 0,
    ) -> Optional[QueryResult]:
        """Run one statement.  Writes are submitted (CREATE also commits so
        follow-up INSERTs validate); reads execute on ``node``."""
        if not isinstance(parse(sql), (nodes.CreateTable, nodes.Insert)):
            # a read binds its values where it is planned
            return self.nodes[node].query(sql, params, method=method)
        statement = prepare(sql, params)
        if isinstance(statement, nodes.CreateTable):
            self.nodes[node].create_table(sql, keypair=keypair)
            self.commit()
            return None
        assert isinstance(statement, nodes.Insert)
        if self.consensus is None:
            schema = self.nodes[node].catalog.get(statement.table)
            validated = schema.validate_app_values(statement.values)
            tx = Transaction.create(
                schema.name,
                validated,
                ts=int(self.bus.clock.now_ms()) + len(self._pending),
                keypair=keypair,
                sender=sender if keypair is None else None,
            )
            self._pending.append(tx)
        else:
            self.nodes[node].insert(
                statement.table, statement.values, keypair=keypair, sender=sender
            )
        return None

    def insert_many(
        self,
        table: str,
        rows: list[tuple[Any, ...]],
        senders: Optional[list[str]] = None,
        ts_list: Optional[list[int]] = None,
    ) -> None:
        """Bulk submission path used by the data generator."""
        node = self.nodes[0]
        schema = node.catalog.get(table)
        for i, row in enumerate(rows):
            validated = schema.validate_app_values(row)
            tx = Transaction.create(
                schema.name,
                validated,
                ts=ts_list[i] if ts_list else int(self.bus.clock.now_ms()) + i,
                sender=senders[i] if senders else "anonymous",
            )
            if self.consensus is None:
                self._pending.append(tx)
            else:
                self.consensus.submit(tx)

    def commit(self) -> None:
        """Drive consensus until every submitted transaction is on-chain."""
        if self.consensus is None:
            if self._pending:
                batch_size = self.config.block_size_txs
                pending, self._pending = self._pending, []
                for start in range(0, len(pending), batch_size):
                    self.nodes[0].apply_batch(pending[start : start + batch_size])
            self._sync_observers()
            return
        self.bus.run_until_idle()
        self.consensus.flush()
        self.bus.run_until_idle()
        self._sync_observers()

    # -- observers (read scale-out, no consensus seat) ---------------------------

    def add_observer(self, name: str = "observer") -> FullNode:
        """Attach a consensus-less follower node.

        Observers share the genesis block and catch up (chain-verified,
        block by block) on every :meth:`commit` - the facade-level
        equivalent of the gossip/anti-entropy path in
        :mod:`repro.node.observer`.
        """
        observer = FullNode(
            f"observer-{name}",
            config=self._node_config(f"observer-{name}"),
            clock=self.bus.clock,
            genesis=self.nodes[0].store.read_block(0),
        )
        if not hasattr(self, "_observers"):
            self._observers: list[FullNode] = []
        self._observers.append(observer)
        observer.sync_from(self.nodes[0])
        return observer

    @property
    def observers(self) -> list[FullNode]:
        return list(getattr(self, "_observers", []))

    def _sync_observers(self) -> None:
        for observer in getattr(self, "_observers", []):
            observer.sync_from(self.nodes[0])

    # -- invariants ------------------------------------------------------------------------

    def chains_consistent(self) -> bool:
        """True when every node holds byte-identical chains."""
        tips = {node.store.tip_hash for node in self.nodes}
        heights = {node.store.height for node in self.nodes}
        return len(tips) == 1 and len(heights) == 1

    def height(self) -> int:
        return self.nodes[0].store.height
