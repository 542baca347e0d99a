"""Kafka-style ordering service: the client-facing orderer facade.

Models the crash-fault-tolerant ordering pipeline the paper benchmarks in
Fig 7: clients publish transactions to a *transaction topic*; a packager
consumes the topic, cutting a block whenever either the batch size (200
txs) or the timeout (200 ms) is reached, and delivers the block to every
peer.

The packager being a single thread is what caps throughput ("it comes to
a threshold at 400 clients for a single thread is responsible for
packaging and appending block to disk") - the broker queues each commit
on a :class:`~repro.consensus.base.SerialLane`, so per-tx processing
cost bounds sustained throughput, and queueing delay shows up in client
response times exactly as in the figure.

The broker side lives in :mod:`repro.consensus.broker`: one or more real
bus endpoints (``kafka-broker``, ``kafka-broker-1``, ...) forming a
replicated cluster with leader election and ISR-quorum replication, so
chaos schedules can crash the leader, partition followers, or drop and
duplicate any of the traffic.  This module is the thin orderer facade
clients talk to: it publishes submissions to the current leader (fanning
a *note* to every other broker so the cluster learns of demand even when
the leader is gone), tracks redirect replies to re-resolve leadership,
and dedups nonce-carrying retries through a :class:`SubmissionLedger` -
a retry of a committed transaction is re-acked, never re-ordered.
"""

from __future__ import annotations

from typing import Any, Optional

from ..model.transaction import Transaction
from ..network.bus import MessageBus
from .base import SUBMIT_LATENCY_MS, ConsensusEngine, ReplyCallback
from .broker import (
    BROKER_ID,
    LEADER,
    NOT_LEADER,
    NOTE,
    ORDERER_ID,
    SUBMIT,
    BrokerCluster,
)

__all__ = ["BROKER_ID", "ORDERER_ID", "SUBMIT", "KafkaOrderer"]


class KafkaOrderer(ConsensusEngine):
    """Ordering service backed by a replicated broker cluster.

    The default ``num_brokers=1`` is the paper's single-broker pipeline:
    a cluster of one, whose broker leads from the start, so nothing ever
    elects, replicates or redirects.  With more brokers the cluster elects
    a leader per epoch and the facade follows it through
    NOT_LEADER/LEADER redirects.
    """

    def __init__(
        self,
        bus: MessageBus,
        batch_txs: int = 200,
        timeout_ms: float = 200.0,
        broker_id: str = BROKER_ID,
        num_brokers: int = 1,
        election_timeout_ms: float = 300.0,
    ) -> None:
        super().__init__(bus)
        self.broker_id = broker_id
        self.cluster = BrokerCluster(
            self, bus,
            num_brokers=num_brokers,
            batch_txs=batch_txs,
            timeout_ms=timeout_ms,
            broker_id=broker_id,
            election_timeout_ms=election_timeout_ms,
        )
        #: where the next submission is published; redirects update it
        self._leader_hint = broker_id
        self._hint_epoch = 0
        bus.register(self.cluster.orderer_id, self._on_meta)

    # -- cluster accessors --------------------------------------------------------

    @property
    def broker_ids(self) -> list[str]:
        return list(self.cluster.broker_ids)

    @property
    def leader_id(self) -> Optional[str]:
        """The live broker currently claiming leadership (None mid-election)."""
        leader = self.cluster.acting_leader()
        return None if leader is None else leader.node_id

    @property
    def leader_hint(self) -> str:
        return self._leader_hint

    def crash_broker(self, node_id: str) -> None:
        self.cluster.crash_broker(node_id)

    def restart_broker(self, node_id: str) -> None:
        self.cluster.restart_broker(node_id)

    # -- client side ----------------------------------------------------------

    def submit(
        self, tx: Transaction, on_reply: Optional[ReplyCallback] = None
    ) -> None:
        """Publish a transaction to the leader's topic (a lossy link!).

        Every other broker receives a *note* carrying the same
        submission: notes are how followers detect a dead leader
        (unserved demand) and how a successor re-proposes submissions the
        deposed leader took down with it.
        """
        self.stats.submitted += 1
        note_id = self.cluster.next_note()
        hint = self._leader_hint
        self.send(
            "client", hint,
            {"kind": SUBMIT, "tx": tx, "on_reply": on_reply, "note": note_id},
            delay_ms=SUBMIT_LATENCY_MS, fifo=True,
        )
        for other in self.broker_ids:
            if other == hint:
                continue
            self.send(
                "client", other,
                {"kind": NOTE, "tx": tx, "on_reply": on_reply,
                 "note": note_id},
                delay_ms=SUBMIT_LATENCY_MS,
            )

    def flush(self) -> None:
        self.cluster.flush()

    # -- leader re-resolution -----------------------------------------------------

    def _on_meta(self, src: str, message: Any) -> None:
        """Track LEADER announcements and NOT_LEADER redirects."""
        if not isinstance(message, dict):
            return
        if message.get("kind") not in (LEADER, NOT_LEADER):
            return
        epoch = message.get("epoch")
        leader = message.get("leader")
        if not isinstance(epoch, int) or not isinstance(leader, str):
            return
        if leader not in self.cluster.broker_ids:
            return
        if epoch >= self._hint_epoch:
            self._hint_epoch = epoch
            self._leader_hint = leader
