"""Tendermint-style BFT engine.

Models the pipeline that shapes Fig 7's Tendermint curves: every submitted
transaction passes a *serial* CheckTx at the entry node before joining the
mempool, proposals are cut by a large block size (10 000) or a proposal
timeout, a proposer broadcasts the block, validators exchange PREVOTE and
PRECOMMIT rounds, and on a 2/3+ precommit quorum every node runs a serial
DeliverTx per transaction.  The serial check/deliver stages are the
bottleneck the paper calls out ("each transaction sent to Tendermint is
first checked by and then delivered to SEBDB in a serial manner, which is
a slow process"), so throughput saturates early and response time grows
with client count.

Robustness model: submissions travel over a faultable bus link to the
entry validator (``tm-0``), where nonce-carrying retries are deduplicated
through a :class:`SubmissionLedger`.  The proposer retransmits its
PROPOSE on a timer until the height commits - vote handlers are
idempotent (``>=`` quorums with sent-once flags) and a validator that
already voted re-broadcasts its latest vote on every retransmission, so
lost PREVOTE/PRECOMMIT messages heal instead of livelocking the round.
A height whose retransmission budget runs out is *abandoned*: its
replies are dropped and its nonces released, so client retries are
re-admitted and re-ordered from scratch.
"""

from __future__ import annotations

from typing import Any, Optional

from ..common.errors import ConsensusError
from ..model.transaction import Transaction
from ..network.bus import MessageBus
from .base import (
    ADMIT_NEW,
    SUBMIT_LATENCY_MS,
    BatchBuffer,
    ConsensusEngine,
    ReplyCallback,
    SerialLane,
)

PROPOSE = "tm-propose"
PREVOTE = "tm-prevote"
PRECOMMIT = "tm-precommit"
SUBMIT = "tm-submit"

#: bus node id of the entry validator (serial CheckTx lane lives here)
ENTRY_ID = "tm-0"

#: simulated cost of one serial CheckTx / DeliverTx (ms)
CHECK_TX_COST_MS = 0.35
DELIVER_TX_COST_MS = 0.35
#: PROPOSE retransmissions before a height is abandoned
MAX_RETRANSMITS = 25


class TendermintEngine(ConsensusEngine):
    """Round-based propose/prevote/precommit consensus with serial tx lanes."""

    def __init__(
        self,
        bus: MessageBus,
        n: int = 4,
        batch_txs: int = 10_000,
        timeout_ms: float = 200.0,
    ) -> None:
        super().__init__(bus)
        if n < 1:
            raise ConsensusError("Tendermint needs at least one validator")
        self.n = n
        self._quorum = (2 * n) // 3 + 1
        #: the mempool: (tx, reply) pairs waiting for a proposal
        self._buffer = BatchBuffer(batch_txs, timeout_ms, bus)
        self._timeout = timeout_ms
        #: serial CheckTx lane of the entry validator
        self._check_tx = SerialLane(bus)
        #: serial DeliverTx lane of the (simulated co-located) SEBDB node
        self._deliver_tx = SerialLane(bus)
        self._height = 0
        self._round_votes: dict[tuple[int, str], set[str]] = {}
        self._proposals: dict[int, list[Transaction]] = {}
        self._committed_heights: set[int] = set()
        self._abandoned_heights: set[int] = set()
        self._replies: dict[int, list[Optional[ReplyCallback]]] = {}
        #: (height, validator index) pairs whose vote was already broadcast
        self._prevote_sent: set[tuple[int, int]] = set()
        self._precommit_sent: set[tuple[int, int]] = set()
        self._in_flight = False
        for i in range(n):
            bus.register(f"tm-{i}", self._make_handler(i))

    # -- submission -------------------------------------------------------------

    def submit(
        self, tx: Transaction, on_reply: Optional[ReplyCallback] = None
    ) -> None:
        """Ship the transaction to the entry validator over a lossy link."""
        self.stats.submitted += 1
        self.send(
            "client", ENTRY_ID,
            {"kind": SUBMIT, "tx": tx, "on_reply": on_reply},
            delay_ms=SUBMIT_LATENCY_MS, fifo=True,
        )

    def _entry_receive(
        self, tx: Transaction, on_reply: Optional[ReplyCallback]
    ) -> None:
        """Entry validator: dedup retries, then serial CheckTx."""
        # re-acks travel the entry-validator->client link, so a lossy or
        # partitioned link keeps the retry loop honest
        if self.admit_submission(
            tx, on_reply, ENTRY_ID, SUBMIT_LATENCY_MS
        ) != ADMIT_NEW:
            return
        # nonce-carrying txs ack through the ledger
        item = (tx, None if tx.dedup_key() else on_reply)

        def checked() -> None:
            full = self._buffer.add(item, self.flush)
            if full is not None:
                self._start_round(full)

        self._check_tx.run(CHECK_TX_COST_MS, checked)

    def flush(self) -> None:
        batch = self._buffer.take_all()
        if batch:
            self._start_round(batch)

    # -- proposals -------------------------------------------------------------------

    def _start_round(
        self,
        batch: list[tuple[Transaction, Optional[ReplyCallback]]],
        requeue_attempt: int = 0,
    ) -> None:
        """Proposer broadcasts the block for the next height."""
        if self._in_flight:
            # one height at a time; requeue behind the current round with
            # exponential backoff derived from the configured timeout (a
            # fixed 1 ms poll would make chaos runs hinge on a magic
            # constant and busy-spin while a stuck height retransmits)
            delay = min(self._timeout,
                        (self._timeout / 20.0) * (2 ** min(requeue_attempt, 10)))
            self.bus.schedule(
                delay, lambda: self._start_round(batch, requeue_attempt + 1)
            )
            return
        self._in_flight = True
        height = self._height
        txs = [tx for tx, _ in batch]
        self._proposals[height] = txs
        self._replies[height] = [cb for _, cb in batch]
        self._send_proposal(height)
        self.bus.schedule(self._timeout, lambda: self._retransmit(height, 1))

    def _send_proposal(self, height: int) -> None:
        txs = self._proposals[height]
        proposer = f"tm-{height % self.n}"
        for i in range(self.n):
            self.send(
                proposer, f"tm-{i}",
                {"kind": PROPOSE, "height": height, "txs": txs},
            )

    def _retransmit(self, height: int, attempt: int) -> None:
        """Proposer liveness timer: re-broadcast until committed or give up."""
        if height in self._committed_heights or height not in self._proposals:
            return
        if attempt > MAX_RETRANSMITS:
            self._abandon(height)
            return
        self._send_proposal(height)
        self.bus.schedule(
            self._timeout, lambda: self._retransmit(height, attempt + 1)
        )

    def _abandon(self, height: int) -> None:
        """Retransmission budget exhausted: drop the round entirely.

        Pending replies are orphaned (the client's timeout fires and its
        retry is re-admitted, because the nonces are released here) and
        the engine moves on to the next height.
        """
        self._abandoned_heights.add(height)
        txs = self._proposals.pop(height, [])
        self._replies.pop(height, None)
        for tx in txs:
            self.ledger.abandon(tx)
        self._height += 1
        self._in_flight = False

    # -- vote rounds -----------------------------------------------------------------

    def _make_handler(self, index: int):
        node_id = f"tm-{index}"

        def broadcast(kind: str, height: int) -> None:
            for i in range(self.n):
                self.send(
                    node_id, f"tm-{i}",
                    {"kind": kind, "height": height, "voter": node_id},
                )

        def handle(src: str, message: dict[str, Any]) -> None:
            kind = message["kind"]
            if kind == SUBMIT:
                if index == 0:
                    self._entry_receive(message["tx"], message.get("on_reply"))
                return
            height = message["height"]
            if height in self._committed_heights or height in self._abandoned_heights:
                return
            if kind == PROPOSE:
                if (height, index) not in self._prevote_sent:
                    self._prevote_sent.add((height, index))
                    broadcast(PREVOTE, height)
                elif (height, index) in self._precommit_sent:
                    # retransmitted proposal: re-broadcast our latest vote
                    # so peers whose copy was lost can still reach quorum
                    broadcast(PRECOMMIT, height)
                else:
                    broadcast(PREVOTE, height)
            elif kind == PREVOTE:
                votes = self._round_votes.setdefault((height, f"pv-{index}"), set())
                votes.add(message["voter"])
                if (len(votes) >= self._quorum
                        and (height, index) not in self._precommit_sent):
                    self._precommit_sent.add((height, index))
                    broadcast(PRECOMMIT, height)
            elif kind == PRECOMMIT:
                votes = self._round_votes.setdefault((height, f"pc-{index}"), set())
                votes.add(message["voter"])
                if len(votes) >= self._quorum and index == 0:
                    self._commit(height)

        return handle

    # -- commit ------------------------------------------------------------------------

    def _commit(self, height: int) -> None:
        if height in self._committed_heights or height not in self._proposals:
            return
        self._committed_heights.add(height)
        txs = self._proposals.pop(height)
        replies = self._replies.pop(height)

        def finish() -> None:
            # commit acks are real entry->client messages subject to the
            # same link faults as any other traffic
            self.finish_commit(list(zip(txs, replies)), ENTRY_ID,
                               self.bus.clock.now_ms(), SUBMIT_LATENCY_MS)
            self._height += 1
            self._in_flight = False

        # serial DeliverTx into SEBDB
        self._deliver_tx.run(DELIVER_TX_COST_MS * len(txs), finish)
