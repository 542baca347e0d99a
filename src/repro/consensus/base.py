"""Pluggable consensus (section III-B: "SEBDB uses plug-in pattern").

A consensus engine totally orders client transactions into *batches* and
delivers every batch, exactly once and in the same order, to every
registered replica.  The SEBDB node turns each delivered batch into a
block (assigning global tids deterministically) and appends it to its
local chain - so identical delivery order means identical chains.

Engines run on the simulated :class:`~repro.network.bus.MessageBus`;
drive them with ``bus.run_until_idle()`` (or ``run_for`` when measuring
throughput over a window).

All three engines build Fig 7's pipeline from the same pieces: a
:class:`BatchBuffer` cuts batches by size or timeout, a
:class:`SerialLane` queues work behind one serial thread, and
:meth:`ConsensusEngine.send` counts every protocol message it puts on
the bus.
"""

from __future__ import annotations

import abc
import dataclasses
import weakref
from typing import Any, Callable, Iterator, Optional, Sequence

from ..common.errors import ConfigError
from ..model.transaction import Transaction
from ..network.bus import MessageBus

#: Called on every replica for every committed batch, in commit order.
CommitCallback = Callable[[Sequence[Transaction]], None]

#: Called once per submitted transaction when its batch commits;
#: receives the simulated commit timestamp (ms).
ReplyCallback = Callable[[float], None]

#: Called when the engine certifies a checkpoint (PBFT stable checkpoint).
CheckpointCallback = Callable[["Checkpoint"], None]

#: :meth:`ConsensusEngine.admit_submission` outcomes
ADMIT_NEW = "new"          #: first sight of this nonce - order it
ADMIT_REPLAYED = "replayed"  #: already committed - the re-ack was sent
ADMIT_PENDING = "pending"    #: a copy is already in flight - swallowed

#: latency of the client -> engine submission link (ms)
SUBMIT_LATENCY_MS = 1.0


@dataclasses.dataclass(frozen=True)
class Checkpoint:
    """A quorum-certified snapshot of the ordered prefix.

    ``seq`` is the last sequence the checkpoint covers, ``digest`` the
    running execution digest up to and including that sequence, and
    ``votes`` the replicas whose matching CHECKPOINT messages form the
    2f+1 proof.  A replica holding a checkpoint certificate can hand it
    to a lagging peer, which jumps its protocol state to ``seq`` without
    re-running the three-phase protocol for the covered sequences.
    """

    seq: int
    digest: bytes
    votes: tuple[str, ...]


@dataclasses.dataclass
class ConsensusStats:
    """Counters every engine maintains (Fig 7's raw material)."""

    submitted: int = 0
    committed: int = 0
    batches: int = 0
    messages: int = 0
    #: retried submissions collapsed by nonce instead of double-committing
    deduplicated: int = 0
    #: views installed across the cluster (PBFT; one count per new view)
    view_changes: int = 0
    #: checkpoints that reached a 2f+1 quorum (one count per sequence)
    checkpoints: int = 0
    #: state transfers completed by lagging replicas
    state_transfers: int = 0
    #: state transfers whose payloads were bulk-fetched off the gossip
    #: mesh instead of shipped inline (certificate-plus-manifest path)
    bulk_transfers: int = 0
    #: broker-cluster leader elections won (one count per new leader)
    elections: int = 0
    #: submissions that reached a non-leader broker and were redirected
    redirects: int = 0


class AckChannel:
    """Routes engine acks to client callbacks over the *faultable* bus.

    Engines used to schedule reply callbacks with ``bus.schedule``, which
    no link fault can touch - lost-ack retries were therefore untestable.
    The channel registers one ``client`` endpoint per bus and ships every
    ack as a real message from the acking engine node, so acks traverse
    the same loss/delay/duplication/partition filters as any other
    traffic.  A dropped ack simply never invokes its callback: the
    client's attempt timeout fires, the retry is deduplicated by the
    :class:`SubmissionLedger`, and the re-ack travels the link again.
    """

    KIND = "engine-ack"
    CLIENT_ID = "client"

    _channels: "weakref.WeakKeyDictionary[MessageBus, AckChannel]" = (
        weakref.WeakKeyDictionary()
    )

    def __init__(self, bus: MessageBus) -> None:
        self._bus = bus
        self._callbacks: dict[int, ReplyCallback] = {}
        self._next_token = 0
        bus.register(self.CLIENT_ID, self._on_message)

    @classmethod
    def for_bus(cls, bus: MessageBus) -> "AckChannel":
        """The shared per-bus channel (engines on one bus share ``client``)."""
        channel = cls._channels.get(bus)
        if channel is None:
            channel = cls(bus)
            cls._channels[bus] = channel
        return channel

    def deliver(
        self,
        src: str,
        callback: ReplyCallback,
        commit_ms: float,
        delay_ms: float,
    ) -> None:
        """Send one ack from engine node ``src`` over the lossy link."""
        token = self._next_token
        self._next_token += 1
        self._callbacks[token] = callback
        self._bus.send(
            src, self.CLIENT_ID,
            {"kind": self.KIND, "token": token, "commit_ms": commit_ms},
            delay_ms=delay_ms,
        )

    def _on_message(self, src: str, message: Any) -> None:
        if not isinstance(message, dict) or message.get("kind") != self.KIND:
            return  # gossip/heartbeat traffic addressed at the client id
        callback = self._callbacks.pop(message["token"], None)
        if callback is not None:
            # a duplicated ack pops nothing the second time - idempotent
            callback(message["commit_ms"])


class SubmissionLedger:
    """Nonce-keyed dedup and re-ack state shared by every engine.

    Consensus must commit a retried submission *at most once* while still
    acknowledging every copy of the request, otherwise a client whose ack
    was lost retries forever.  The ledger tracks each nonce-carrying
    transaction through three states:

    * unknown  -> ``admit`` returns True: order it, remember callbacks;
    * pending  -> ``admit`` returns False: swallow the duplicate, queue
      its callback next to the original's;
    * committed -> ``admit`` returns False and ``replay_ack`` supplies
      the recorded commit time so the retry is acked immediately.

    Transactions without a nonce bypass the ledger entirely (``admit``
    always True), preserving fire-and-forget semantics.
    """

    def __init__(self) -> None:
        self._pending: dict[tuple[str, str], list[ReplyCallback]] = {}
        self._committed: dict[tuple[str, str], float] = {}

    def admit(self, tx: Transaction, on_reply: Optional[ReplyCallback]) -> bool:
        """True when ``tx`` is new and must be ordered; False on a retry."""
        key = tx.dedup_key()
        if key is None:
            return True
        if key in self._committed:
            return False
        if key in self._pending:
            if on_reply is not None:
                self._pending[key].append(on_reply)
            return False
        self._pending[key] = [] if on_reply is None else [on_reply]
        return True

    def replay_ack(self, tx: Transaction) -> Optional[float]:
        """Commit time to re-ack a retry of an already-committed tx."""
        key = tx.dedup_key()
        if key is None:
            return None
        return self._committed.get(key)

    def commit(self, tx: Transaction, commit_ms: float) -> list[ReplyCallback]:
        """Mark committed; returns every callback waiting on this nonce."""
        key = tx.dedup_key()
        if key is None:
            return []
        self._committed[key] = commit_ms
        return self._pending.pop(key, [])

    def abandon(self, tx: Transaction) -> list[ReplyCallback]:
        """Give up on a pending transaction (engine abandoned its height).

        Returns the orphaned callbacks; the nonce becomes unknown again so
        a later retry is re-admitted and re-ordered from scratch.
        """
        key = tx.dedup_key()
        if key is None or key in self._committed:
            return []
        return self._pending.pop(key, [])

    def is_committed(self, tx: Transaction) -> bool:
        key = tx.dedup_key()
        return key is not None and key in self._committed

    def __len__(self) -> int:
        return len(self._pending) + len(self._committed)


class ConsensusEngine(abc.ABC):
    """Interface every pluggable consensus component implements."""

    def __init__(self, bus: MessageBus) -> None:
        self.bus = bus
        self.stats = ConsensusStats()
        self._replicas: dict[str, CommitCallback] = {}
        self._checkpoint_listeners: dict[str, CheckpointCallback] = {}
        #: nonce-keyed dedup and re-ack state
        self.ledger = SubmissionLedger()
        #: acks travel the faultable bus like any other message
        self._acks = AckChannel.for_bus(bus)

    def send(
        self, src: str, dst: str, message: dict[str, Any],
        delay_ms: Optional[float] = None, fifo: bool = False,
    ) -> None:
        """Put one protocol message on the bus, counted in ``stats.messages``."""
        self.stats.messages += 1
        self.bus.send(src, dst, message, delay_ms=delay_ms, fifo=fifo)

    def admit_submission(
        self,
        tx: Transaction,
        on_reply: Optional[ReplyCallback],
        ack_source: str,
        ack_delay_ms: float,
    ) -> str:
        """Shared dedup-or-re-ack step every engine runs on a submission.

        Returns :data:`ADMIT_NEW` when ``tx`` must be ordered,
        :data:`ADMIT_REPLAYED` when it already committed (the recorded
        commit time was re-acked from ``ack_source`` over the faultable
        client link), or :data:`ADMIT_PENDING` when a copy is already in
        flight (the callback was queued next to the original's).
        """
        if self.ledger.admit(tx, on_reply):
            return ADMIT_NEW
        self.stats.deduplicated += 1
        replayed = self.ledger.replay_ack(tx)
        if replayed is not None:
            if on_reply is not None:
                self._acks.deliver(ack_source, on_reply, replayed,
                                   ack_delay_ms)
            return ADMIT_REPLAYED
        return ADMIT_PENDING

    def finish_commit(
        self,
        entries: Sequence[tuple[Transaction, Optional[ReplyCallback]]],
        ack_source: str,
        commit_ms: float,
        ack_delay_ms: float,
    ) -> None:
        """Shared commit tail: deliver the batch, then ack every waiter.

        ``entries`` pairs each transaction with its directly-attached
        reply callback (nonce-less submissions: every benchmark and Fig 7
        write); nonce-carrying transactions collect their callbacks from
        the submission ledger.
        Acks travel from ``ack_source`` over the faultable client link.
        """
        self._deliver([tx for tx, _ in entries])
        for tx, reply in entries:
            callbacks = self.ledger.commit(tx, commit_ms)
            if reply is not None:
                callbacks = callbacks + [reply]
            for callback in callbacks:
                self._acks.deliver(ack_source, callback, commit_ms,
                                   ack_delay_ms)

    def register_replica(self, replica_id: str, on_commit: CommitCallback) -> None:
        """Attach a replica; it will receive every committed batch."""
        self._replicas[replica_id] = on_commit

    def unregister_replica(self, replica_id: str) -> None:
        """Detach a replica (crashed node); it stops receiving batches."""
        self._replicas.pop(replica_id, None)

    def register_checkpoint_listener(
        self, listener_id: str, on_checkpoint: CheckpointCallback
    ) -> None:
        """Be told whenever the engine certifies a checkpoint.

        Full nodes use this to record durable chain checkpoints so crash
        recovery re-verifies only the suffix past the last certified
        prefix instead of the whole chain.  Engines without a checkpoint
        protocol simply never notify.
        """
        self._checkpoint_listeners[listener_id] = on_checkpoint

    def unregister_checkpoint_listener(self, listener_id: str) -> None:
        self._checkpoint_listeners.pop(listener_id, None)

    def _notify_checkpoint(self, checkpoint: Checkpoint) -> None:
        for listener_id in sorted(self._checkpoint_listeners):
            self._checkpoint_listeners[listener_id](checkpoint)

    @property
    def replica_ids(self) -> list[str]:
        return sorted(self._replicas)

    @abc.abstractmethod
    def submit(
        self, tx: Transaction, on_reply: Optional[ReplyCallback] = None
    ) -> None:
        """Submit a client transaction for ordering."""

    @abc.abstractmethod
    def flush(self) -> None:
        """Force any pending partial batch to be proposed (test hook)."""

    def _deliver(self, batch: Sequence[Transaction]) -> None:
        """Deliver a committed batch to every replica (same order)."""
        self.stats.batches += 1
        self.stats.committed += len(batch)
        for replica_id in self.replica_ids:
            self._replicas[replica_id](batch)


class BatchBuffer:
    """Fig 7's size-or-timeout cut, for whatever items an engine orders.

    The Fig 7 setup: "block size is set to 200 transactions and timeout
    for packaging is set to 200 ms".  :meth:`add` hands back a full batch
    for the owner to cut; otherwise the first item into an empty buffer
    arms the timeout.  Every cut moves :attr:`epoch`, and a timer fires
    only if the epoch it was armed at still stands and items wait.
    """

    def __init__(self, max_txs: int, timeout_ms: float, bus: MessageBus) -> None:
        if max_txs <= 0:
            raise ConfigError("max_txs must be positive")
        self._max = max_txs
        self._timeout = timeout_ms
        self._bus = bus
        self._items: list[Any] = []
        #: increases every time items are cut; timers compare epochs
        self.epoch = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def append(self, item: Any) -> None:
        """Buffer ``item`` without cutting or arming anything."""
        self._items.append(item)

    def add(self, item: Any, on_timeout: Callable[[], None]) -> Optional[list[Any]]:
        """Buffer ``item``: a full batch for the owner to cut, else None."""
        was_empty = not self._items
        self._items.append(item)
        full = self.take_full()
        if full is None and was_empty:
            self.arm(on_timeout)
        return full

    def arm(self, on_timeout: Callable[[], None]) -> None:
        """Call ``on_timeout`` after the timeout, unless a cut comes first."""
        epoch = self.epoch

        def fire() -> None:
            if self.epoch == epoch and self._items:
                on_timeout()

        self._bus.schedule(self._timeout, fire)

    def take_full(self) -> Optional[list[Any]]:
        """A full batch if one is ready, else None."""
        if len(self._items) < self._max:
            return None
        batch = self._items[: self._max]
        self._items = self._items[self._max :]
        self.epoch += 1
        return batch

    def take_all(self) -> list[Any]:
        """Everything buffered (timeout path); may be empty."""
        batch, self._items = self._items, []
        if batch:
            self.epoch += 1
        return batch


class SerialLane:
    """One serial worker: Fig 7's packager thread, CheckTx or DeliverTx.

    A job queues behind the one before it, so its cost bounds sustained
    throughput and the queueing shows up in client response times.
    """

    def __init__(self, bus: MessageBus) -> None:
        self._bus = bus
        #: simulated time until which the lane is busy
        self._busy_until = 0.0

    def run(self, cost_ms: float, done: Callable[[], None]) -> None:
        """Queue a job of ``cost_ms``; ``done`` runs when it finishes."""
        now = self._bus.clock.now_ms()
        self._busy_until = max(now, self._busy_until) + cost_ms
        self._bus.schedule(self._busy_until - now, done)
