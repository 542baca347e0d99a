"""Replicated ordering-broker cluster (leader + in-sync replicas).

The single Kafka broker the paper's Fig 7 pipeline models is a
crash-fault-tolerant *service* in a real deployment: the topic is
replicated across a broker cluster, one broker leads each partition and
the in-sync replica set (ISR) follows.  This module makes that fault
domain real instead of modelled:

* every broker is its own bus endpoint, so chaos schedules can crash,
  partition or degrade any of them individually;
* the leader replicates each cut batch to the followers over faultable
  links and only commits a batch once a majority of the cluster holds
  it (the ISR acknowledgement rule);
* when the leader crashes, a deterministic epoch-based election - seeded
  by submission *notes* the clients fan to every broker, no wall clock -
  fails over to the most-caught-up follower: a vote is only granted to a
  candidate whose log position is at least the voter's, so a majority
  quorum always intersects the committed prefix (Raft's safety rule);
* clients re-resolve the leader through NOT_LEADER/LEADER redirect
  messages delivered to the orderer's client-side endpoint; the existing
  :class:`~repro.client.submitter.ResilientSubmitter` retry loop then
  re-submits to the new leader and the :class:`SubmissionLedger` dedup
  guarantees a batch acked by a deposed leader is never double-ordered
  by its successor.

One broker is a cluster of one: it is its own majority and leads from
the start, and with no peer to note, replicate to or vote with, the
same code sends no notes, elections or replication traffic - the
paper's serial-packager pipeline.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import TYPE_CHECKING, Any, Optional

from ..common.errors import ConfigError, ConsensusError
from ..model.transaction import Transaction
from ..network.bus import MessageBus
from .base import (
    ADMIT_NEW,
    SUBMIT_LATENCY_MS,
    BatchBuffer,
    ReplyCallback,
    SerialLane,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kafka import KafkaOrderer

#: bus node id of broker 0 (the only broker when ``num_brokers=1``)
BROKER_ID = "kafka-broker"

#: client-side endpoint of the orderer facade, ``<broker 0 id>-orderer``
#: (this one for the default cluster); brokers send leader redirects
#: there so the next submission goes to the right broker
ORDERER_ID = f"{BROKER_ID}-orderer"

#: message kinds
SUBMIT = "kafka-submit"
NOTE = "kafka-note"
APPEND = "kafka-append"
APPEND_ACK = "kafka-append-ack"
FETCH = "kafka-fetch"
VOTE_REQ = "kafka-vote-req"
VOTE = "kafka-vote"
LEADER = "kafka-leader"
NOT_LEADER = "kafka-not-leader"
JOIN = "kafka-join"

#: Fig 7's packager cost: a fixed cost per cut block plus one per
#: transaction, paid on the leader's one serial packager thread
PER_BLOCK_COST_MS = 5.0
PER_TX_COST_MS = 0.25
#: broker -> replica delivery latency; a commit is acked this much later
DELIVER_LATENCY_MS = 1.0
#: failed candidacies after which a broker stops campaigning (liveness
#: capped, like PBFT's view-change escalation)
MAX_ELECTION_ATTEMPTS = 8


@dataclasses.dataclass(frozen=True)
class LogEntry:
    """One replicated batch: the epoch it was cut in plus its payload.

    ``batch`` holds ``(tx, reply, note_id)`` triples; the note id ties the
    entry back to the client fan-out notes so a successor leader can tell
    which noted submissions are already in the pipeline.
    """

    epoch: int
    batch: tuple

    def digest(self) -> str:
        h = hashlib.sha256()
        for tx, _reply, _note in self.batch:
            h.update(tx.signing_payload())
        return h.hexdigest()[:16]

    def same_as(self, other: "LogEntry") -> bool:
        return self is other or (
            self.epoch == other.epoch and self.digest() == other.digest()
        )


class BrokerCluster:
    """Shared state of the broker cluster plus its member brokers.

    Cluster-level members model what a real deployment keeps *durable and
    replicated* outside any single broker process: the client-visible
    topic buffer, the note bookkeeping and the committed-batch watermark.
    Everything protocol-visible (logs, epochs, votes, leadership) lives
    per-broker and travels over the faultable bus.
    """

    def __init__(
        self,
        engine: "KafkaOrderer",
        bus: MessageBus,
        num_brokers: int,
        batch_txs: int,
        timeout_ms: float,
        broker_id: str,
        election_timeout_ms: float,
    ) -> None:
        if num_brokers < 1:
            raise ConfigError("num_brokers must be positive")
        #: the shared topic buffer of (tx, reply, note id) entries: it
        #: survives leader failover, like the replicated topic partition
        #: it models
        self.buffer = BatchBuffer(batch_txs, timeout_ms, bus)
        if election_timeout_ms <= 0:
            raise ConfigError("election_timeout_ms must be positive")
        self.engine = engine
        self.bus = bus
        self.num_brokers = num_brokers
        self.election_timeout = election_timeout_ms
        self.broker_ids = [broker_id] + [
            f"{broker_id}-{i}" for i in range(1, num_brokers)
        ]
        #: the facade's redirect endpoint: one per cluster, so several
        #: orderers (one per shard, say) can share a bus
        self.orderer_id = f"{broker_id}-orderer"
        self.majority = num_brokers // 2 + 1
        #: committed-batch watermark: batches 0..delivered-1 are final
        self.delivered = 0
        #: audit trail for the invariant checker: (seq, epoch, digest)
        self.delivery_log: list[tuple[int, int, str]] = []
        #: note ids of submissions admitted into the pipeline by a leader
        self.seen_notes: set[int] = set()
        #: note ids whose batch committed (resolves follower suspicion)
        self.committed_notes: set[int] = set()
        self._note_seq = 0
        self.brokers = [
            BrokerNode(self, index, node_id)
            for index, node_id in enumerate(self.broker_ids)
        ]

    # -- topic buffer -----------------------------------------------------------

    def next_note(self) -> int:
        self._note_seq += 1
        return self._note_seq

    # -- commit -------------------------------------------------------------------

    def deliver(self, seq: int, entry: LogEntry, leader_id: str) -> None:
        """Commit batch ``seq``; idempotent across leader changes.

        A deposed leader's late packager completion and its successor's
        re-commit race to this method; the watermark guarantees each
        sequence is delivered exactly once, in order.
        """
        if seq != self.delivered:
            return
        self.delivered += 1
        self.delivery_log.append((seq, entry.epoch, entry.digest()))
        for _tx, _reply, note_id in entry.batch:
            if note_id is not None:
                self.committed_notes.add(note_id)
        engine = self.engine
        engine.stats.messages += len(engine.replica_ids)
        commit_ms = self.bus.clock.now_ms() + DELIVER_LATENCY_MS
        engine.finish_commit(
            [(tx, reply) for tx, reply, _note in entry.batch],
            leader_id, commit_ms, DELIVER_LATENCY_MS,
        )

    # -- membership ------------------------------------------------------------

    def broker(self, node_id: str) -> "BrokerNode":
        for member in self.brokers:
            if member.node_id == node_id:
                return member
        raise ConsensusError(f"unknown broker {node_id!r}")

    def acting_leader(self) -> Optional["BrokerNode"]:
        """The live broker claiming leadership at the highest epoch."""
        best: Optional[BrokerNode] = None
        for member in self.brokers:
            if member.crashed or not member.is_leader:
                continue
            if best is None or member.epoch > best.epoch:
                best = member
        return best

    def crash_broker(self, node_id: str) -> None:
        member = self.broker(node_id)
        member.crashed = True
        self.bus.fail(node_id)

    def restart_broker(self, node_id: str) -> None:
        member = self.broker(node_id)
        if not member.crashed:
            return
        self.bus.heal(node_id)
        member.rejoin()

    def flush(self) -> None:
        """Cut any partial batch and nudge replication (test hook)."""
        leader = self.acting_leader()
        if leader is None:
            return
        leader.flush_leader()


class BrokerNode:
    """One broker process: log, epoch, vote and leadership state."""

    def __init__(self, cluster: BrokerCluster, index: int, node_id: str) -> None:
        self.cluster = cluster
        self.index = index
        self.node_id = node_id
        self.crashed = False
        self.epoch = 0
        #: everyone starts following broker 0, mirroring the old topology
        self.leader: Optional[str] = cluster.broker_ids[0]
        self.log: list[LogEntry] = []
        #: (epoch, candidate) of the most recent vote granted
        self._voted: tuple[int, Optional[str]] = (0, None)
        self._votes: set[str] = set()
        self._candidate_epoch = -1
        #: follower -> highest log length acknowledged (leader only)
        self._acks: dict[str, int] = {}
        #: next log index to push through the packager (leader only)
        self._sched = 0
        #: the serial packager thread
        self._packager = SerialLane(cluster.bus)
        #: noted submissions awaiting commit: note_id -> (tx, reply, seen_ms)
        self._notes: dict[int, tuple[Transaction, Optional[ReplyCallback], float]] = {}
        self._note_timer_armed = False
        self._attempts = 0
        self._cooldown = 0.0
        self._leader_since = 0.0
        self._last_seen_delivered = 0
        self._handlers = {
            SUBMIT: self._on_submit,
            NOTE: self._on_note,
            APPEND: self._on_append,
            APPEND_ACK: self._on_append_ack,
            FETCH: self._on_fetch,
            VOTE_REQ: self._on_vote_req,
            VOTE: self._on_vote,
            LEADER: self._on_leader,
            JOIN: self._on_join,
        }
        cluster.bus.register(node_id, self._on_message)

    # -- helpers ----------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.leader == self.node_id

    def _peers(self) -> list[str]:
        return [b for b in self.cluster.broker_ids if b != self.node_id]

    def _now(self) -> float:
        return self.cluster.bus.clock.now_ms()

    def _send(self, dst: str, message: dict, fifo: bool = False) -> None:
        self.cluster.engine.send(
            self.node_id, dst, message, delay_ms=SUBMIT_LATENCY_MS, fifo=fifo,
        )

    def _log_position(self) -> tuple[int, int]:
        last_epoch = self.log[-1].epoch if self.log else 0
        return (last_epoch, len(self.log))

    # -- dispatch -----------------------------------------------------------------

    def _on_message(self, src: str, message: Any) -> None:
        if self.crashed or not isinstance(message, dict):
            return
        kind = message.get("kind")
        handler = self._handlers.get(kind) if isinstance(kind, str) else None
        if handler is not None:
            handler(src, message)

    # -- submissions ---------------------------------------------------------------

    def _on_submit(self, src: str, message: dict) -> None:
        tx = message.get("tx")
        if not isinstance(tx, Transaction):
            return
        reply = message.get("on_reply")
        note_id = message.get("note")
        if not isinstance(note_id, int):
            note_id = None
        if self.is_leader:
            self._enqueue(tx, reply, note_id)
            return
        # wrong broker: remember the submission (it doubles as a note in
        # case the forward is lost), redirect the client, and forward
        self.cluster.engine.stats.redirects += 1
        self._record_note(note_id, tx, reply)
        hops = message.get("fwd", 0)
        if not isinstance(hops, int):
            hops = 0
        if self.leader is not None and hops < self.cluster.num_brokers:
            forwarded = dict(message)
            forwarded["fwd"] = hops + 1
            self._send(self.leader, forwarded, fifo=True)
            self._send(self.cluster.orderer_id, {
                "kind": NOT_LEADER, "epoch": self.epoch, "leader": self.leader,
            })

    def _on_note(self, src: str, message: dict) -> None:
        tx = message.get("tx")
        note_id = message.get("note")
        if not isinstance(tx, Transaction) or not isinstance(note_id, int):
            return
        if self.is_leader:
            # the note beat (or replaced) the SUBMIT copy: admit directly
            self._enqueue(tx, message.get("on_reply"), note_id)
            return
        self._record_note(note_id, tx, message.get("on_reply"))

    def _record_note(
        self,
        note_id: Optional[int],
        tx: Transaction,
        reply: Optional[ReplyCallback],
    ) -> None:
        if note_id is None or note_id in self.cluster.committed_notes:
            return
        if note_id not in self._notes:
            self._notes[note_id] = (tx, reply, self._now())
        self._arm_note_timer()

    def _enqueue(
        self,
        tx: Transaction,
        reply: Optional[ReplyCallback],
        note_id: Optional[int],
    ) -> None:
        """Leader: admit a submission into the shared topic buffer."""
        cluster = self.cluster
        if note_id is not None:
            if note_id in cluster.seen_notes:
                return  # another copy of this very submission got here first
            cluster.seen_notes.add(note_id)
        if cluster.engine.admit_submission(
            tx, reply, self.node_id, DELIVER_LATENCY_MS
        ) != ADMIT_NEW:
            return
        # nonce-carrying txs ack through the ledger; nonce-less ones (every
        # benchmark and Fig 7 submission) keep the callback attached to
        # the buffer entry
        full = cluster.buffer.add(
            (tx, None if tx.dedup_key() else reply, note_id),
            self._cut_on_timeout,
        )
        if full is not None:
            self._cut(full)

    def _cut_on_timeout(self) -> None:
        # a crashed or deposed broker never cuts; a successor arms its own
        if not self.crashed and self.is_leader:
            self._cut(self.cluster.buffer.take_all())

    # -- leader: cut, replicate, commit ----------------------------------------

    def _cut(self, batch: list) -> None:
        if not batch:
            return
        self.log.append(LogEntry(epoch=self.epoch, batch=tuple(batch)))
        self._replicate()
        self._maybe_commit()

    def _append_message(
        self, start: int, entries: list, snapshot: bool = False
    ) -> dict:
        """Build an APPEND carrying the Raft-style prev-entry check."""
        message: dict = {
            "kind": APPEND, "epoch": self.epoch,
            "start": start, "entries": list(entries),
        }
        if start > 0:
            prev = self.log[start - 1]
            message["prev"] = (prev.epoch, prev.digest())
        if snapshot:
            message["snapshot"] = True
        return message

    def _replicate(self) -> None:
        """Push the uncommitted log suffix to every follower.

        Re-sending the whole suffix on every cut makes replication
        self-healing under message loss without periodic retry timers
        (which would keep the simulated bus from ever draining).
        """
        cluster = self.cluster
        start = cluster.delivered
        entries = self.log[start:]
        if not entries:
            return
        for peer in self._peers():
            self._send(peer, self._append_message(start, entries))

    def _maybe_commit(self) -> None:
        cluster = self.cluster
        if self._sched < cluster.delivered:
            self._sched = cluster.delivered
        while self._sched < len(self.log):
            seq = self._sched
            votes = 1  # the leader's own copy
            for peer in sorted(self._acks):
                if self._acks[peer] > seq:
                    votes += 1
            if votes < cluster.majority:
                return
            self._schedule_commit(seq)
            self._sched += 1

    def _schedule_commit(self, seq: int) -> None:
        """Queue batch ``seq`` behind the serial packager thread."""
        cluster = self.cluster
        entry = self.log[seq]
        epoch_at_schedule = self.epoch

        def finish() -> None:
            # a broker that crashed or was deposed mid-packaging must not
            # deliver; its successor re-commits from the watermark
            if (self.crashed or not self.is_leader
                    or self.epoch != epoch_at_schedule):
                return
            cluster.deliver(seq, entry, self.node_id)

        self._packager.run(
            PER_BLOCK_COST_MS + PER_TX_COST_MS * len(entry.batch), finish
        )

    def _on_append_ack(self, src: str, message: dict) -> None:
        epoch = message.get("epoch")
        have = message.get("have")
        if not isinstance(epoch, int) or not isinstance(have, int):
            return
        if epoch != self.epoch or not self.is_leader:
            return
        self._acks[src] = max(self._acks.get(src, 0), have)
        self._maybe_commit()

    def _on_fetch(self, src: str, message: dict) -> None:
        epoch = message.get("epoch")
        have = message.get("have")
        if not isinstance(epoch, int) or not isinstance(have, int):
            return
        if epoch != self.epoch or not self.is_leader or have < 0:
            return
        have = min(have, len(self.log))
        self._send(src, self._append_message(have, self.log[have:]))

    def flush_leader(self) -> None:
        """Cut any partial batch, re-push laggards, re-check quorum."""
        self._cut(self.cluster.buffer.take_all())
        lagging = False
        for peer in self._peers():
            if self._acks.get(peer, 0) < len(self.log):
                lagging = True
                break
        if lagging:
            self._replicate()
        self._maybe_commit()

    # -- follower: replication ---------------------------------------------------

    def _on_append(self, src: str, message: dict) -> None:
        epoch = message.get("epoch")
        start = message.get("start")
        entries = message.get("entries")
        if (not isinstance(epoch, int) or not isinstance(start, int)
                or not isinstance(entries, list)):
            return
        if epoch < self.epoch:
            return  # stale leader; ignoring it denies the old quorum
        self._adopt_leader(epoch, src)
        if start > len(self.log) or start < 0:
            self._send(src, {
                "kind": FETCH, "epoch": epoch, "have": len(self.log),
            })
            return
        prev = message.get("prev")
        if start > 0 and isinstance(prev, tuple):
            ours = self.log[start - 1]
            if (ours.epoch, ours.digest()) != prev:
                # our entry below the leader's suffix is a stale orphan (we
                # cut it as a leader and were deposed before it replicated):
                # walk the fetch point back until the logs agree
                self._send(src, {
                    "kind": FETCH, "epoch": epoch, "have": start - 1,
                })
                return
        for offset, entry in enumerate(entries):
            if not isinstance(entry, LogEntry):
                return
            index = start + offset
            if index >= len(self.log):
                self.log.append(entry)
            elif not self.log[index].same_as(entry):
                # first conflict: everything from here on is superseded
                del self.log[index:]
                self.log.append(entry)
        if message.get("snapshot") is True:
            # a JOIN resync carries the leader's complete log: any local
            # suffix beyond it is an orphan a deposed leader cut but never
            # replicated, superseded even without a direct conflict
            del self.log[start + len(entries):]
        self._send(src, {
            "kind": APPEND_ACK, "epoch": epoch, "have": len(self.log),
        })

    def _adopt_leader(self, epoch: int, leader: str) -> None:
        now = self._now()
        if epoch > self.epoch or self.leader != leader:
            self.epoch = max(self.epoch, epoch)
            self.leader = leader
            self._leader_since = now
            self._attempts = 0
            self._candidate_epoch = -1
        # live leader traffic defers elections
        self._cooldown = max(self._cooldown, now + self.cluster.election_timeout)

    def _on_leader(self, src: str, message: dict) -> None:
        epoch = message.get("epoch")
        leader = message.get("leader")
        if not isinstance(epoch, int) or not isinstance(leader, str):
            return
        if epoch < self.epoch:
            return
        self._adopt_leader(epoch, leader)

    def _on_join(self, src: str, message: dict) -> None:
        """A restarted broker announced itself; resync it."""
        if self.is_leader:
            self._send(src, {
                "kind": LEADER, "epoch": self.epoch, "leader": self.node_id,
            })
            # full-log resync: the rejoiner may hold stale uncommitted
            # entries below the watermark that only a prefix walk fixes,
            # and the snapshot marker trims any orphan suffix beyond it
            self._send(src, self._append_message(0, self.log, snapshot=True))
        elif self.leader is not None:
            self._send(src, {
                "kind": LEADER, "epoch": self.epoch, "leader": self.leader,
            })

    # -- election ------------------------------------------------------------------

    def _arm_note_timer(self) -> None:
        if self._note_timer_armed or self.crashed:
            return
        self._note_timer_armed = True
        # index stagger: the lowest-indexed live follower campaigns first,
        # so concurrent candidacies (split votes) are the exception
        delay = self.cluster.election_timeout * (1.0 + 0.25 * self.index)
        self.cluster.bus.schedule(delay, self._on_note_timer)

    def _on_note_timer(self) -> None:
        self._note_timer_armed = False
        if self.crashed:
            return
        cluster = self.cluster
        self._prune_notes()
        if cluster.delivered != self._last_seen_delivered:
            # commits are flowing: the leader is alive, start fresh
            self._last_seen_delivered = cluster.delivered
            self._attempts = 0
        if not self._notes or self.is_leader:
            return
        if self._attempts >= MAX_ELECTION_ATTEMPTS:
            return
        now = self._now()
        oldest = min(seen for _tx, _reply, seen in self._notes.values())
        if (now - oldest >= cluster.election_timeout
                and now >= self._cooldown):
            self._start_election()
        self._arm_note_timer()

    def _prune_notes(self) -> None:
        cluster = self.cluster
        ledger = cluster.engine.ledger
        for note_id in sorted(self._notes):
            tx = self._notes[note_id][0]
            if (note_id in cluster.committed_notes
                    or ledger.is_committed(tx)):
                del self._notes[note_id]

    def _start_election(self) -> None:
        cluster = self.cluster
        self.epoch += 1
        epoch = self.epoch
        self.leader = None
        self._voted = (epoch, self.node_id)
        self._votes = {self.node_id}
        self._candidate_epoch = epoch
        now = self._now()
        # exponential escalation: repeated failures back off, and the
        # per-broker stagger keeps rival candidacies apart
        self._cooldown = now + cluster.election_timeout * (2 ** self._attempts)
        self._attempts += 1
        last_epoch, last_len = self._log_position()
        for peer in self._peers():
            self._send(peer, {
                "kind": VOTE_REQ, "epoch": epoch,
                "last_epoch": last_epoch, "last_len": last_len,
            })
        if len(self._votes) >= cluster.majority:  # pragma: no cover - n==1
            self._become_leader()

    def _on_vote_req(self, src: str, message: dict) -> None:
        epoch = message.get("epoch")
        last_epoch = message.get("last_epoch")
        last_len = message.get("last_len")
        if (not isinstance(epoch, int) or not isinstance(last_epoch, int)
                or not isinstance(last_len, int)):
            return
        if epoch < self.epoch:
            return
        if epoch > self.epoch:
            self.epoch = epoch
            self.leader = None
            self._candidate_epoch = -1
        voted_epoch, voted_for = self._voted
        if voted_epoch == epoch and voted_for not in (None, src):
            return  # one vote per epoch
        if (last_epoch, last_len) < self._log_position():
            return  # the ISR rule: never elect a less-caught-up broker
        self._voted = (epoch, src)
        self._cooldown = max(
            self._cooldown, self._now() + self.cluster.election_timeout
        )
        self._send(src, {"kind": VOTE, "epoch": epoch, "granted": True})

    def _on_vote(self, src: str, message: dict) -> None:
        epoch = message.get("epoch")
        if not isinstance(epoch, int) or not message.get("granted"):
            return
        if (epoch != self.epoch or self._candidate_epoch != epoch
                or self.leader is not None):
            return
        self._votes.add(src)
        if len(self._votes) >= self.cluster.majority:
            self._become_leader()

    def _become_leader(self) -> None:
        cluster = self.cluster
        self.leader = self.node_id
        self._leader_since = self._now()
        self._acks = {}
        self._sched = cluster.delivered
        cluster.engine.stats.elections += 1
        for peer in self._peers():
            self._send(peer, {
                "kind": LEADER, "epoch": self.epoch, "leader": self.node_id,
            })
        self._send(self.cluster.orderer_id, {
            "kind": LEADER, "epoch": self.epoch, "leader": self.node_id,
        })
        self._repropose_orphans()
        full = cluster.buffer.take_full()
        while full is not None:
            self._cut(full)
            full = cluster.buffer.take_full()
        if len(cluster.buffer):
            cluster.buffer.arm(self._cut_on_timeout)
        self._replicate()
        self._maybe_commit()

    def _repropose_orphans(self) -> None:
        """Re-admit noted submissions the deposed leader took down with it.

        A submission is orphaned when some leader admitted it (or its
        SUBMIT copy was lost) but the entry holding it never reached this
        broker's log or the shared topic buffer.  Raft's vote rule makes
        re-proposal safe: an entry absent from the new leader's log can
        never gather an old-epoch quorum behind its back.
        """
        cluster = self.cluster
        engine = cluster.engine
        self._prune_notes()
        placed: set[int] = set()
        placed_keys: set = set()
        for entry in self.log:
            for tx, _reply, note_id in entry.batch:
                if note_id is not None:
                    placed.add(note_id)
                key = tx.dedup_key()
                if key is not None:
                    placed_keys.add(key)
        for tx, _reply, note_id in cluster.buffer:
            if note_id is not None:
                placed.add(note_id)
            key = tx.dedup_key()
            if key is not None:
                placed_keys.add(key)
        for note_id in sorted(self._notes):
            tx, reply, _seen = self._notes[note_id]
            if note_id in placed:
                continue  # already in the pipeline; commits on re-commit
            key = tx.dedup_key()
            if key is not None:
                if key in placed_keys:
                    continue  # a sibling copy of this nonce is in the log
                # reset the nonce so it can be re-ordered, preserving every
                # callback queued against the lost original
                orphaned = engine.ledger.abandon(tx)
                if engine.admit_submission(
                    tx, reply, self.node_id, DELIVER_LATENCY_MS
                ) != ADMIT_NEW:
                    continue  # committed in a surviving entry after all
                for callback in orphaned:
                    engine.ledger.admit(tx, callback)
                cluster.buffer.append((tx, None, note_id))
                placed_keys.add(key)
            else:
                cluster.buffer.append((tx, reply, note_id))
            cluster.seen_notes.add(note_id)
        self._notes.clear()

    # -- crash / rejoin ------------------------------------------------------------

    def rejoin(self) -> None:
        """Come back after a crash: rejoin the cluster and resync."""
        cluster = self.cluster
        self.crashed = False
        self._note_timer_armed = False
        self._attempts = 0
        self._cooldown = self._now() + cluster.election_timeout
        for peer in self._peers():
            self._send(peer, {"kind": JOIN, "epoch": self.epoch})
        if self.is_leader and len(cluster.buffer):
            cluster.buffer.arm(self._cut_on_timeout)
        if self.is_leader:
            self._replicate()
            self._maybe_commit()
        if self._notes:
            self._arm_note_timer()
