"""Practical Byzantine Fault Tolerance (Castro & Liskov, OSDI'99).

A faithful in-simulation PBFT: ``n = 3f + 1`` replicas exchange
PRE-PREPARE / PREPARE / COMMIT over the message bus, execute batches in
sequence order, and survive up to ``f`` Byzantine replicas (silent or
equivocating).  A request timer drives view changes when the primary
fails: backups broadcast VIEW-CHANGE, and on ``2f + 1`` votes the next
primary installs the new view and re-proposes pending requests.

Liveness under *cascading* failures comes from two mechanisms on top of
the basic protocol:

* **Repeated view-change timers.**  Voting for view ``v+1`` arms an
  exponentially backed-off escalation timer; if the view change stalls
  (the next primary is itself crashed or partitioned) and client
  requests are still stuck when it fires, the replica escalates to
  ``v+2``, then ``v+3``, ... - the classic doubled-timeout rule that
  makes PBFT live as long as at most ``f`` replicas are faulty.
* **Checkpoints + state transfer.**  Every ``checkpoint_interval``
  executed sequences a replica broadcasts a CHECKPOINT carrying its
  running execution digest; ``2f+1`` matching votes certify the prefix,
  garbage-collect per-sequence state, and form a transferable
  certificate.  A replica that rejoins far behind (long partition,
  crash) sends STATE-REQ and installs a peer's certified checkpoint plus
  the committed tail, skipping the three-phase protocol for every
  covered sequence instead of waiting for new-view re-proposals.  When
  the tail exceeds ``state_tail_limit`` the responder ships only the
  certificate plus a ``(seq, digest)`` **manifest** - bulk payloads
  travel over the gossip mesh (see :mod:`repro.node.observer`), and the
  manifest digests pin what the lagging replica may accept.

This is the BFT plug-in of SEBDB's consensus layer (Example 4 of the
paper runs four full nodes under PBFT) and the adversary model behind the
thin client's auxiliary-node sampling (eq. 6).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from ..common.errors import ConsensusError
from ..common.hashing import sha256
from ..model.transaction import Transaction
from ..network.bus import MessageBus
from .base import (
    ADMIT_NEW,
    ADMIT_REPLAYED,
    SUBMIT_LATENCY_MS,
    BatchBuffer,
    Checkpoint,
    ConsensusEngine,
    ReplyCallback,
)

PRE_PREPARE = "pbft-pre-prepare"
PREPARE = "pbft-prepare"
COMMIT = "pbft-commit"
REQUEST = "pbft-request"
VIEW_CHANGE = "pbft-view-change"
NEW_VIEW = "pbft-new-view"
CHECKPOINT = "pbft-checkpoint"
STATE_REQ = "pbft-state-req"
STATE_RESP = "pbft-state-resp"

#: Byzantine behaviours a replica can be configured with.
BYZ_SILENT = "silent"
BYZ_EQUIVOCATE = "equivocate"

#: view-change escalations before a replica stops re-arming its timer
MAX_VIEW_CHANGE_ATTEMPTS = 8


def _batch_digest(batch: list[Transaction]) -> bytes:
    payload = b"".join(tx.to_bytes() for tx in batch)
    return sha256(payload)


@dataclasses.dataclass
class _SeqState:
    """Per-sequence-number protocol state at one replica."""

    batch: Optional[list[Transaction]] = None
    digest: Optional[bytes] = None
    view: int = 0
    prepares: set[str] = dataclasses.field(default_factory=set)
    commits: set[str] = dataclasses.field(default_factory=set)
    prepared: bool = False
    committed: bool = False
    executed: bool = False


class _Replica:
    """One PBFT replica's protocol state machine."""

    def __init__(self, cluster: "PBFTCluster", index: int) -> None:
        self.cluster = cluster
        self.index = index
        self.node_id = f"pbft-{index}"
        self.view = 0
        self.next_seq = 0          # primary only: next sequence to assign
        self.last_executed = -1
        self.states: dict[int, _SeqState] = {}
        self.byzantine: Optional[str] = None
        self.view_change_votes: dict[int, set[str]] = {}
        #: digest -> request not yet executed, in first-arrival order
        self.pending_requests: dict[bytes, Transaction] = {}
        #: running digest chain over executed batches (checkpoint material)
        self.exec_digest = b"\x00" * 32
        #: (seq, digest) -> replicas that announced that checkpoint
        self.checkpoint_votes: dict[tuple[int, bytes], set[str]] = {}
        #: latest 2f+1-certified checkpoint we hold (serves STATE-REQs)
        self.stable_checkpoint: Optional[Checkpoint] = None
        #: sequences adopted from a transferred checkpoint, not re-executed
        self.sequences_skipped = 0
        #: seq -> certified batch digest from a bulk-transfer manifest;
        #: inline tail entries must match before they are accepted
        self.state_manifest: dict[int, bytes] = {}
        #: simulated time before which we will not re-broadcast STATE-REQ
        self._state_req_cooldown_until = 0.0
        #: progress timers do not initiate another view change before this:
        #: a fresh vote or a fresh installation restarts the clock, giving
        #: the (possibly new) primary one full timeout to make progress
        self._vc_cooldown_until = 0.0
        self._handlers = {
            REQUEST: self.on_request,
            PRE_PREPARE: self.on_pre_prepare,
            PREPARE: self.on_prepare,
            COMMIT: self.on_commit_msg,
            VIEW_CHANGE: self.on_view_change,
            NEW_VIEW: self.on_new_view,
            CHECKPOINT: self.on_checkpoint,
            STATE_REQ: self.on_state_req,
            STATE_RESP: self.on_state_resp,
        }
        cluster.bus.register(self.node_id, self.handle)

    # -- helpers -------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.cluster.n

    @property
    def f(self) -> int:
        return self.cluster.f

    def primary_of(self, view: int) -> int:
        return view % self.n

    @property
    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.index

    def state(self, seq: int) -> _SeqState:
        return self.states.setdefault(seq, _SeqState())

    def _broadcast(self, message: dict[str, Any]) -> None:
        if self.byzantine == BYZ_SILENT:
            return
        for peer in range(self.n):
            if peer != self.index:
                self.cluster.send(self.node_id, f"pbft-{peer}", message)

    def _maybe_corrupt(self, digest: bytes) -> bytes:
        if self.byzantine == BYZ_EQUIVOCATE:
            return sha256(b"equivocation" + digest)
        return digest

    # -- primary: propose -------------------------------------------------------

    def propose(self, batch: list[Transaction]) -> None:
        if self.byzantine == BYZ_SILENT:
            return
        seq = self.next_seq
        self.next_seq += 1
        self.propose_at(seq, batch)

    def propose_at(self, seq: int, batch: list[Transaction]) -> None:
        """(Re-)propose ``batch`` at a fixed sequence in the current view.

        The view-change path uses this to re-run the three-phase protocol
        for in-flight sequences the crashed primary left behind; votes
        collected under the old view are discarded.
        """
        if self.byzantine == BYZ_SILENT:
            return
        digest = _batch_digest(batch)
        state = self.state(seq)
        state.batch = batch
        state.digest = digest
        state.view = self.view
        state.prepares = {self.node_id}
        state.commits = set()
        state.prepared = False
        message = {
            "kind": PRE_PREPARE,
            "view": self.view,
            "seq": seq,
            "digest": self._maybe_corrupt(digest),
            "batch": batch,
        }
        # the pre-prepare doubles as the primary's own prepare vote
        self._broadcast(message)
        self.on_prepare_quorum_check(seq)

    # -- message handling ----------------------------------------------------------

    def handle(self, src: str, message: dict[str, Any]) -> None:
        kind = message.get("kind")
        if self.byzantine == BYZ_SILENT:
            return
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(src, message)

    def on_request(self, _src: str, message: dict[str, Any]) -> None:
        """Every replica tracks requests so backups can detect a dead primary."""
        tx: Transaction = message["tx"]
        digest = tx.hash()
        if not self.cluster.was_executed(digest):
            self.pending_requests.setdefault(digest, tx)
        if self.is_primary:
            self.cluster.enqueue(self, tx, digest)
        else:
            self.cluster.bus.schedule(
                self.cluster.request_timeout_ms, self._check_progress
            )

    def _check_progress(self) -> None:
        """Backup timer: if requests are stuck, vote for a view change."""
        if not self._has_stuck_requests():
            return
        if self.cluster.bus.clock.now_ms() < self._vc_cooldown_until:
            # we voted (or installed a view) within the last timeout
            # window; the escalation timer owns the next move - without
            # this, every request arrival re-votes v+1 each timeout and
            # the cluster churns through views faster than it commits
            return
        self.start_view_change(self.view + 1)

    def _has_stuck_requests(self) -> bool:
        """True when a request this replica saw is still unexecuted."""
        return bool(self.pending_requests)

    def on_pre_prepare(self, src: str, message: dict[str, Any]) -> None:
        view, seq = message["view"], message["seq"]
        if src != f"pbft-{self.primary_of(view)}":
            return  # only the view's primary may pre-prepare
        if view > self.view:
            # the cluster moved on while we were crashed or partitioned;
            # a pre-prepare from the legitimate primary of a higher view
            # doubles as its new-view announcement (same trust base as
            # NEW_VIEW in this simulation), letting us rejoin instead of
            # ignoring the live view forever
            self.view = view
        if view != self.view:
            return  # stale view
        batch: list[Transaction] = message["batch"]
        digest = _batch_digest(batch)
        if digest != message["digest"]:
            # primary equivocated; refuse and push towards a view change
            self.start_view_change(self.view + 1)
            return
        if seq > self.last_executed + self.cluster.checkpoint_interval:
            # we are more than a checkpoint interval behind the live
            # protocol (long partition / crash): ask peers for a certified
            # checkpoint instead of waiting to re-run every sequence
            self.request_state_transfer()
        state = self.state(seq)
        if state.committed:
            return  # this sequence is already decided locally
        if view > state.view:
            # a new view re-proposes this undecided sequence: votes
            # gathered under the dead view are void, the protocol re-runs
            state.prepares = set()
            state.commits = set()
            state.prepared = False
            state.digest = None
        if state.digest is not None and state.digest != digest:
            return
        state.batch = batch
        state.digest = digest
        state.view = view
        self._broadcast(
            {
                "kind": PREPARE,
                "view": view,
                "seq": seq,
                "digest": self._maybe_corrupt(digest),
            }
        )
        # a replica counts its own prepare vote
        state.prepares.add(self.node_id)
        # the sending primary's pre-prepare counts as its prepare
        state.prepares.add(src)
        self.on_prepare_quorum_check(seq)

    def on_prepare(self, src: str, message: dict[str, Any]) -> None:
        state = self.state(message["seq"])
        if message["view"] != self.view:
            return
        if state.digest is not None and message["digest"] != state.digest:
            return  # mismatching digest (possibly Byzantine) - ignore
        state.prepares.add(src)
        self.on_prepare_quorum_check(message["seq"])

    def on_prepare_quorum_check(self, seq: int) -> None:
        """prepared(seq) := pre-prepare + 2f+1 prepare votes (incl. own)."""
        state = self.state(seq)
        if state.prepared or state.batch is None:
            return
        if len(state.prepares) >= 2 * self.f + 1 or self.n == 1:
            state.prepared = True
            self._broadcast(
                {
                    "kind": COMMIT,
                    "view": state.view,
                    "seq": seq,
                    "digest": self._maybe_corrupt(state.digest or b""),
                }
            )
            state.commits.add(self.node_id)
            self.on_commit_quorum_check(seq)

    def on_commit_msg(self, src: str, message: dict[str, Any]) -> None:
        state = self.state(message["seq"])
        if state.digest is not None and message["digest"] != state.digest:
            return
        state.commits.add(src)
        self.on_commit_quorum_check(message["seq"])

    def on_commit_quorum_check(self, seq: int) -> None:
        """committed(seq) := prepared + 2f + 1 commits (incl. own)."""
        state = self.state(seq)
        if state.committed or not state.prepared:
            return
        if len(state.commits) >= 2 * self.f + 1 or self.n == 1:
            state.committed = True
            self.try_execute()

    def try_execute(self) -> None:
        """Execute committed sequences strictly in order."""
        while True:
            state = self.states.get(self.last_executed + 1)
            if state is None or not state.committed or state.batch is None:
                break
            batch_digest = state.digest
            assert batch_digest is not None  # set together with the batch
            self.last_executed += 1
            state.executed = True
            self.exec_digest = sha256(self.exec_digest + batch_digest)
            self.cluster.on_replica_executed(
                self, self.last_executed, state.batch, batch_digest
            )
            self._maybe_emit_checkpoint(self.last_executed)

    # -- view change -------------------------------------------------------------------

    def start_view_change(self, new_view: int, attempt: int = 0) -> None:
        if new_view <= self.view:
            return
        votes = self.view_change_votes.setdefault(new_view, set())
        if self.node_id in votes:
            return
        votes.add(self.node_id)
        self._vc_cooldown_until = (
            self.cluster.bus.clock.now_ms()
            + self.cluster.view_change_timeout_ms
        )
        self._broadcast({"kind": VIEW_CHANGE, "view": new_view})
        self._arm_escalation(new_view, attempt)
        self._maybe_install(new_view)

    def _arm_escalation(self, new_view: int, attempt: int) -> None:
        """Re-arm the view-change timer with exponential backoff.

        One shot per request arrival is not live: when the primary of
        ``new_view`` is itself crashed or partitioned, the view change
        completes (or never gathers a quorum) and nothing ever fires
        again.  Each vote therefore schedules a stall check after
        ``view_change_timeout * 2^attempt``; if client requests are still
        stuck, the replica escalates past every dead primary until the
        attempt budget runs out (restarted by the next client retry).
        """
        if attempt >= MAX_VIEW_CHANGE_ATTEMPTS:
            return
        timeout = self.cluster.view_change_timeout_ms * (2 ** min(attempt, 10))
        self.cluster.bus.schedule(
            timeout, lambda: self._view_change_stalled(new_view, attempt)
        )

    def _view_change_stalled(self, new_view: int, attempt: int) -> None:
        if self.byzantine == BYZ_SILENT:
            return
        if not self._has_stuck_requests():
            return  # the view change (or a competing one) restored progress
        self.start_view_change(max(self.view, new_view) + 1, attempt + 1)

    def on_view_change(self, src: str, message: dict[str, Any]) -> None:
        new_view = message["view"]
        if new_view <= self.view:
            return
        votes = self.view_change_votes.setdefault(new_view, set())
        votes.add(src)
        # echo our own vote once a quorum is forming (f+1 rule)
        if len(votes) >= self.f + 1 and self.node_id not in votes:
            votes.add(self.node_id)
            self._broadcast({"kind": VIEW_CHANGE, "view": new_view})
        self._maybe_install(new_view)

    def _maybe_install(self, new_view: int) -> None:
        votes = self.view_change_votes.get(new_view, set())
        if len(votes) >= 2 * self.f + 1 and new_view > self.view:
            self.view = new_view
            self._vc_cooldown_until = (
                self.cluster.bus.clock.now_ms()
                + self.cluster.view_change_timeout_ms
            )
            self.view_change_votes = {
                view: votes
                for view, votes in self.view_change_votes.items()
                if view > new_view
            }
            self.cluster.on_view_installed(new_view)
            if self.is_primary:
                self.next_seq = max(self.next_seq, self.last_executed + 1,
                                    self.cluster.max_seq_seen() + 1)
                self._broadcast({"kind": NEW_VIEW, "view": new_view})
                reproposed = self._repropose_in_flight()
                self.cluster.reassign_pending(self, exclude=reproposed)

    def _repropose_in_flight(self) -> set[bytes]:
        """New-primary duty: re-run every undecided sequence number.

        Sequences the crashed primary proposed but never drove to commit
        would stall execution forever (replicas execute strictly in
        order).  The new primary re-proposes the batch it saw for each
        such sequence, and fills sequences whose content it never
        received with an explicit no-op batch - the classic new-view
        null request.  Returns the hashes of every re-proposed
        transaction so pending reassignment skips them.
        """
        reproposed: set[bytes] = set()
        for seq in range(self.last_executed + 1, self.next_seq):
            state = self.states.get(seq)
            if state is not None and state.executed:
                continue
            batch = state.batch if state is not None and state.batch else []
            for tx in batch:
                reproposed.add(tx.hash())
            self.propose_at(seq, batch)
        return reproposed

    def on_new_view(self, src: str, message: dict[str, Any]) -> None:
        new_view = message["view"]
        if new_view > self.view and src == f"pbft-{self.primary_of(new_view)}":
            self.view = new_view

    # -- checkpoints -------------------------------------------------------------------

    def _maybe_emit_checkpoint(self, seq: int) -> None:
        if (seq + 1) % self.cluster.checkpoint_interval != 0:
            return
        message = {
            "kind": CHECKPOINT,
            "seq": seq,
            "digest": self._maybe_corrupt(self.exec_digest),
        }
        self._broadcast(message)
        self._record_checkpoint_vote(self.node_id, seq, self.exec_digest)

    def on_checkpoint(self, src: str, message: dict[str, Any]) -> None:
        self._record_checkpoint_vote(src, message["seq"], message["digest"])

    def _record_checkpoint_vote(self, voter: str, seq: int, digest: bytes) -> None:
        stable = self.stable_checkpoint
        if stable is not None and seq <= stable.seq:
            return
        votes = self.checkpoint_votes.setdefault((seq, digest), set())
        votes.add(voter)
        if len(votes) >= 2 * self.f + 1 or self.n == 1:
            self._stabilize_checkpoint(
                Checkpoint(seq=seq, digest=digest, votes=tuple(sorted(votes)))
            )
        elif seq > self.last_executed and len(votes) >= self.f + 1:
            # f+1 replicas vouch for a prefix we have not executed: we are
            # behind the live protocol - fetch the certified state
            self.request_state_transfer()

    def _stabilize_checkpoint(self, checkpoint: Checkpoint) -> None:
        """A 2f+1 quorum certified ``checkpoint``: adopt it and GC."""
        stable = self.stable_checkpoint
        if stable is not None and checkpoint.seq <= stable.seq:
            return
        self.stable_checkpoint = checkpoint
        # garbage-collect per-sequence state and votes the proof covers
        self.states = {
            seq: state for seq, state in self.states.items()
            if seq > checkpoint.seq
        }
        self.checkpoint_votes = {
            key: votes for key, votes in self.checkpoint_votes.items()
            if key[0] > checkpoint.seq
        }
        self.cluster.on_checkpoint_stable(checkpoint)
        if checkpoint.seq > self.last_executed:
            # certified past our execution horizon: the quorum proves at
            # least f+1 honest replicas executed the whole prefix, so we
            # adopt the certificate directly (no re-execution) and only
            # fetch the committed tail beyond it from peers
            self.sequences_skipped += checkpoint.seq - self.last_executed
            self.last_executed = checkpoint.seq
            self.exec_digest = checkpoint.digest
            self.state_manifest = {
                s: d for s, d in self.state_manifest.items()
                if s > checkpoint.seq
            }
            self.cluster.stats.state_transfers += 1
            self.request_state_transfer()
            self.try_execute()  # sequences past the jump may be committed

    # -- state transfer ----------------------------------------------------------------

    def request_state_transfer(self) -> None:
        """Broadcast STATE-REQ asking peers for a certified checkpoint.

        Rate-limited to one outstanding request per timeout window so a
        badly lagging replica does not flood the cluster while responses
        are in flight.
        """
        if self.byzantine == BYZ_SILENT:
            return
        now = self.cluster.bus.clock.now_ms()
        if now < self._state_req_cooldown_until:
            return
        self._state_req_cooldown_until = now + self.cluster.request_timeout_ms
        self._broadcast({"kind": STATE_REQ, "have": self.last_executed})

    def on_state_req(self, src: str, message: dict[str, Any]) -> None:
        have = message["have"]
        if self.last_executed <= have:
            return  # nothing the requester does not already have
        checkpoint = self.stable_checkpoint
        tail_from = max(
            have, checkpoint.seq if checkpoint is not None else -1
        ) + 1
        tail: list[tuple[int, list[Transaction]]] = []
        for seq in range(tail_from, self.last_executed + 1):
            state = self.states.get(seq)
            if state is None or not state.executed or state.batch is None:
                break  # only a contiguous committed prefix is transferable
            tail.append((seq, state.batch))
        response: dict[str, Any] = {"kind": STATE_RESP}
        if len(tail) > self.cluster.state_tail_limit:
            # the requester is too far behind for an inline tail: hand it
            # the digest manifest instead and let the payloads travel over
            # the gossip mesh; the manifest pins what it may accept
            response["manifest"] = [
                (seq, self.states[seq].digest) for seq, _batch in tail
            ]
        elif tail:
            response["tail"] = tail
        if checkpoint is not None and checkpoint.seq > have:
            response["checkpoint"] = {
                "seq": checkpoint.seq,
                "digest": checkpoint.digest,
                "votes": list(checkpoint.votes),
            }
        if len(response) == 1:
            return  # nothing but the kind marker - no useful payload
        self.cluster.send(self.node_id, src, response)

    def on_state_resp(self, src: str, message: dict[str, Any]) -> None:
        progressed = False
        proof = message.get("checkpoint")
        if proof is not None and self._install_checkpoint(proof):
            progressed = True
        manifest = message.get("manifest")
        if manifest:
            fresh = False
            for seq, digest in manifest:
                if seq > self.last_executed and seq not in self.state_manifest:
                    self.state_manifest[seq] = digest
                    fresh = True
            if fresh:
                self.cluster.stats.bulk_transfers += 1
        for seq, batch in message.get("tail", ()):
            if seq != self.last_executed + 1:
                continue  # stale, duplicated, or out-of-order tail entry
            digest = _batch_digest(batch)
            expected = self.state_manifest.get(seq)
            if expected is not None and digest != expected:
                continue  # does not match the certified manifest digest
            state = self.state(seq)
            state.batch = batch
            state.digest = digest
            state.prepared = True
            state.committed = True
            state.executed = True
            self.last_executed = seq
            self.state_manifest.pop(seq, None)
            self.exec_digest = sha256(self.exec_digest + state.digest)
            self.cluster.on_replica_executed(self, seq, batch, digest)
            self._maybe_emit_checkpoint(seq)
            progressed = True
        if progressed:
            self.cluster.stats.state_transfers += 1
            # sequences committed while we caught up may now be runnable
            self.try_execute()

    def _install_checkpoint(self, proof: dict[str, Any]) -> bool:
        """Adopt a transferred checkpoint certificate; True on a jump.

        The certificate must carry 2f+1 distinct replica votes (the same
        trust base as NEW-VIEW in this simulation - vote sets stand in
        for signatures).  Installing jumps ``last_executed`` straight to
        the checkpoint without re-running the three-phase protocol for
        any covered sequence.
        """
        seq, digest = proof["seq"], proof["digest"]
        voters = {
            voter for voter in proof.get("votes", ())
            if isinstance(voter, str) and voter.startswith("pbft-")
        }
        if len(voters) < 2 * self.f + 1 and self.n > 1:
            return False  # not a valid certificate - refuse the jump
        if seq <= self.last_executed:
            return False  # we already executed past it
        self.sequences_skipped += seq - self.last_executed
        self.last_executed = seq
        self.exec_digest = digest
        self.states = {s: st for s, st in self.states.items() if s > seq}
        self.state_manifest = {
            s: d for s, d in self.state_manifest.items() if s > seq
        }
        checkpoint = Checkpoint(seq=seq, digest=digest,
                                votes=tuple(sorted(voters)))
        self.stable_checkpoint = checkpoint
        self.checkpoint_votes = {
            key: votes for key, votes in self.checkpoint_votes.items()
            if key[0] > seq
        }
        return True


class PBFTCluster(ConsensusEngine):
    """A PBFT replica group exposed through the plug-in interface."""

    def __init__(
        self,
        bus: MessageBus,
        n: int = 4,
        batch_txs: int = 100,
        timeout_ms: float = 100.0,
        request_timeout_ms: float = 2_000.0,
        checkpoint_interval: int = 32,
        state_tail_limit: int = 64,
    ) -> None:
        super().__init__(bus)
        if n < 1:
            raise ConsensusError("PBFT needs at least one replica")
        if checkpoint_interval < 1:
            raise ConsensusError("checkpoint_interval must be positive")
        if state_tail_limit < 1:
            raise ConsensusError("state_tail_limit must be positive")
        self.n = n
        self.f = (n - 1) // 3
        self.request_timeout_ms = request_timeout_ms
        #: base of the exponential view-change escalation timers
        self.view_change_timeout_ms = request_timeout_ms
        self.checkpoint_interval = checkpoint_interval
        #: longest committed tail a STATE-RESP ships inline; beyond this
        #: the responder sends a digest manifest and the payloads move in
        #: bulk over the gossip mesh
        self.state_tail_limit = state_tail_limit
        #: the primary's requests waiting for a batch
        self._buffer = BatchBuffer(batch_txs, timeout_ms, bus)
        self.replicas = [_Replica(self, i) for i in range(n)]
        self._executed_digests: set[bytes] = set()
        #: hashes appended to the primary buffer or proposed and not yet
        #: executed - duplicates (retries and re-broadcast requests) are
        #: not buffered again
        self._in_pipeline: set[bytes] = set()
        #: executions per (seq, batch digest) - keying by digest stops a
        #: replica fed a corrupted state transfer from completing an f+1
        #: delivery quorum for a batch honest replicas never executed
        self._exec_counts: dict[tuple[int, bytes], int] = {}
        self._delivered: set[int] = set()
        self._replies: dict[bytes, ReplyCallback] = {}
        #: views / checkpoint seqs already counted in the stats
        self._views_installed: set[int] = set()
        self._stable_seqs: set[int] = set()

    # -- fault injection -----------------------------------------------------

    def make_byzantine(self, index: int, mode: str = BYZ_SILENT) -> None:
        """Turn replica ``index`` Byzantine (``silent`` or ``equivocate``)."""
        if mode not in (BYZ_SILENT, BYZ_EQUIVOCATE):
            raise ConsensusError(f"unknown Byzantine mode {mode!r}")
        self.replicas[index].byzantine = mode

    def heal_byzantine(self, index: int) -> None:
        """Restore replica ``index`` to honest behaviour (mid-run toggle)."""
        self.replicas[index].byzantine = None

    def crash(self, index: int) -> None:
        """Crash-stop a replica (drops all its traffic)."""
        self.bus.fail(f"pbft-{index}")
        self.replicas[index].byzantine = BYZ_SILENT

    def restart(self, index: int) -> None:
        """Bring a crashed replica back; it rejoins the live view on the
        next pre-prepare it receives from that view's primary, and
        immediately asks peers for a certified checkpoint so a long
        outage is recovered by state transfer, not by re-proposals."""
        self.bus.heal(f"pbft-{index}")
        replica = self.replicas[index]
        replica.byzantine = None
        replica._state_req_cooldown_until = 0.0
        self.bus.schedule(0.0, replica.request_state_transfer)

    def wipe(self, index: int) -> None:
        """Erase replica ``index``'s in-memory protocol state.

        Models a process restart that lost everything PBFT keeps in RAM:
        view, sequence counters, per-sequence vote state, the execution
        digest and the stable checkpoint.  The durable chain (the SEBDB
        node's segment files and commit log) is NOT touched - pair this
        with :meth:`reseed_replica` to prove the prefix back from a
        persisted checkpoint certificate.
        """
        replica = self.replicas[index]
        replica.view = 0
        replica.next_seq = 0
        replica.last_executed = -1
        replica.states = {}
        replica.view_change_votes = {}
        replica.pending_requests = {}
        replica.exec_digest = b"\x00" * 32
        replica.checkpoint_votes = {}
        replica.stable_checkpoint = None
        replica.sequences_skipped = 0
        replica.state_manifest = {}
        replica._state_req_cooldown_until = 0.0
        replica._vc_cooldown_until = 0.0

    def reseed_replica(self, index: int, proof: dict[str, Any]) -> bool:
        """Install a persisted checkpoint certificate into a wiped replica.

        ``proof`` is the ``{"seq", "digest", "votes"}`` mapping a SEBDB
        node recovers from its durable commit log (see
        :attr:`repro.node.FullNode.persisted_engine_checkpoint`).  The
        certificate is validated exactly like one arriving by state
        transfer - 2f+1 distinct replica votes - and on success the
        replica jumps its protocol state to the certified sequence
        without re-running the three-phase protocol.  Returns True when
        the jump happened.
        """
        return self.replicas[index]._install_checkpoint(proof)

    # -- submission -------------------------------------------------------------

    def submit(
        self, tx: Transaction, on_reply: Optional[ReplyCallback] = None
    ) -> None:
        self.stats.submitted += 1
        status = self.admit_submission(
            tx, on_reply, self._ack_source(), SUBMIT_LATENCY_MS
        )
        if status == ADMIT_REPLAYED:
            # already committed; the current primary re-acked over its
            # (faultable, possibly dead) client link
            return
        if status == ADMIT_NEW and tx.dedup_key() is None and on_reply is not None:
            self._replies[tx.hash()] = on_reply
        # ADMIT_PENDING falls through and re-broadcasts the REQUEST - the
        # original may never have reached the primary, and the re-broadcast
        # re-arms the backups' progress timers

        def arrive() -> None:
            # the client broadcasts its request so backups can monitor progress
            for replica in self.replicas:
                self.bus.send("client", replica.node_id, {"kind": REQUEST, "tx": tx})

        self.bus.schedule(SUBMIT_LATENCY_MS, arrive)

    def flush(self) -> None:
        batch = self._buffer.take_all()
        if batch:
            self._propose(batch)

    # -- primary-side batching ------------------------------------------------------

    def enqueue(self, primary: _Replica, tx: Transaction, digest: bytes) -> None:
        """Buffer a request (``digest`` its hash) at the primary; a full
        batch is proposed."""
        if digest in self._in_pipeline or digest in self._executed_digests:
            return  # a retry of a request already buffered, proposed or done
        self._in_pipeline.add(digest)
        full = self._buffer.add(tx, self.flush)
        if full is not None:
            self._propose(full, primary)

    def _propose(self, batch: list[Transaction], replica: Optional[_Replica] = None) -> None:
        if not batch:
            return
        primary = replica
        if primary is None or not primary.is_primary:
            view = max(r.view for r in self.replicas)
            primary = self.replicas[view % self.n]
        primary.propose(batch)

    def reassign_pending(
        self, new_primary: _Replica, exclude: frozenset[bytes] | set[bytes] = frozenset()
    ) -> None:
        """After a view change, the new primary re-proposes stuck requests.

        ``exclude`` holds hashes the new primary already re-proposed for
        in-flight sequences, so they are not proposed a second time.
        """
        stuck = [(digest, tx) for digest, tx in new_primary.pending_requests.items()
                 if digest not in exclude]
        new_primary.pending_requests = {}
        if stuck:
            self._in_pipeline.update(digest for digest, _ in stuck)
            self._propose([tx for _, tx in stuck], new_primary)

    # -- execution plumbing --------------------------------------------------------------

    def max_seq_seen(self) -> int:
        seqs = [max(r.states) for r in self.replicas if r.states]
        horizon = max(seqs) if seqs else -1
        return max(horizon, max(r.last_executed for r in self.replicas))

    def was_executed(self, digest: bytes) -> bool:
        return digest in self._executed_digests

    def _ack_source(self) -> str:
        """Bus id the cluster's client-facing acks originate from.

        Replies conceptually come from the replica the client talks to:
        the primary of the highest installed view.  If that replica is
        crashed or partitioned away from the client, its acks are lost on
        the wire - exactly the ambiguity the resilient client must
        tolerate.
        """
        view = max(replica.view for replica in self.replicas)
        return f"pbft-{view % self.n}"

    def on_view_installed(self, view: int) -> None:
        """First replica to install ``view`` counts it in the stats."""
        if view not in self._views_installed:
            self._views_installed.add(view)
            self.stats.view_changes += 1

    def on_checkpoint_stable(self, checkpoint: "Checkpoint") -> None:
        """First replica to certify a checkpoint publishes it outward."""
        if checkpoint.seq in self._stable_seqs:
            return
        self._stable_seqs.add(checkpoint.seq)
        self.stats.checkpoints += 1
        self._notify_checkpoint(checkpoint)

    def on_replica_executed(
        self, replica: _Replica, seq: int, batch: list[Transaction],
        batch_digest: bytes,
    ) -> None:
        """Called by each replica as it executes ``batch`` (whose digest
        it holds); drives delivery and replies."""
        key = (seq, batch_digest)
        count = self._exec_counts.get(key, 0) + 1
        self._exec_counts[key] = count
        # deliver to the SEBDB nodes once the batch is final (f+1 matching
        # executions guarantee at least one correct replica executed it)
        if count >= self.f + 1 and seq not in self._delivered:
            self._delivered.add(seq)
            # exactly-once delivery: a view change can re-propose a request
            # at a new sequence while the old one also survives, so filter
            # every transaction already delivered (cross-batch and within
            # this batch) before handing the rest to the SEBDB nodes
            fresh: list[tuple[Transaction, Optional[ReplyCallback]]] = []
            for tx in batch:
                tx_digest = tx.hash()
                if tx_digest in self._executed_digests:
                    continue
                # done, not in flight: enqueue's dedup now finds it here,
                # and no replica tracks it any more
                self._in_pipeline.discard(tx_digest)
                self._executed_digests.add(tx_digest)
                for peer in self.replicas:
                    peer.pending_requests.pop(tx_digest, None)
                fresh.append((tx, self._replies.pop(tx_digest, None)))
            if not fresh:
                return
            # the acks ride the executing replica's client link - lossy,
            # partitionable, and dead when that replica is
            self.finish_commit(
                fresh,
                replica.node_id, self.bus.clock.now_ms(),
                SUBMIT_LATENCY_MS,
            )
