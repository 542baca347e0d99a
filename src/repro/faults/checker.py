"""Post-chaos safety checking.

After a chaos run drains, the deployment must still satisfy the ledger's
safety contract (section "no worse than crash-free" of the fault model,
DESIGN.md §6):

* **Agreement** - every live node holds a byte-identical chain;
* **Integrity** - every chain re-verifies (hash chaining + Merkle roots);
* **Exactly-once** - every acknowledged client request appears on-chain
  exactly once (no loss, no duplication despite retries), and *no*
  nonce-carrying request appears more than once;
* **Typed failures** - every submission that did not commit is surfaced
  with a typed error (:class:`RetryExhausted`),
  never silently dropped.

When the run used a replicated ordering-broker cluster, pass the engine
so the broker-level contract is audited too:

* **No double-ordered batch** - the delivery log is one strictly
  increasing, gap-free sequence (a batch acked by a deposed leader was
  never re-ordered by its successor);
* **No unresolved election** - the live brokers at the highest epoch
  agree on exactly one leader;
* **Converged ISR** - every live broker's replicated log is a prefix of
  the acting leader's log.

When the deployment is sharded, pass the :class:`ShardedNode` set via
``sharded`` so the cross-shard commit contract is audited too:

* **Atomic outcome** - for every cross-shard transaction, all
  participant shards record the *same* outcome, a committed outcome is
  backed by the coordinator's commit decision, and every committed
  participant's slice is actually on that shard's chain;
* **No in-doubt survivors** - a live (recovered) node holds no PREPARE
  without a resolving OUTCOME.

:class:`InvariantChecker` evaluates all of these and either returns an
:class:`InvariantReport` or raises
:class:`~repro.common.errors.DivergenceError` listing each violation.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import TYPE_CHECKING, Optional, Sequence

from ..client.submitter import ACKED, FAILED, PENDING, ResilientSubmitter
from ..common.errors import DivergenceError, StorageError
from ..model.transaction import Transaction
from ..node.fullnode import FullNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..shard.node import ShardedNode


@dataclasses.dataclass
class InvariantReport:
    """Outcome of one invariant sweep."""

    violations: list[str] = dataclasses.field(default_factory=list)
    warnings: list[str] = dataclasses.field(default_factory=list)
    heights: dict[str, int] = dataclasses.field(default_factory=dict)
    acked: int = 0
    failed: int = 0
    pending: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"invariants {status}; heights={self.heights}; "
            f"acked={self.acked} failed={self.failed} pending={self.pending}; "
            f"warnings={len(self.warnings)}"
        )


def _slice_on_chain(shard: FullNode, prepare: object) -> bool:
    """Is every transaction of a prepared slice on the shard's chain?

    Committed copies carry pipeline-assigned tids, so presence is judged
    on signing payloads (tid- and signature-independent).
    """
    targets = {
        Transaction.from_bytes(chunk).signing_payload()
        for chunk in prepare.payload  # type: ignore[attr-defined]
    }
    found: set[bytes] = set()
    for height in range(shard.store.height):
        for tx in shard.store.read_block(height).transactions:
            payload = tx.signing_payload()
            if payload in targets:
                found.add(payload)
    return len(found) == len(targets)


class InvariantChecker:
    """Asserts chain-level and client-level safety after a chaos run."""

    def __init__(
        self,
        nodes: Sequence[FullNode] = (),
        submitters: Sequence[ResilientSubmitter] = (),
        engine: Optional[object] = None,
        sharded: Sequence["ShardedNode"] = (),
    ) -> None:
        if not nodes and not sharded:
            raise ValueError("need at least one node to check")
        self.nodes = list(nodes)
        self.submitters = list(submitters)
        self.engine = engine
        self.sharded = list(sharded)

    def check(self, raise_on_violation: bool = True) -> InvariantReport:
        report = InvariantReport()
        live = [node for node in self.nodes if not node.crashed]
        for node in self.nodes:
            report.heights[node.node_id] = node.store.height
        if self.nodes and not live:
            report.violations.append("no live nodes left to check")
        elif live:
            self._check_agreement(live, report)
            self._check_integrity(live, report)
            self._check_submissions(live[0], report)
        cluster = getattr(self.engine, "cluster", None)
        if cluster is not None:
            self._check_broker_cluster(cluster, report)
        for node in self.sharded:
            self._check_sharded(node, report)
        if raise_on_violation and report.violations:
            raise DivergenceError(
                "safety violated after chaos run:\n  - "
                + "\n  - ".join(report.violations)
            )
        return report

    # -- chain-level invariants ---------------------------------------------

    def _check_agreement(
        self, live: list[FullNode], report: InvariantReport
    ) -> None:
        reference = live[0]
        for node in live[1:]:
            if node.store.height != reference.store.height:
                report.violations.append(
                    f"height divergence: {node.node_id} at "
                    f"{node.store.height}, {reference.node_id} at "
                    f"{reference.store.height}"
                )
                continue
            for height in range(reference.store.height):
                ours = reference.store.read_block(height).to_bytes()
                theirs = node.store.read_block(height).to_bytes()
                if ours != theirs:
                    report.violations.append(
                        f"chain divergence at height {height}: "
                        f"{node.node_id} disagrees with {reference.node_id}"
                    )
                    break

    def _check_integrity(
        self, live: list[FullNode], report: InvariantReport
    ) -> None:
        for node in live:
            try:
                # the checker is the auditor of record: always re-verify
                # end to end, never trust the checkpoint fast path
                node.verify_local_chain(full=True)
            except StorageError as exc:
                report.violations.append(
                    f"{node.node_id} chain fails re-verification: {exc}"
                )
            # header timestamps must never regress across heights (the
            # pipeline clamps to the parent header when packaging)
            for height in range(1, node.store.height):
                if (node.store.header(height).timestamp
                        < node.store.header(height - 1).timestamp):
                    report.violations.append(
                        f"{node.node_id} header timestamp regresses at "
                        f"height {height}"
                    )
                    break
            log = getattr(node, "commit_log", None)
            if log is not None and log.pending() is not None:
                report.violations.append(
                    f"{node.node_id} has an unresolved commit record: a "
                    f"live node must have replayed or discarded it"
                )

    # -- broker-cluster invariants --------------------------------------------

    def _check_broker_cluster(self, cluster, report: InvariantReport) -> None:
        # no double-ordered batch: the delivery log is one strictly
        # increasing, gap-free sequence
        seqs = [seq for seq, _epoch, _digest in cluster.delivery_log]
        if seqs != list(range(len(seqs))):
            report.violations.append(
                f"broker delivery log is not a gap-free sequence: {seqs}"
            )
        live = [b for b in cluster.brokers if not b.crashed]
        if not live:
            return
        # no unresolved election: the live brokers at the highest epoch
        # agree on exactly one leader
        top_epoch = max(b.epoch for b in live)
        front = [b for b in live if b.epoch == top_epoch]
        leaders = sorted({b.leader for b in front if b.leader is not None})
        if len(leaders) != 1:
            report.violations.append(
                f"unresolved election at epoch {top_epoch}: "
                f"leaders seen {leaders}"
            )
            return
        acting = cluster.acting_leader()
        if acting is None:
            report.violations.append(
                f"no live broker claims leadership for epoch {top_epoch}"
            )
            return
        # converged ISR: every live broker's log is a prefix of the
        # acting leader's log
        for broker in live:
            if broker is acting:
                continue
            if len(broker.log) > len(acting.log):
                report.violations.append(
                    f"{broker.node_id} holds {len(broker.log)} entries, "
                    f"more than leader {acting.node_id}'s {len(acting.log)}"
                )
                continue
            for index, entry in enumerate(broker.log):
                if not entry.same_as(acting.log[index]):
                    report.violations.append(
                        f"{broker.node_id} log diverges from leader "
                        f"{acting.node_id} at entry {index}"
                    )
                    break

    # -- cross-shard commit invariants ----------------------------------------

    def _check_sharded(
        self, node: "ShardedNode", report: InvariantReport
    ) -> None:
        """Audit one sharded deployment's 2PC journals against its chains."""
        report.heights[node.node_id] = sum(
            node.shards[sid].store.height for sid in sorted(node.shards)
        )
        if node.crashed:
            return
        # per-shard chain integrity, end to end
        for sid in sorted(node.shards):
            shard = node.shards[sid]
            try:
                shard.verify_local_chain(full=True)
            except StorageError as exc:
                report.violations.append(
                    f"{shard.node_id} chain fails re-verification: {exc}"
                )
        # a live node must have resolved every prepare it ever journaled,
        # and all participants of one xid must agree on the outcome
        outcomes: dict[bytes, dict[int, bool]] = {}
        prepared: dict[bytes, dict[int, object]] = {}
        for sid in sorted(node.shards):
            log = node.shards[sid].commit_log
            for record in log.prepares():
                prepared.setdefault(record.xid, {})[sid] = record
                outcome = log.outcome_for(record.xid)
                if outcome is None:
                    report.violations.append(
                        f"{node.shards[sid].node_id} holds an in-doubt "
                        f"PREPARE {record.xid.hex()[:12]} - a live node "
                        f"must have resolved it on restart"
                    )
                    continue
                outcomes.setdefault(record.xid, {})[sid] = outcome.committed
        for xid in sorted(outcomes):
            by_shard = outcomes[xid]
            verdicts = sorted({*by_shard.values()})
            if len(verdicts) > 1:
                report.violations.append(
                    f"cross-shard tx {xid.hex()[:12]} has disagreeing "
                    f"outcomes: {by_shard}"
                )
                continue
            committed = verdicts[0]
            any_prepare = prepared[xid][sorted(by_shard)[0]]
            coordinator = any_prepare.coordinator
            decision = None
            if coordinator in node.shards:
                decision = node.shards[coordinator].commit_log.decision_for(xid)
            if committed:
                if decision is None or not decision.commit:
                    report.violations.append(
                        f"cross-shard tx {xid.hex()[:12]} committed without "
                        f"a commit decision on coordinator shard {coordinator}"
                    )
                for sid in sorted(by_shard):
                    if not _slice_on_chain(node.shards[sid], prepared[xid][sid]):
                        report.violations.append(
                            f"cross-shard tx {xid.hex()[:12]} committed but "
                            f"its slice is missing from shard {sid}'s chain"
                        )
            elif decision is not None and decision.commit:
                report.violations.append(
                    f"cross-shard tx {xid.hex()[:12]} was decided commit "
                    f"but participants recorded an abort"
                )

    # -- client-level invariants ---------------------------------------------

    def _committed_keys(self, reference: FullNode) -> Counter:
        keys: Counter = Counter()
        for block in reference.store.iter_blocks():
            for tx in block.transactions:
                key = tx.dedup_key()
                if key is not None:
                    keys[key] += 1
        return keys

    def _check_submissions(
        self, reference: FullNode, report: InvariantReport
    ) -> None:
        keys = self._committed_keys(reference)
        # global no-duplication: no nonce commits twice, acked or not
        for key, count in keys.items():
            if count > 1:
                report.violations.append(
                    f"request {key[1]!r} from {key[0]!r} committed "
                    f"{count} times"
                )
        for submitter in self.submitters:
            for record in submitter.records:
                key = (record.tx.senid, record.nonce)
                on_chain = keys.get(key, 0)
                if record.status == ACKED:
                    report.acked += 1
                    if on_chain == 0:
                        report.violations.append(
                            f"acked request {record.nonce!r} is missing "
                            f"from the chain"
                        )
                elif record.status == FAILED:
                    report.failed += 1
                    if record.error is None:
                        report.violations.append(
                            f"failed request {record.nonce!r} carries no "
                            f"typed error"
                        )
                    if on_chain:
                        # committed but the final ack was lost; the client
                        # was told the outcome is ambiguous, so this is
                        # surfaced but not a safety violation
                        report.warnings.append(
                            f"request {record.nonce!r} failed client-side "
                            f"({type(record.error).__name__}) but did commit"
                        )
                elif record.status == PENDING:
                    report.pending += 1
                    report.warnings.append(
                        f"request {record.nonce!r} still pending - run "
                        f"not fully drained"
                    )
