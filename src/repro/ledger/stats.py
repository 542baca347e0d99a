"""Write-path observability: per-stage counters and durations.

The read path got EXPLAIN ANALYZE in PR 3; :class:`LedgerStats` is the
write path's counterpart.  Every block that commits through the
:class:`~repro.ledger.pipeline.LedgerPipeline` increments one counter per
stage (validate / sequence / package / persist / apply / notify) and
accumulates the stage's wall time, so ``\\stats`` and the Fig 7 benchmark
can break a batch's commit latency down by stage.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Dict, Iterator

#: canonical stage order, as the block lifecycle runs them
STAGES: tuple[str, ...] = (
    "validate", "sequence", "package", "persist", "apply", "notify"
)


@dataclasses.dataclass
class StageStats:
    """Counters for one pipeline stage."""

    calls: int = 0
    txs: int = 0
    wall_ms: float = 0.0

    def ms_per_call(self) -> float:
        return self.wall_ms / self.calls if self.calls else 0.0


@dataclasses.dataclass
class LedgerStats:
    """Counters the whole pipeline maintains (write-path observability)."""

    stages: Dict[str, StageStats] = dataclasses.field(
        default_factory=lambda: {name: StageStats() for name in STAGES}
    )
    #: blocks packaged locally from consensus-ordered batches
    blocks_committed: int = 0
    #: blocks adopted from peers (sync / gossip catch-up)
    blocks_adopted: int = 0
    txs_committed: int = 0
    #: transactions dropped in validate for invalid signatures
    txs_rejected: int = 0
    #: rejected transactions evicted from the bounded rejection buffer
    rejected_dropped: int = 0
    #: full Schnorr verifications actually executed
    sig_checks: int = 0
    #: verifications skipped because the verified-signature LRU hit
    sig_cache_hits: int = 0
    #: aggregate (random-linear-combination) batch probes performed
    sig_aggregate_checks: int = 0
    #: per-signature fallbacks taken while bisecting a failing batch
    sig_single_checks: int = 0
    wal_begun: int = 0
    wal_committed: int = 0
    #: pending commit records resolved as complete on restart
    wal_replayed: int = 0
    #: pending commit records resolved as torn (tail truncated) on restart
    wal_discarded: int = 0
    #: durable engine checkpoints recorded through the commit log
    checkpoints_recorded: int = 0
    #: certified adoption anchors installed for bulk state transfer
    anchors_trusted: int = 0
    #: adopted blocks that were verified against an adoption anchor
    anchor_checks: int = 0

    def stage(self, name: str) -> StageStats:
        return self.stages[name]

    @contextlib.contextmanager
    def timed(self, name: str, txs: int = 0) -> Iterator[None]:
        """Time one stage invocation and fold it into the counters."""
        t0 = time.perf_counter()  # sebdb: allow[determinism] stats only
        try:
            yield
        finally:
            stage = self.stages[name]
            stage.calls += 1
            stage.txs += txs
            wall = time.perf_counter() - t0  # sebdb: allow[determinism] stats only
            stage.wall_ms += wall * 1000.0

    def stage_breakdown(self) -> Dict[str, float]:
        """Average wall ms per invocation, keyed by stage name."""
        return {name: self.stages[name].ms_per_call() for name in STAGES}

    def reset(self) -> None:
        for stage in self.stages.values():
            stage.calls = 0
            stage.txs = 0
            stage.wall_ms = 0.0
        self.blocks_committed = 0
        self.blocks_adopted = 0
        self.txs_committed = 0
        self.txs_rejected = 0
        self.rejected_dropped = 0
        self.sig_checks = 0
        self.sig_cache_hits = 0
        self.sig_aggregate_checks = 0
        self.sig_single_checks = 0
        self.wal_begun = 0
        self.wal_committed = 0
        self.wal_replayed = 0
        self.wal_discarded = 0
        self.checkpoints_recorded = 0
        self.anchors_trusted = 0
        self.anchor_checks = 0

    def summary_lines(self) -> list[str]:
        """Human-readable rendering (folded into the CLI's \\stats)."""
        lines = [
            f"write path:   {self.blocks_committed} committed, "
            f"{self.blocks_adopted} adopted, {self.txs_rejected} tx rejected "
            f"({self.rejected_dropped} dropped from buffer)",
            f"signatures:   {self.sig_checks} verified, "
            f"{self.sig_cache_hits} cache hits, "
            f"{self.sig_aggregate_checks} aggregate / "
            f"{self.sig_single_checks} single probes",
            f"commit log:   {self.wal_committed}/{self.wal_begun} records, "
            f"{self.wal_replayed} replayed, {self.wal_discarded} discarded, "
            f"{self.checkpoints_recorded} checkpoints",
            f"anchors:      {self.anchors_trusted} trusted, "
            f"{self.anchor_checks} adoption checks",
            "stages:",
        ]
        for name in STAGES:
            stage = self.stages[name]
            lines.append(
                f"  {name:<9} {stage.calls:>6} call(s)  "
                f"{stage.wall_ms:8.3f} ms total  "
                f"{stage.ms_per_call():8.4f} ms/call"
            )
        return lines
