"""The ledger pipeline: SEBDB's single, staged write path.

Consensus orders; this package commits.  See :mod:`repro.ledger.pipeline`
for the stage contract and :mod:`repro.ledger.commitlog` for the durable
commit/checkpoint records (including the 2PC PREPARE/DECISION/OUTCOME
records the sharded cross-shard commit journals).
"""

from .commitlog import (
    AbortRecord,
    BeginRecord,
    CheckpointRecord,
    CommitLog,
    CommitRecord,
    DecisionRecord,
    OutcomeRecord,
    PrepareRecord,
)
from .pipeline import CRASH_AFTER_APPEND, CRASH_TORN, LedgerPipeline
from .stats import STAGES, LedgerStats, StageStats

__all__ = [
    "AbortRecord",
    "BeginRecord",
    "CheckpointRecord",
    "CommitLog",
    "CommitRecord",
    "CRASH_AFTER_APPEND",
    "CRASH_TORN",
    "DecisionRecord",
    "LedgerPipeline",
    "LedgerStats",
    "OutcomeRecord",
    "PrepareRecord",
    "StageStats",
    "STAGES",
]
