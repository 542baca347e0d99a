"""Resilient transaction submission (retry + backoff + dedup nonces).

The paper's clients fire transactions at the ordering service and wait
for acks; under an unreliable network (lost submissions, lost acks,
crashed brokers) a naive client either hangs forever or double-submits.
:class:`ResilientSubmitter` wraps any consensus engine with the standard
production recipe:

* every transaction is stamped with a unique ``client-<seq>`` nonce,
  so the engine's :class:`~repro.consensus.base.SubmissionLedger` can
  collapse retries instead of committing them twice;
* each attempt runs under a per-attempt timeout; an unacked attempt is
  retried with exponential backoff plus deterministic jitter;
* a bounded attempt budget turns persistent failure into
  :class:`~repro.common.errors.RetryExhausted` instead of an infinite
  loop.

Everything runs on the simulated bus clock, so chaos tests are fully
deterministic for a fixed seed.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Optional

from ..common.errors import ConfigError, RetryExhausted, SebdbError
from ..consensus.base import ConsensusEngine, ReplyCallback
from ..model.transaction import Transaction
from ..network.bus import MessageBus

#: submission lifecycle states
PENDING = "pending"
ACKED = "acked"
FAILED = "failed"

#: retry backoff (ms): ``BASE * FACTOR ** (attempt - 1)`` capped at ``MAX``,
#: plus uniform jitter up to ``JITTER``
BASE_BACKOFF_MS = 50.0
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_MS = 2_000.0
JITTER_MS = 25.0


@dataclasses.dataclass
class SubmissionRecord:
    """Tracks one logical client request across all its retry attempts."""

    tx: Transaction
    nonce: str
    status: str = PENDING
    attempts: int = 0
    submitted_at: float = 0.0
    acked_at: Optional[float] = None
    #: simulated commit timestamp reported by the engine's ack
    commit_ms: Optional[float] = None
    #: terminal error for ``failed`` records (RetryExhausted)
    error: Optional[SebdbError] = None

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


class ResilientSubmitter:
    """Client-side retry pipeline in front of a consensus engine."""

    def __init__(
        self,
        engine: ConsensusEngine,
        bus: MessageBus,
        max_attempts: int = 6,
        attempt_timeout_ms: float = 800.0,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ConfigError("max_attempts must be at least 1")
        self.engine = engine
        self.bus = bus
        self.max_attempts = max_attempts
        self.attempt_timeout_ms = attempt_timeout_ms
        self._rng = random.Random(seed)
        self._seq = 0
        self.records: list[SubmissionRecord] = []

    # -- aggregate views ----------------------------------------------------

    @property
    def acked(self) -> list[SubmissionRecord]:
        return [r for r in self.records if r.status == ACKED]

    @property
    def failed(self) -> list[SubmissionRecord]:
        return [r for r in self.records if r.status == FAILED]

    @property
    def pending(self) -> list[SubmissionRecord]:
        return [r for r in self.records if r.status == PENDING]

    def total_retries(self) -> int:
        return sum(r.retries for r in self.records)

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        tx: Transaction,
        on_ack: Optional[ReplyCallback] = None,
        on_done: Optional[Callable[[SubmissionRecord], None]] = None,
    ) -> SubmissionRecord:
        """Submit ``tx``, retrying until acked or exhausted.

        The transaction is stamped with a fresh client nonce unless it
        already carries one (a caller-managed retry keeps its identity).
        Returns the live :class:`SubmissionRecord`; drive the bus to make
        progress and inspect ``record.status`` afterwards.  ``on_done``
        fires exactly once when the record leaves PENDING - on ACKED *or*
        FAILED - which is what closed-loop drivers key their next
        submission off.
        """
        if not tx.nonce:
            self._seq += 1
            tx = dataclasses.replace(tx, nonce=f"client-{self._seq}")
        record = SubmissionRecord(
            tx=tx, nonce=tx.nonce, submitted_at=self.bus.clock.now_ms()
        )
        self.records.append(record)
        self._attempt(record, on_ack, on_done)
        return record

    def _attempt(
        self,
        record: SubmissionRecord,
        on_ack: Optional[ReplyCallback],
        on_done: Optional[Callable[[SubmissionRecord], None]] = None,
    ) -> None:
        if record.status != PENDING:
            return  # acked while a retry was waiting out its backoff
        record.attempts += 1
        attempt_no = record.attempts

        def on_reply(commit_ms: float) -> None:
            if record.status != PENDING:
                return  # late ack of an attempt we already resolved
            record.status = ACKED
            record.acked_at = self.bus.clock.now_ms()
            record.commit_ms = commit_ms
            if on_ack is not None:
                on_ack(commit_ms)
            if on_done is not None:
                on_done(record)

        def on_timeout() -> None:
            if record.status != PENDING or record.attempts != attempt_no:
                return  # acked, failed, or a newer attempt is in flight
            if record.attempts >= self.max_attempts:
                record.status = FAILED
                record.error = RetryExhausted(
                    f"request {record.nonce} unacked after "
                    f"{record.attempts} attempt(s)"
                )
                if on_done is not None:
                    on_done(record)
                return
            self.bus.schedule(
                self._backoff(attempt_no),
                lambda: self._attempt(record, on_ack, on_done),
            )

        self.engine.submit(record.tx, on_reply)
        self.bus.schedule(self.attempt_timeout_ms, on_timeout)

    def _backoff(self, attempt_no: int) -> float:
        backoff = BASE_BACKOFF_MS * BACKOFF_FACTOR ** (attempt_no - 1)
        return min(MAX_BACKOFF_MS, backoff) + self._rng.uniform(0, JITTER_MS)
