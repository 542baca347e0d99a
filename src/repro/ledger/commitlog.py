"""The write-ahead commit log.

A tiny intent log that makes the segment append atomic *as observed
after a crash*: the persist stage writes ``BEGIN(height, hash, length)``
before touching the segment file and ``COMMIT(height)`` after the append
returns.  On restart a ``BEGIN`` without its ``COMMIT`` proves the
trailing segment bytes belong to a block whose append was interrupted -
recovery then either *replays* (the block parsed back complete: write
the missing ``COMMIT``) or *discards* (truncate the torn tail past the
last complete block and write ``ABORT``), deterministically.

The same log persists the consensus engine's stable checkpoints
(``CHECKPOINT(seq, digest, votes, height, tip_hash)``): a node that lost
its process state proves its chain prefix from the newest record instead
of re-verifying every Merkle root, and a PBFT replica reseeds its
protocol state from the recorded certificate.

Records are length-prefixed with the repro codec, so a crash mid-log-
write leaves a torn final record that load simply drops - the log heals
the segments and the segments never need to heal the log.  A ``None``
data dir keeps records in memory (tests, benchmarks); durability then
means "survives :meth:`FullNode.crash`", matching the simulated segment
files.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional, Union

from ..common.codec import Reader, Writer
from ..common.errors import CodecError, LedgerError

_KIND_BEGIN = 1
_KIND_COMMIT = 2
_KIND_ABORT = 3
_KIND_CHECKPOINT = 4
_KIND_PREPARE = 5
_KIND_DECISION = 6
_KIND_OUTCOME = 7

LOG_NAME = "commit.log"


@dataclasses.dataclass(frozen=True)
class BeginRecord:
    """Intent to append one block (written before the segment write)."""

    height: int
    block_hash: bytes
    length: int


@dataclasses.dataclass(frozen=True)
class CommitRecord:
    """The append at ``height`` completed."""

    height: int


@dataclasses.dataclass(frozen=True)
class AbortRecord:
    """The append at ``height`` was torn and its tail discarded."""

    height: int


@dataclasses.dataclass(frozen=True)
class CheckpointRecord:
    """A durable engine checkpoint pinned to a chain position.

    ``seq``/``digest``/``votes`` mirror the consensus certificate
    (:class:`repro.consensus.base.Checkpoint`) without importing it -
    the ledger sits below the consensus band; ``height``/``tip_hash``
    pin the chain prefix the certificate covers.
    """

    seq: int
    digest: bytes
    votes: tuple[str, ...]
    height: int
    tip_hash: bytes


@dataclasses.dataclass(frozen=True)
class PrepareRecord:
    """A shard's vote to commit its slice of a cross-shard transaction.

    Written by a 2PC participant *before* the coordinator decides.
    ``payload`` carries the participant's encoded transactions so
    recovery can replay the slice without re-contacting the client;
    ``height`` pins the shard's chain height at prepare time, letting
    recovery detect a slice that was already applied (crash after the
    block append but before the OUTCOME record).
    """

    xid: bytes
    shard: int
    coordinator: int
    participants: tuple[int, ...]
    payload: tuple[bytes, ...]
    height: int


@dataclasses.dataclass(frozen=True)
class DecisionRecord:
    """The coordinator's global verdict for a cross-shard transaction.

    Only ever written to the *coordinator shard's* log; its presence
    with ``commit=True`` is the commit point of the whole transaction.
    Recovery on any participant resolves an in-doubt PREPARE by looking
    this record up - absent means presumed abort.
    """

    xid: bytes
    commit: bool


@dataclasses.dataclass(frozen=True)
class OutcomeRecord:
    """A participant finished acting on the decision (applied or aborted)."""

    xid: bytes
    committed: bool


LogRecord = Union[
    BeginRecord, CommitRecord, AbortRecord, CheckpointRecord,
    PrepareRecord, DecisionRecord, OutcomeRecord,
]


def _encode(record: LogRecord) -> bytes:
    writer = Writer()
    if isinstance(record, BeginRecord):
        writer.write_varint(_KIND_BEGIN)
        writer.write_varint(record.height)
        writer.write_bytes(record.block_hash)
        writer.write_varint(record.length)
    elif isinstance(record, CommitRecord):
        writer.write_varint(_KIND_COMMIT)
        writer.write_varint(record.height)
    elif isinstance(record, AbortRecord):
        writer.write_varint(_KIND_ABORT)
        writer.write_varint(record.height)
    elif isinstance(record, CheckpointRecord):
        writer.write_varint(_KIND_CHECKPOINT)
        writer.write_varint(record.seq)
        writer.write_bytes(record.digest)
        writer.write_varint(len(record.votes))
        for vote in record.votes:
            writer.write_str(vote)
        writer.write_varint(record.height)
        writer.write_bytes(record.tip_hash)
    elif isinstance(record, PrepareRecord):
        writer.write_varint(_KIND_PREPARE)
        writer.write_bytes(record.xid)
        writer.write_varint(record.shard)
        writer.write_varint(record.coordinator)
        writer.write_varint(len(record.participants))
        for participant in record.participants:
            writer.write_varint(participant)
        writer.write_varint(len(record.payload))
        for chunk in record.payload:
            writer.write_bytes(chunk)
        writer.write_varint(record.height)
    elif isinstance(record, DecisionRecord):
        writer.write_varint(_KIND_DECISION)
        writer.write_bytes(record.xid)
        writer.write_varint(1 if record.commit else 0)
    elif isinstance(record, OutcomeRecord):
        writer.write_varint(_KIND_OUTCOME)
        writer.write_bytes(record.xid)
        writer.write_varint(1 if record.committed else 0)
    else:  # pragma: no cover - exhaustive over LogRecord
        raise LedgerError(f"unknown record type {type(record).__name__}")
    return writer.getvalue()


def _decode(payload: bytes) -> LogRecord:
    reader = Reader(payload)
    kind = reader.read_varint()
    if kind == _KIND_BEGIN:
        return BeginRecord(
            height=reader.read_varint(),
            block_hash=reader.read_bytes(),
            length=reader.read_varint(),
        )
    if kind == _KIND_COMMIT:
        return CommitRecord(height=reader.read_varint())
    if kind == _KIND_ABORT:
        return AbortRecord(height=reader.read_varint())
    if kind == _KIND_CHECKPOINT:
        seq = reader.read_varint()
        digest = reader.read_bytes()
        votes = tuple(reader.read_str() for _ in range(reader.read_varint()))
        return CheckpointRecord(
            seq=seq,
            digest=digest,
            votes=votes,
            height=reader.read_varint(),
            tip_hash=reader.read_bytes(),
        )
    if kind == _KIND_PREPARE:
        xid = reader.read_bytes()
        shard = reader.read_varint()
        coordinator = reader.read_varint()
        participants = tuple(
            reader.read_varint() for _ in range(reader.read_varint())
        )
        payload = tuple(
            reader.read_bytes() for _ in range(reader.read_varint())
        )
        return PrepareRecord(
            xid=xid, shard=shard, coordinator=coordinator,
            participants=participants, payload=payload,
            height=reader.read_varint(),
        )
    if kind == _KIND_DECISION:
        return DecisionRecord(
            xid=reader.read_bytes(), commit=bool(reader.read_varint())
        )
    if kind == _KIND_OUTCOME:
        return OutcomeRecord(
            xid=reader.read_bytes(), committed=bool(reader.read_varint())
        )
    raise LedgerError(f"unknown commit-log record kind {kind}")


class CommitLog:
    """Append-only log of :class:`LogRecord` entries, on disk or in memory."""

    def __init__(self, data_dir: Optional[Path] = None) -> None:
        self._path = Path(data_dir) / LOG_NAME if data_dir is not None else None
        self._records: list[LogRecord] = []
        #: torn trailing bytes dropped while loading the log itself
        self.torn_log_bytes = 0
        if self._path is not None and self._path.exists():
            self._load(self._path.read_bytes())

    def _load(self, data: bytes) -> None:
        reader = Reader(data)
        while reader.remaining():
            position = reader.position
            try:
                self._records.append(_decode(reader.read_bytes()))
            except (CodecError, LedgerError):
                # a crash mid-log-write tears the final record; drop it
                self.torn_log_bytes = len(data) - position
                return

    def _append(self, record: LogRecord) -> None:
        self._records.append(record)
        if self._path is not None:
            writer = Writer()
            writer.write_bytes(_encode(record))
            with open(self._path, "ab") as fh:
                fh.write(writer.getvalue())

    # -- writes ------------------------------------------------------------

    def begin(self, height: int, block_hash: bytes, length: int) -> None:
        """Record the intent to append a block (before the segment write)."""
        if self.pending() is not None:
            raise LedgerError(
                f"commit record at height {height} opened while another "
                f"is still pending"
            )
        self._append(BeginRecord(height=height, block_hash=block_hash,
                                 length=length))

    def commit(self, height: int) -> None:
        self._append(CommitRecord(height=height))

    def abort(self, height: int) -> None:
        self._append(AbortRecord(height=height))

    def record_checkpoint(
        self, seq: int, digest: bytes, votes: tuple[str, ...],
        height: int, tip_hash: bytes,
    ) -> None:
        self._append(CheckpointRecord(
            seq=seq, digest=digest, votes=tuple(votes),
            height=height, tip_hash=tip_hash,
        ))

    def prepare(
        self, xid: bytes, shard: int, coordinator: int,
        participants: tuple[int, ...], payload: tuple[bytes, ...],
        height: int,
    ) -> None:
        """Journal this shard's PREPARE vote for a cross-shard commit."""
        self._append(PrepareRecord(
            xid=xid, shard=shard, coordinator=coordinator,
            participants=tuple(participants), payload=tuple(payload),
            height=height,
        ))

    def decide(self, xid: bytes, commit: bool) -> None:
        """Journal the coordinator's global decision (the commit point)."""
        if self.decision_for(xid) is not None:
            raise LedgerError(
                f"duplicate 2PC decision for xid {xid.hex()[:12]}"
            )
        self._append(DecisionRecord(xid=xid, commit=commit))

    def outcome(self, xid: bytes, committed: bool) -> None:
        """Journal that this participant finished acting on the decision."""
        self._append(OutcomeRecord(xid=xid, committed=committed))

    # -- reads -------------------------------------------------------------

    @property
    def records(self) -> list[LogRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def pending(self) -> Optional[BeginRecord]:
        """The open BEGIN record, if the last append never resolved."""
        open_begin: Optional[BeginRecord] = None
        for record in self._records:
            if isinstance(record, BeginRecord):
                open_begin = record
            elif isinstance(record, (CommitRecord, AbortRecord)):
                if open_begin is not None and record.height == open_begin.height:
                    open_begin = None
        return open_begin

    def checkpoints(self) -> list[CheckpointRecord]:
        return [r for r in self._records if isinstance(r, CheckpointRecord)]

    def latest_checkpoint(self) -> Optional[CheckpointRecord]:
        for record in reversed(self._records):
            if isinstance(record, CheckpointRecord):
                return record
        return None

    def prepares(self) -> list[PrepareRecord]:
        return [r for r in self._records if isinstance(r, PrepareRecord)]

    def decision_for(self, xid: bytes) -> Optional[DecisionRecord]:
        for record in self._records:
            if isinstance(record, DecisionRecord) and record.xid == xid:
                return record
        return None

    def outcome_for(self, xid: bytes) -> Optional[OutcomeRecord]:
        for record in self._records:
            if isinstance(record, OutcomeRecord) and record.xid == xid:
                return record
        return None

    def in_doubt(self) -> list[PrepareRecord]:
        """PREPARE records with no OUTCOME - unresolved after a crash."""
        resolved = {r.xid for r in self._records
                    if isinstance(r, OutcomeRecord)}
        return [r for r in self._records
                if isinstance(r, PrepareRecord) and r.xid not in resolved]

    def trusted_anchor(self) -> Optional[tuple[int, bytes]]:
        """Newest checkpointed ``(height, tip_hash)`` - recovery's anchor."""
        latest = self.latest_checkpoint()
        if latest is None:
            return None
        return latest.height, latest.tip_hash
