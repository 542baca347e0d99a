"""On-chain transactions.

A transaction is a tuple of a declared table: five system-level attributes
(``tid``, ``ts``, ``sig``, ``senid``, ``tname``) followed by the
application-level values.  The signature covers everything except ``tid``
and ``sig`` itself, because the global transaction id is only assigned when
the ordering service sequences the transaction.

This module owns the wire layout: ``to_bytes`` / ``read_from`` write and
read it, and ``from_bytes`` decodes it in one fused pass
(:func:`_decode`, with ``read_from`` as its reference and fallback).  The
field order is written down once, next to ``to_bytes``.

A transaction is immutable by contract: build a changed one with
``dataclasses.replace``, never by assigning a field.  The contract is what
lets the wire bytes travel with the transaction (``_wire``): consensus
digests, Merkle leaves and the block store all reuse one encoding, and a
field assigned after the bytes are cached would leave them stale.  Three
places attach them - the first ``to_bytes`` of an unsequenced
transaction, :meth:`Transaction.with_tid` (the parent's bytes with the
``tid`` prefix swapped) and :meth:`Transaction.from_record` (the stored
record a block was decoded from).  ``dataclasses.replace`` starts a copy
without them.  The class is not frozen because a frozen dataclass pays
for every field on every construction, and decoding constructs one per
tuple read.
"""

from __future__ import annotations

import dataclasses
import operator
import struct
from typing import Any, Callable, Optional, Sequence

from ..common.codec import (
    TAG_BYTES,
    TAG_FALSE,
    TAG_FLOAT,
    TAG_INT,
    TAG_NONE,
    TAG_STR,
    TAG_TRUE,
    VARINT_MAX_SHIFT,
    Reader,
    Writer,
    encode_signed,
)
from ..common.errors import CodecError, SignatureError
from ..common.hashing import sha256
from ..crypto.keys import KeyPair, address_of
from ..crypto.schnorr import verify as schnorr_verify
from .schema import SYSTEM_COLUMN_NAMES, TableSchema

#: ``tid`` value of a transaction that has not been sequenced yet.
UNASSIGNED_TID = -1

#: ``tname`` of the special schema-synchronization transactions
#: (section IV-A: "The system sends a special transaction to synchronize
#: schema among nodes").
SCHEMA_TNAME = "__schema__"

#: distinct raw ``senid`` / ``tname`` byte strings :func:`_decode` interns
#: (a consortium chain has few of each).  A full cache starts over, so a
#: flood of one-off names cannot switch interning off for good.  Process-
#: wide on purpose: it maps bytes to their decoding, so sharing it changes
#: which ``str`` objects decodes return, never their values.
_NAME_CACHE_ENTRIES = 4096
_names: dict[bytes, str] = {}

#: distinct raw string values :func:`_decode` interns, in a cache of their
#: own, so a chain whose values never repeat starts only this one over
#: and never evicts the names.  Interning pays where string attributes
#: repeat (donors, projects, organisations); on unique values it costs
#: one dict insert per value.
_VALUE_CACHE_ENTRIES = 4096
_values: dict[bytes, str] = {}

_unpack_double = struct.Struct(">d").unpack_from

#: schema positions below this are the system columns, one field each
_SYSTEM_WIDTH = len(SYSTEM_COLUMN_NAMES)


@dataclasses.dataclass(slots=True)
class Transaction:
    """One on-chain tuple, immutable by contract (see the module docstring).

    Attributes
    ----------
    tid:
        Global sequence number, assigned by consensus; ``UNASSIGNED_TID``
        before ordering.
    ts:
        Client-side send timestamp in milliseconds.
    senid:
        Sender address (hash of the public key).
    tname:
        Transaction type, i.e. the table this tuple belongs to.
    values:
        Application-level attribute values, in schema order.
    pubkey / sig:
        Sender's compressed public key and Schnorr signature over the
        signing payload.  Both empty when the deployment runs unsigned
        (``sign=False`` in the client), which the benchmark harness uses
        to keep generated datasets fast.
    nonce:
        Optional client-chosen request id, unique per (senid, nonce).
        A retried submission carries the same nonce, which lets every
        consensus engine deduplicate it instead of double-committing.
        Empty for fire-and-forget submissions (no dedup).
    """

    ts: int
    senid: str
    tname: str
    values: tuple[Any, ...]
    tid: int = UNASSIGNED_TID
    pubkey: bytes = b""
    sig: bytes = b""
    nonce: str = ""
    #: the wire encoding once known; never part of equality or the repr
    _wire: Optional[bytes] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    @classmethod
    def create(
        cls,
        tname: str,
        values: Sequence[Any],
        ts: int,
        keypair: Optional[KeyPair] = None,
        sender: Optional[str] = None,
        nonce: str = "",
    ) -> "Transaction":
        """Build (and optionally sign) a fresh, unsequenced transaction."""
        senid = keypair.address if keypair is not None else (sender or "anonymous")
        tx = cls(ts=ts, senid=senid, tname=tname.lower(), values=tuple(values),
                 nonce=nonce)
        if keypair is not None:
            # nothing has encoded ``tx`` yet, so no bytes can go stale
            tx.pubkey = keypair.public_key
            tx.sig = keypair.sign(tx.signing_payload())
        return tx

    def signing_payload(self) -> bytes:
        """Canonical bytes covered by the signature (no tid, no sig)."""
        writer = Writer()
        writer.write_varint(self.ts)
        writer.write_str(self.senid)
        writer.write_str(self.tname)
        writer.write_str(self.nonce)
        writer.write_varint(len(self.values))
        for value in self.values:
            writer.write_value(value)
        return writer.getvalue()

    def dedup_key(self) -> Optional[tuple[str, str]]:
        """Identity used by consensus to collapse retried submissions.

        ``None`` when the transaction carries no nonce - such
        transactions (every benchmark and Fig 7 submission; only
        :class:`~repro.client.submitter.ResilientSubmitter` stamps
        nonces) are never deduplicated.
        """
        if not self.nonce:
            return None
        return (self.senid, self.nonce)

    def verify_signature(self) -> bool:
        """Check the Schnorr signature and that senid matches the key."""
        if not self.sig or not self.pubkey:
            return False
        if address_of(self.pubkey) != self.senid:
            return False
        return schnorr_verify(self.pubkey, self.signing_payload(), self.sig)

    def require_valid_signature(self) -> None:
        if not self.verify_signature():
            raise SignatureError(
                f"invalid signature on transaction tname={self.tname!r} "
                f"senid={self.senid!r}"
            )

    @property
    def is_sequenced(self) -> bool:
        return self.tid != UNASSIGNED_TID

    def with_tid(self, tid: int) -> "Transaction":
        """Copy of this transaction with the global id assigned.

        ``tid`` is the first wire field, so the copy inherits this
        transaction's bytes, if it has them, with the ``tid`` prefix
        swapped.
        """
        sequenced = Transaction(self.ts, self.senid, self.tname, self.values,
                                tid, self.pubkey, self.sig, self.nonce)
        wire = self._wire
        if wire is not None:
            end = 0
            while wire[end] & 0x80:
                end += 1
            sequenced._wire = encode_signed(tid) + wire[end + 1:]
        return sequenced

    # -- row view ---------------------------------------------------------

    def row(self) -> tuple[Any, ...]:
        """Full tuple: system columns then application columns."""
        return (self.tid, self.ts, self.sig, self.senid, self.tname) + self.values

    def as_dict(self, schema: Optional[TableSchema] = None) -> dict[str, Any]:
        """Mapping column name -> value; app columns need the schema."""
        out: dict[str, Any] = {
            "tid": self.tid,
            "ts": self.ts,
            "sig": self.sig,
            "senid": self.senid,
            "tname": self.tname,
        }
        if schema is not None:
            for col, value in zip(schema.app_columns, self.values):
                out[col.name] = value
        else:
            for i, value in enumerate(self.values):
                out[f"v{i}"] = value
        return out

    def get(self, column: str, schema: TableSchema) -> Any:
        """Value of ``column`` according to ``schema``."""
        position = schema.column_index(column)
        if position < _SYSTEM_WIDTH:
            return getattr(self, SYSTEM_COLUMN_NAMES[position])
        return self.values[position - _SYSTEM_WIDTH]

    # -- wire format ------------------------------------------------------
    #
    # Field order: tid, ts, sig, pubkey, senid, tname, nonce, values.
    # ``tid`` first is load-bearing: :meth:`with_tid` swaps the leading
    # field, so :func:`_encode`, ``read_from``, :func:`_decode` and
    # ``with_tid`` change together or not at all (and a change re-encodes
    # every chain).

    def to_bytes(self) -> bytes:
        """The wire encoding: the attached bytes, else a fresh encode.

        An unsequenced transaction keeps its first encoding, so every
        digest consensus takes of it, and every sequenced copy, reuses
        it.  A sequenced transaction attaches bytes only through
        :meth:`with_tid` or :meth:`from_record`: the copies a point read
        caches stay as small as they were decoded.
        """
        wire = self._wire
        if wire is None:
            wire = _encode(self)
            if self.tid == UNASSIGNED_TID:
                self._wire = wire
        return wire

    @classmethod
    def read_from(cls, reader: Reader) -> "Transaction":
        """Decode one transaction from ``reader``, one call per field.

        The reference decoder: :meth:`from_bytes` falls back to it on
        every shape its fused kernel does not handle, and it is what
        raises the canonical :class:`CodecError`.
        """
        tid = reader.read_signed()
        ts = reader.read_varint()
        sig = reader.read_bytes()
        pubkey = reader.read_bytes()
        senid = reader.read_str()
        tname = reader.read_str()
        nonce = reader.read_str()
        count = reader.read_varint()
        values = tuple(reader.read_value() for _ in range(count))
        return cls(
            tid=tid, ts=ts, sig=sig, pubkey=pubkey, senid=senid,
            tname=tname, values=values, nonce=nonce,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Transaction":
        """Decode exactly one encoding; trailing bytes are an error.

        :func:`_decode` takes the common shapes in one pass; anything it
        does not handle - a multi-byte length, bytes that run out, bad
        UTF-8, a varint past the cap or not minimal, an unknown tag,
        trailing bytes - is decoded (or refused with :class:`CodecError`)
        by :meth:`read_from`.
        """
        try:
            tx = _decode(data)
        except (IndexError, UnicodeDecodeError, struct.error):
            tx = None
        if tx is not None:
            return tx
        reader = Reader(data)
        tx = cls.read_from(reader)
        if reader.remaining():
            raise CodecError(
                f"{reader.remaining()} trailing bytes after transaction"
            )
        return tx

    @classmethod
    def from_record(cls, record: bytes) -> "Transaction":
        """Decode a stored record and keep it as the wire bytes.

        Decoding accepts one spelling per value, so the record is what
        :func:`_encode` would write; hashes and re-serializations of the
        result read the bytes the chain stored.
        """
        tx = cls.from_bytes(record)
        tx._wire = record
        return tx

    def hash(self) -> bytes:
        """Hash over the full serialized transaction (Merkle leaf input)."""
        return sha256(self.to_bytes())

    def size_bytes(self) -> int:
        """Serialized size: the length of :meth:`to_bytes`."""
        return len(self.to_bytes())

    def wire_matches_fields(self) -> bool:
        """Whether the attached bytes, if any, still encode the fields.

        False only when a field was assigned after the bytes were
        attached, which breaks the contract.  Catch-up asks it of a peer's
        in-memory transactions, which this node did not decode itself:
        the Merkle root covers the bytes, the catalog and indexes read
        the fields.
        """
        return self._wire is None or _encode(self) == self._wire


def column_getter(position: int) -> Callable[[Transaction], Any]:
    """Reads the column at ``position`` of a schema's columns off a
    transaction: a system column's field, or an application value."""
    if position < _SYSTEM_WIDTH:
        return operator.attrgetter(SYSTEM_COLUMN_NAMES[position])
    index = position - _SYSTEM_WIDTH
    return lambda tx: tx.values[index]


def _encode(tx: Transaction) -> bytes:
    """The full encode behind :meth:`Transaction.to_bytes`."""
    writer = Writer()
    writer.write_signed(tx.tid)
    writer.write_varint(tx.ts)
    writer.write_bytes(tx.sig)
    writer.write_bytes(tx.pubkey)
    writer.write_str(tx.senid)
    writer.write_str(tx.tname)
    writer.write_str(tx.nonce)
    writer.write_varint(len(tx.values))
    for value in tx.values:
        writer.write_value(value)
    return writer.getvalue()


def _intern(raw: bytes, cache: dict[bytes, str], entries: int) -> str:
    """Decode a string ``cache`` does not hold yet, and keep it there."""
    text = raw.decode("utf-8")
    if len(cache) >= entries:
        cache.clear()
    cache[raw] = text
    return text


def _decode(data: bytes) -> Optional[Transaction]:
    """The fused kernel behind :meth:`Transaction.from_bytes`.

    One pass with a local ``pos``: varints inline, strings and bytes
    sliced straight out of the buffer, ``senid`` / ``tname`` and string
    values interned.
    It returns ``None`` on every shape it leaves to the reference decoder
    (a length or count of 128 or more, a varint past the cap or not
    minimal, an unknown tag, a buffer that does not end where the
    transaction does) and lets ``IndexError``, ``UnicodeDecodeError`` and
    ``struct.error`` escape on bytes that run out or are not UTF-8.  So it never decides what an
    error is: it accepts only what :meth:`Transaction.read_from` accepts,
    and decodes it to the same transaction.
    """
    # tid: zig-zag varint.  Each varint loop checks the cap before it
    # reads the next byte, where Reader checks it after: same bound.  A
    # zero byte read inside a loop ends a non-minimal varint.
    byte = data[0]
    raw = byte & 0x7F
    pos = 1
    shift = 7
    while byte & 0x80:
        if shift > VARINT_MAX_SHIFT:
            return None
        byte = data[pos]
        if not byte:
            return None
        pos += 1
        raw |= (byte & 0x7F) << shift
        shift += 7
    tid = (raw >> 1) ^ -(raw & 1)
    # ts: varint
    byte = data[pos]
    pos += 1
    ts = byte & 0x7F
    shift = 7
    while byte & 0x80:
        if shift > VARINT_MAX_SHIFT:
            return None
        byte = data[pos]
        if not byte:
            return None
        pos += 1
        ts |= (byte & 0x7F) << shift
        shift += 7
    # sig, pubkey, senid, tname, nonce: one-byte lengths.  A slice cut
    # short by the end of the buffer moves ``pos`` past it, so the next
    # ``data[pos]`` (or the final length check) catches it.
    length = data[pos]
    if length & 0x80:
        return None
    pos += 1
    sig = data[pos : pos + length]
    pos += length
    length = data[pos]
    if length & 0x80:
        return None
    pos += 1
    pubkey = data[pos : pos + length]
    pos += length
    length = data[pos]
    if length & 0x80:
        return None
    pos += 1
    raw_name = data[pos : pos + length]
    pos += length
    senid = _names.get(raw_name)
    if senid is None:
        senid = _intern(raw_name, _names, _NAME_CACHE_ENTRIES)
    length = data[pos]
    if length & 0x80:
        return None
    pos += 1
    raw_name = data[pos : pos + length]
    pos += length
    tname = _names.get(raw_name)
    if tname is None:
        tname = _intern(raw_name, _names, _NAME_CACHE_ENTRIES)
    length = data[pos]
    if length & 0x80:
        return None
    pos += 1
    nonce = data[pos : pos + length].decode("utf-8")
    pos += length
    count = data[pos]
    if count & 0x80:
        return None
    pos += 1
    values = []
    append = values.append
    for _ in range(count):
        tag = data[pos]
        pos += 1
        if tag == TAG_STR:
            length = data[pos]
            if length & 0x80:
                return None
            pos += 1
            raw_value = data[pos : pos + length]
            pos += length
            value = _values.get(raw_value)
            if value is None:
                value = _intern(raw_value, _values, _VALUE_CACHE_ENTRIES)
            append(value)
        elif tag == TAG_FLOAT:
            append(_unpack_double(data, pos)[0])
            pos += 8
        elif tag == TAG_INT:
            byte = data[pos]
            pos += 1
            raw = byte & 0x7F
            shift = 7
            while byte & 0x80:
                if shift > VARINT_MAX_SHIFT:
                    return None
                byte = data[pos]
                if not byte:
                    return None
                pos += 1
                raw |= (byte & 0x7F) << shift
                shift += 7
            append((raw >> 1) ^ -(raw & 1))
        elif tag == TAG_BYTES:
            length = data[pos]
            if length & 0x80:
                return None
            pos += 1
            append(data[pos : pos + length])
            pos += length
        elif tag == TAG_NONE:
            append(None)
        elif tag == TAG_FALSE:
            append(False)
        elif tag == TAG_TRUE:
            append(True)
        else:
            return None
    if pos != len(data):
        return None
    return Transaction(ts, senid, tname, tuple(values), tid, pubkey, sig, nonce)


def schema_sync_transaction(schema: TableSchema, ts: int,
                            keypair: Optional[KeyPair] = None) -> Transaction:
    """The special transaction that replicates a CREATE to all nodes."""
    return Transaction.create(
        SCHEMA_TNAME, (schema.to_bytes(),), ts=ts, keypair=keypair,
        sender="system",
    )


def schema_from_sync_transaction(tx: Transaction) -> TableSchema:
    """Inverse of :func:`schema_sync_transaction`."""
    if tx.tname != SCHEMA_TNAME or len(tx.values) != 1:
        raise SignatureError("not a schema synchronization transaction")
    return TableSchema.from_bytes(tx.values[0])
