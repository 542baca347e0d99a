"""Blocks: header + body, exactly as Figure 3 of the paper.

Header fields: ``prev_hash``, ``height`` (blockHeight), ``timestamp``
(packaging time), ``trans_root`` (Merkle root over all transactions),
``signature``/``packager`` (who packaged the block) and ``block_hash``
(hash of the current block header).  The body is the ordered list of
transactions; a block routinely mixes transactions of several tables.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence

from ..common.codec import Reader, Writer
from ..common.errors import CodecError, StorageError
from ..common.hashing import merkle_root, sha256
from ..crypto.keys import KeyPair
from .transaction import Transaction

GENESIS_PREV_HASH = b"\x00" * 32


@dataclasses.dataclass
class BlockHeader:
    """Metadata of one block (the part thin clients keep)."""

    prev_hash: bytes
    height: int
    timestamp: int
    trans_root: bytes
    packager: str = ""
    signature: bytes = b""

    def hash_payload(self) -> bytes:
        """Canonical bytes hashed into ``block_hash`` (excludes signature)."""
        writer = Writer()
        writer.write_bytes(self.prev_hash)
        writer.write_varint(self.height)
        writer.write_varint(self.timestamp)
        writer.write_bytes(self.trans_root)
        writer.write_str(self.packager)
        return writer.getvalue()

    def block_hash(self) -> bytes:
        return sha256(self.hash_payload())

    def to_bytes(self) -> bytes:
        writer = Writer()
        writer.write_bytes(self.prev_hash)
        writer.write_varint(self.height)
        writer.write_varint(self.timestamp)
        writer.write_bytes(self.trans_root)
        writer.write_str(self.packager)
        writer.write_bytes(self.signature)
        return writer.getvalue()

    @classmethod
    def read_from(cls, reader: Reader) -> "BlockHeader":
        return cls(
            prev_hash=reader.read_bytes(),
            height=reader.read_varint(),
            timestamp=reader.read_varint(),
            trans_root=reader.read_bytes(),
            packager=reader.read_str(),
            signature=reader.read_bytes(),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BlockHeader":
        return cls.read_from(Reader(data))


@dataclasses.dataclass
class Block:
    """A sealed block: header plus ordered transactions."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]

    @classmethod
    def package(
        cls,
        prev_hash: bytes,
        height: int,
        timestamp: int,
        transactions: Sequence[Transaction],
        packager: str = "",
        keypair: Optional[KeyPair] = None,
    ) -> "Block":
        """Seal ``transactions`` into a block, computing the Merkle root.

        All transactions must already carry their global ``tid``; the
        block-level index relies on the first tid of each block being the
        smallest.
        """
        txs = tuple(transactions)
        for tx in txs:
            if not tx.is_sequenced:
                raise StorageError("cannot package an unsequenced transaction")
        root = merkle_root([tx.to_bytes() for tx in txs])
        header = BlockHeader(
            prev_hash=prev_hash,
            height=height,
            timestamp=timestamp,
            trans_root=root,
            packager=packager or (keypair.address if keypair else ""),
        )
        if keypair is not None:
            header.signature = keypair.sign(header.hash_payload())
        return cls(header=header, transactions=txs)

    @property
    def height(self) -> int:
        return self.header.height

    @property
    def timestamp(self) -> int:
        return self.header.timestamp

    @property
    def first_tid(self) -> int:
        if not self.transactions:
            raise StorageError(f"block {self.height} is empty")
        return self.transactions[0].tid

    @property
    def last_tid(self) -> int:
        if not self.transactions:
            raise StorageError(f"block {self.height} is empty")
        return self.transactions[-1].tid

    def block_hash(self) -> bytes:
        return self.header.block_hash()

    def table_names(self) -> set[str]:
        """Distinct transaction types present in this block."""
        return {tx.tname for tx in self.transactions}

    def verify_trans_root(self) -> bool:
        """Recompute the Merkle root and compare with the header.

        A block read from a store hashes the records it was decoded from
        (:meth:`Transaction.from_record`), not a re-encoding of them.
        """
        root = merkle_root([tx.to_bytes() for tx in self.transactions])
        return root == self.header.trans_root

    # -- wire format ------------------------------------------------------

    def to_bytes(self) -> bytes:
        writer = Writer()
        writer.write_bytes(self.header.to_bytes())
        writer.write_varint(len(self.transactions))
        for tx in self.transactions:
            writer.write_bytes(tx.to_bytes())
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Block":
        """Decode a block; each transaction keeps the record it came from
        (:meth:`Transaction.from_record`)."""
        reader = Reader(data)
        header = BlockHeader.from_bytes(reader.read_bytes())
        count = reader.read_varint()
        txs = []
        for _ in range(count):
            txs.append(Transaction.from_record(reader.read_bytes()))
        if reader.remaining():
            raise CodecError(
                f"{reader.remaining()} trailing bytes after block {header.height}"
            )
        return cls(header=header, transactions=tuple(txs))


def iter_table(block: Block, tname: str) -> Iterable[Transaction]:
    """Transactions of one table inside a block, in tid order."""
    lowered = tname.lower()
    return (tx for tx in block.transactions if tx.tname == lowered)
