"""Binary codec for on-chain structures.

Transactions and blocks are serialized to a compact, deterministic binary
format: deterministic so that hashes and signatures are stable across
nodes, compact because the block store appends raw bytes to segment files.

Wire format primitives
----------------------
* varint        - unsigned LEB128, minimal (see ``NON_MINIMAL_VARINT``)
* bytes         - varint length prefix + raw bytes
* str           - UTF-8 via the bytes encoding
* int (signed)  - zig-zag then varint
* float         - 8-byte IEEE-754 big endian
* value         - 1 type tag byte + payload (supports None, bool, int,
                  float, str, bytes)
"""

from __future__ import annotations

import struct
from typing import Any

from .errors import CodecError

#: value tags; ``model.transaction``'s fused decoder reads them too
TAG_NONE = 0
TAG_FALSE = 1
TAG_TRUE = 2
TAG_INT = 3
TAG_FLOAT = 4
TAG_STR = 5
TAG_BYTES = 6

#: :meth:`Reader.read_varint` gives up once its shift passes this many
#: bits; Python ints are unbounded, so the cap only guards against a
#: maliciously endless continuation-bit stream
VARINT_MAX_SHIFT = 1024

#: A varint is spelt in as few bytes as its value needs: the byte that
#: ends it (continuation bit clear) is zero only when it is the only
#: byte.  ``b"\x86\x00"`` spells 6 in two bytes, so every varint reader
#: refuses it with this message - one spelling per value, so a decoded
#: record re-encodes to the bytes it was read from and a hash over
#: either agrees.
NON_MINIMAL_VARINT = "non-minimal varint"


def encode_varint(value: int) -> bytes:
    """The minimal varint spelling of ``value``."""
    if value < 0:
        raise CodecError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_signed(value: int) -> bytes:
    """The zig-zag varint spelling of a signed ``value``."""
    # zig-zag encoding maps signed ints onto unsigned ones:
    # 0, -1, 1, -2, 2 ... -> 0, 1, 2, 3, 4 ...
    return encode_varint(2 * value if value >= 0 else -2 * value - 1)


class Writer:
    """Append-only binary writer."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def write_raw(self, data: bytes) -> None:
        self._parts.append(data)

    def write_varint(self, value: int) -> None:
        self._parts.append(encode_varint(value))

    def write_signed(self, value: int) -> None:
        self._parts.append(encode_signed(value))

    def write_bytes(self, data: bytes) -> None:
        self.write_varint(len(data))
        self._parts.append(data)

    def write_str(self, text: str) -> None:
        self.write_bytes(text.encode("utf-8"))

    def write_float(self, value: float) -> None:
        self._parts.append(struct.pack(">d", value))

    def write_value(self, value: Any) -> None:
        """Write a tagged dynamic value (a tuple attribute)."""
        if value is None:
            self._parts.append(bytes([TAG_NONE]))
        elif value is False:
            self._parts.append(bytes([TAG_FALSE]))
        elif value is True:
            self._parts.append(bytes([TAG_TRUE]))
        elif isinstance(value, int):
            self._parts.append(bytes([TAG_INT]))
            self.write_signed(value)
        elif isinstance(value, float):
            self._parts.append(bytes([TAG_FLOAT]))
            self.write_float(value)
        elif isinstance(value, str):
            self._parts.append(bytes([TAG_STR]))
            self.write_str(value)
        elif isinstance(value, (bytes, bytearray)):
            self._parts.append(bytes([TAG_BYTES]))
            self.write_bytes(bytes(value))
        else:
            raise CodecError(f"unsupported value type: {type(value).__name__}")

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Sequential binary reader over a bytes buffer."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._pos = offset

    @property
    def position(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def read_raw(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CodecError(
                f"buffer underflow: need {n} bytes at {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def read_varint(self) -> int:
        result = 0
        shift = 0
        while True:
            if self._pos >= len(self._data):
                raise CodecError("buffer underflow while reading varint")
            byte = self._data[self._pos]
            self._pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if not byte and shift:
                    raise CodecError(NON_MINIMAL_VARINT)
                return result
            shift += 7
            if shift > VARINT_MAX_SHIFT:
                raise CodecError("varint too long")

    def read_signed(self) -> int:
        raw = self.read_varint()
        return (raw >> 1) ^ -(raw & 1)

    def read_bytes(self) -> bytes:
        length = self.read_varint()
        return self.read_raw(length)

    def read_str(self) -> str:
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 string: {exc}") from exc

    def read_float(self) -> float:
        return struct.unpack(">d", self.read_raw(8))[0]

    def read_value(self) -> Any:
        tag = self.read_raw(1)[0]
        if tag == TAG_NONE:
            return None
        if tag == TAG_FALSE:
            return False
        if tag == TAG_TRUE:
            return True
        if tag == TAG_INT:
            return self.read_signed()
        if tag == TAG_FLOAT:
            return self.read_float()
        if tag == TAG_STR:
            return self.read_str()
        if tag == TAG_BYTES:
            return self.read_bytes()
        raise CodecError(f"unknown value tag {tag}")
