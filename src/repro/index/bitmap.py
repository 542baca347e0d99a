"""Bitmaps over block ids.

The table-level index and the first level of the layered index both answer
"which blocks can contain anything relevant?" with a bitmap whose i-th bit
marks block i.  Bitmaps are backed by a single Python int, so AND/OR are
one machine-word-parallel operation each - the bitwise filtering step at
the heart of Algorithms 1-3.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Bitmap:
    """Growable bitmap with set-algebra; immutable-style operators."""

    __slots__ = ("_bits",)

    def __init__(self, bits: int = 0) -> None:
        if bits < 0:
            raise ValueError("bitmap backing int cannot be negative")
        self._bits = bits

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "Bitmap":
        bits = 0
        for index in indices:
            if index < 0:
                raise ValueError(f"negative bit index {index}")
            bits |= 1 << index
        return cls(bits)

    @classmethod
    def range(cls, start: int, stop: int) -> "Bitmap":
        """Bits [start, stop) set - e.g. 'blocks inside the time window'."""
        if stop <= start:
            return cls(0)
        return cls(((1 << (stop - start)) - 1) << start)

    # -- mutation ------------------------------------------------------------

    def set(self, index: int) -> None:
        if index < 0:
            raise ValueError(f"negative bit index {index}")
        self._bits |= 1 << index

    def clear(self, index: int) -> None:
        self._bits &= ~(1 << index)

    # -- queries -------------------------------------------------------------

    def test(self, index: int) -> bool:
        return bool(self._bits >> index & 1) if index >= 0 else False

    def __contains__(self, index: int) -> bool:
        return self.test(index)

    def __bool__(self) -> bool:
        return self._bits != 0

    def __len__(self) -> int:
        """Population count."""
        return self._bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        """Indices of set bits, ascending."""
        bits = self._bits
        index = 0
        while bits:
            tz = (bits & -bits).bit_length() - 1
            index += tz
            yield index
            bits >>= tz + 1
            index += 1

    def max_bit(self) -> int:
        """Highest set bit index, or -1 when empty."""
        return self._bits.bit_length() - 1

    # -- algebra ---------------------------------------------------------------

    def __and__(self, other: "Bitmap") -> "Bitmap":
        return Bitmap(self._bits & other._bits)

    def __or__(self, other: "Bitmap") -> "Bitmap":
        return Bitmap(self._bits | other._bits)

    def __xor__(self, other: "Bitmap") -> "Bitmap":
        return Bitmap(self._bits ^ other._bits)

    def __sub__(self, other: "Bitmap") -> "Bitmap":
        return Bitmap(self._bits & ~other._bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bitmap) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:
        return f"Bitmap({{{', '.join(map(str, self))}}})"

    def copy(self) -> "Bitmap":
        return Bitmap(self._bits)
