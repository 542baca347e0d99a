"""Append-only segment files.

Blocks are appended to numbered segment files (``segment-000001.dat`` ...);
once a block is written it is immutable.  When the active segment would
exceed the configured size (paper default 256 MB) a new one is started.
A ``data_dir`` of ``None`` keeps segments in memory, which tests and
benchmarks use for speed - the access pattern and the cost accounting are
identical either way.
"""

from __future__ import annotations

import dataclasses
import os
import weakref
from pathlib import Path
from typing import Optional

from ..common.errors import StorageError


@dataclasses.dataclass(frozen=True)
class BlockLocation:
    """Physical address of a block: segment number, byte offset, length."""

    segment: int
    offset: int
    length: int


class SegmentStore:
    """A sequence of append-only segments, on disk or in memory.

    On disk, the first read of a segment opens one read-only descriptor
    for it and every read ``pread``s the exact range through that held
    descriptor: no ``open``, ``Path`` or ``stat`` on the point-read path.
    Appends go through the same inode, so a held descriptor sees them;
    :meth:`truncate_after` closes every descriptor before it cuts or
    unlinks a file, so no read sees a stale inode.  :meth:`close`
    releases the descriptors (a store nobody closes releases them when
    it is collected); the store stays usable, and a later read opens
    its segment again.
    """

    def __init__(self, data_dir: Optional[Path], segment_size: int) -> None:
        if segment_size <= 0:
            raise StorageError("segment_size must be positive")
        self._dir = os.fspath(data_dir) if data_dir is not None else None
        self._segment_size = segment_size
        self._memory: list[bytearray] = []
        self._active = 0
        self._active_offset = 0
        #: segment number -> read-only descriptor, opened on first read
        self._fds: dict[int, int] = {}
        weakref.finalize(self, _close_all, self._fds)
        if self._dir is not None:
            os.makedirs(self._dir, exist_ok=True)
            self._recover()
        else:
            self._memory.append(bytearray())

    def _segment_path(self, segment: int) -> str:
        assert self._dir is not None
        return os.path.join(self._dir, f"segment-{segment:06d}.dat")

    def _existing(self) -> list[Path]:
        """The on-disk segment files, in segment order."""
        assert self._dir is not None
        return sorted(Path(self._dir).glob("segment-*.dat"))

    def _recover(self) -> None:
        """Resume appending after the last existing on-disk segment."""
        existing = self._existing()
        if not existing:
            Path(self._segment_path(0)).touch()
            return
        last = existing[-1]
        self._active = int(last.stem.split("-")[1])
        self._active_offset = last.stat().st_size

    @property
    def segment_count(self) -> int:
        return self._active + 1

    def segment_payload(self, segment: int) -> bytes:
        """Every byte currently stored in ``segment``.

        The public accessor recovery scans use: a sequential re-parse of
        each segment needs the raw payload including any torn tail, which
        the location-addressed :meth:`read` cannot express.  A segment
        that was never written reads back empty.
        """
        if self._dir is None:
            if segment >= len(self._memory):
                raise StorageError(f"no such segment {segment}")
            return bytes(self._memory[segment])
        try:
            with open(self._segment_path(segment), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def truncate_after(self, segment: int, offset: int) -> int:
        """Discard every byte past ``offset`` in ``segment`` and every
        later segment; returns the number of bytes removed.

        Only the write-path recovery may call this (discarding a torn
        tail the commit log proves was never committed); stored blocks
        themselves stay immutable.
        """
        removed = 0
        self.close()
        if self._dir is None:
            while len(self._memory) <= segment:
                self._memory.append(bytearray())
            for later in self._memory[segment + 1:]:
                removed += len(later)
            del self._memory[segment + 1:]
            buf = self._memory[segment]
            if len(buf) > offset:
                removed += len(buf) - offset
                del buf[offset:]
        else:
            for path in self._existing():
                if int(path.stem.split("-")[1]) > segment:
                    removed += path.stat().st_size
                    path.unlink()
            path = Path(self._segment_path(segment))
            if not path.exists():
                path.touch()
            elif path.stat().st_size > offset:
                removed += path.stat().st_size - offset
                with open(path, "r+b") as fh:
                    fh.truncate(offset)
        self._active = segment
        self._active_offset = offset
        return removed

    def close(self) -> None:
        """Release every held read descriptor; later reads open anew."""
        _close_all(self._fds)

    def append(self, data: bytes) -> BlockLocation:
        """Append ``data`` to the active segment, rolling over when full."""
        if not data:
            raise StorageError("refusing to append empty record")
        if self._active_offset and self._active_offset + len(data) > self._segment_size:
            self._active += 1
            self._active_offset = 0
            if self._dir is None:
                self._memory.append(bytearray())
            else:
                Path(self._segment_path(self._active)).touch()
        location = BlockLocation(
            segment=self._active, offset=self._active_offset, length=len(data)
        )
        if self._dir is None:
            self._memory[self._active].extend(data)
        else:
            with open(self._segment_path(self._active), "ab") as fh:
                fh.write(data)
        self._active_offset += len(data)
        return location

    def read(self, location: BlockLocation) -> bytes:
        """Read back the exact bytes at ``location``."""
        return self._read_at(location.segment, location.offset, location.length)

    def read_range(self, location: BlockLocation, offset: int, length: int) -> bytes:
        """Read a sub-range of a stored record (one transaction of a block)."""
        if offset < 0 or offset + length > location.length:
            raise StorageError("sub-range outside stored record")
        return self._read_at(location.segment, location.offset + offset, length)

    def _read_at(self, segment: int, offset: int, length: int) -> bytes:
        if self._dir is None:
            if segment >= len(self._memory):
                raise StorageError(f"no such segment {segment}")
            buf = self._memory[segment]
            if offset + length > len(buf):
                raise StorageError(
                    f"read past end of segment {segment}: "
                    f"{offset}+{length} > {len(buf)}"
                )
            return bytes(buf[offset : offset + length])
        fd = self._fds.get(segment)
        if fd is None:
            try:
                fd = os.open(self._segment_path(segment), os.O_RDONLY)
            except FileNotFoundError:
                raise StorageError(
                    f"missing segment file {self._segment_path(segment)}"
                ) from None
            self._fds[segment] = fd
        data = os.pread(fd, length, offset)
        if len(data) != length:
            raise StorageError(
                f"short read from {self._segment_path(segment)}: wanted "
                f"{length}, got {len(data)}"
            )
        return data


def _close_all(fds: dict[int, int]) -> None:
    """Close and forget every descriptor in ``fds``."""
    while fds:
        os.close(fds.popitem()[1])
