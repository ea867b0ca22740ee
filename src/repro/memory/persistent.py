"""Real mmap-backed persistence for DataBoxes (Section III-C6).

HCL "can map the memory segments to a memory mapped file and let the kernel
synchronize the contents of the mapped memory region to the file".  We
reproduce the actual code path: a :class:`PersistentLog` is an append-only,
CRC-checked record log inside a real ``mmap``-ed file.  Containers append one
record per mutating operation; recovery replays the log.

Two durability modes mirror the paper:

* ``relaxed=False`` — per-operation ``flush`` (msync) so "all data is always
  present in the device";
* ``relaxed=True``  — synchronization "performed in the background": writes
  skip the flush, and ``sync()`` flushes everything at once.

Record format (little-endian)::

    magic  u32 = 0x48434C42  ("HCLB")
    length u32   payload bytes (never 0)
    crc32  u32   of payload
    payload      length bytes

A process that dies mid-append leaves a *torn tail*: a prefix of its last
record and zeros after it.  Reading stops there, and reopening zero-fills
it so the next append starts clean; a bad record anywhere else raises.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["PersistentLog", "LogRecord", "CorruptRecordError"]

_MAGIC = 0x48434C42
_HEADER = struct.Struct("<III")
_GROW_CHUNK = 1 << 20  # grow the backing file 1 MiB at a time


class CorruptRecordError(ValueError):
    """A log record failed its CRC or structural check."""


@dataclass(frozen=True)
class LogRecord:
    offset: int
    payload: bytes


class PersistentLog:
    """Append-only record log in a memory-mapped file."""

    def __init__(self, path: str, relaxed: bool = False):
        self.path = path
        self.relaxed = relaxed
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        if not exists:
            os.ftruncate(self._fd, _GROW_CHUNK)
        self._size = os.fstat(self._fd).st_size
        self._map = mmap.mmap(self._fd, self._size)
        self._write_pos = self._scan_end() if exists else 0
        self.records_written = 0
        self.flushes = 0
        self._closed = False

    # -- geometry -----------------------------------------------------------
    def _scan_end(self) -> int:
        """Find the end of the valid record chain on an existing file,
        zero-filling a torn tail there."""
        pos = 0
        for rec in self._iter_from(0, stop_on_corrupt=True):
            pos = rec.offset + _HEADER.size + len(rec.payload)
        end = self._torn_end(pos)
        if end is not None:
            self._map[pos:end] = bytes(end - pos)
        return pos

    def _torn_end(self, pos: int) -> Optional[int]:
        """End of the torn tail starting at ``pos``, or None if it is not one.

        A tear leaves the end of the extent the header claims unwritten, so
        that extent's last byte and every byte after it are zero.  With a
        wrong magic or a zero length the claimed extent is the header.
        """
        if pos + _HEADER.size > self._size:
            return None
        magic, length, _crc = _HEADER.unpack_from(self._map, pos)
        end = pos + _HEADER.size + (length if magic == _MAGIC else 0)
        tail = self._map[end - 1:]
        if not magic or end > self._size or tail.count(0) != len(tail):
            return None  # a clean end, or not a tear
        return end

    def _ensure(self, nbytes: int) -> None:
        need = self._write_pos + nbytes
        if need <= self._size:
            return
        new_size = self._size
        while new_size < need:
            new_size += _GROW_CHUNK
        self._map.flush()
        self._map.close()
        os.ftruncate(self._fd, new_size)
        self._size = new_size
        self._map = mmap.mmap(self._fd, self._size)

    # -- API ------------------------------------------------------------------
    def append(self, payload: bytes) -> int:
        """Append one record; returns its file offset."""
        if self._closed:
            raise ValueError("log is closed")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError("payload must be bytes-like")
        payload = bytes(payload)
        if not payload:
            raise ValueError("payload must be non-empty")
        total = _HEADER.size + len(payload)
        self._ensure(total)
        off = self._write_pos
        self._map[off:off + _HEADER.size] = _HEADER.pack(
            _MAGIC, len(payload), zlib.crc32(payload)
        )
        self._map[off + _HEADER.size:off + total] = payload
        self._write_pos = off + total
        self.records_written += 1
        if not self.relaxed:
            self.flush(off, total)
        return off

    def flush(self, offset: int = 0, length: Optional[int] = None) -> None:
        """msync the mapped region (page-aligned internally)."""
        page = mmap.PAGESIZE
        start = (offset // page) * page
        if length is None:
            end = self._size
        else:
            end = min(self._size, offset + length)
        span = ((end - start + page - 1) // page) * page
        span = min(span, self._size - start)
        if span > 0:
            self._map.flush(start, span)
        self.flushes += 1

    def sync(self) -> None:
        """Flush everything (the background-sync catch-up in relaxed mode)."""
        self.flush(0, self._write_pos)

    def records(self) -> Iterator[LogRecord]:
        """Iterate all valid records up to a torn tail; raises on any other
        corrupt record."""
        return self._iter_from(0, stop_on_corrupt=False)

    def _iter_from(self, pos: int, stop_on_corrupt: bool) -> Iterator[LogRecord]:
        while pos + _HEADER.size <= self._size:
            magic, length, crc = _HEADER.unpack_from(self._map, pos)
            if magic == 0:
                return  # clean end of log
            end = pos + _HEADER.size + length
            if magic != _MAGIC:
                why = f"bad magic {magic:#x}"
            elif not length:
                why = "empty record"
            elif end > self._size:
                why = "truncated record"
            else:
                payload = bytes(self._map[pos + _HEADER.size:end])
                if zlib.crc32(payload) == crc:
                    yield LogRecord(pos, payload)
                    pos = end
                    continue
                why = "CRC mismatch"
            if stop_on_corrupt or self._torn_end(pos) is not None:
                return
            raise CorruptRecordError(f"{why} at offset {pos}")

    def close(self) -> None:
        if self._closed:
            return
        self.sync()
        self._map.close()
        os.close(self._fd)
        self._closed = True

    def __enter__(self) -> "PersistentLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
