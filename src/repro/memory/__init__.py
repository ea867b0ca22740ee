"""Memory substrate: partition segments and persistence.

HCL grows a partition's memory as operations arrive.  Each partition lives
in a :class:`~repro.memory.segment.MemorySegment`: a registered region on
its hosting node, charged against that node's memory budget and grown in
place on a structure resize.  A segment can optionally append to a *real*
``mmap``-backed file (:mod:`repro.memory.persistent`) — the DataBox
persistency feature of Section III-C6.
"""

from repro.memory.segment import MemorySegment
from repro.memory.persistent import PersistentLog, LogRecord, CorruptRecordError

__all__ = [
    "MemorySegment",
    "PersistentLog",
    "LogRecord",
    "CorruptRecordError",
]
