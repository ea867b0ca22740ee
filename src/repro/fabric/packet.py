"""Wire-level message descriptors.

A :class:`Message` is the unit handed to a :class:`~repro.fabric.link.Link`;
its ``wire_size`` drives transfer time and packet counting.  ``Verb``
enumerates the RDMA operations the simulated NIC understands.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

__all__ = ["Verb", "Message", "WIRE_HEADER_BYTES"]

#: Per-message header bytes added on the wire (RoCE/IB GRH+BTH ballpark).
WIRE_HEADER_BYTES = 58

_msg_ids = itertools.count(1)


class Verb(enum.Enum):
    """RDMA verb kinds understood by the simulated NIC."""

    SEND = "send"  # two-sided send into remote recv queue
    WRITE = "rdma_write"  # one-sided write to a registered region
    READ = "rdma_read"  # one-sided read from a registered region
    CAS = "atomic_cas"  # remote compare-and-swap (8-byte granule)
    FETCH_ADD = "atomic_faa"  # remote fetch-and-add


class Message:
    """A single fabric transfer.

    ``size`` is payload bytes; ``wire_size`` adds the header, once, here.
    ``payload`` carries the *real* Python data so upper layers stay
    functional, not just timed; ``region`` names a one-sided op's target.

    Slotted: one Message is allocated per remote op, so the dict-free
    layout is measurable at full-paper scale —
    see ``benchmarks/test_alloc_micro.py``.
    """

    __slots__ = ("verb", "src_node", "dst_node", "size", "payload", "region",
                 "offset", "msg_id", "wire_size")

    def __init__(self, verb: Verb, src_node: int, dst_node: int, size: int,
                 payload: Any = None, region: Optional[str] = None, offset: int = 0):
        self.msg_id = next(_msg_ids)
        if size < 0:
            raise ValueError("message size must be non-negative")
        self.verb = verb
        self.src_node = src_node
        self.dst_node = dst_node
        self.size = size
        self.payload = payload
        self.region = region
        self.offset = offset
        self.wire_size = size + WIRE_HEADER_BYTES
