"""Allocation microbenchmark for the per-op hot classes.

Full-paper-scale runs allocate one :class:`~repro.fabric.packet.Message`,
one :class:`~repro.rpc.server.RpcRequest`, one
:class:`~repro.rpc.server.RpcResponse` and one
:class:`~repro.rpc.future.RPCFuture` per remote operation — millions of
short-lived instances per bench.  Those classes are slotted so each
instance skips the per-object ``__dict__``; this bench pins the slotted
layout (a silent regression back to dict-backed instances would cost both
memory and allocation wall time at scale) and tracks the raw allocation
rate of the per-op trio.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import run_once

from repro.fabric.packet import Message, Verb
from repro.rpc.client import RpcClient
from repro.rpc.coalesce import OpCoalescer, ReadCache, _Buffer
from repro.rpc.future import RPCFuture
from repro.rpc.server import RpcRequest, RpcResponse
from repro.simnet.core import Simulator
from repro.structures.mdlist import _MNode
from repro.structures.stats import OpStats

#: Classes allocated on (or near) every remote op.  A class is dict-free
#: iff no class in its MRO installs a ``__dict__`` descriptor.
SLOTTED_HOT_CLASSES = [
    Message, RpcRequest, RpcResponse, RPCFuture, RpcClient, OpCoalescer,
    ReadCache, _Buffer, OpStats, _MNode,
]

ALLOCS = 200_000

# Generous smoke floor (allocs of the full per-op trio per second); the
# point is catching a collapse, not benchmarking the CPython allocator.
SMOKE_FLOOR_TRIOS_PER_SEC = 100_000


def test_hot_classes_are_slotted():
    for cls in SLOTTED_HOT_CLASSES:
        offenders = [
            base.__name__ for base in cls.__mro__
            if "__dict__" in getattr(base, "__dict__", {})
        ]
        assert not offenders, (
            f"{cls.__name__} instances carry a __dict__ "
            f"(introduced by {offenders}) — add __slots__"
        )


@pytest.mark.benchmark(group="kernel")
def test_per_op_allocation_rate(benchmark, report):
    sim = Simulator()

    def alloc_trios():
        t0 = time.perf_counter()
        for i in range(ALLOCS):
            Message(Verb.SEND, 0, 1, 64)
            RpcRequest(op="push", args=(i, None), src_node=0, token=(0, i))
            RPCFuture(sim, "push")
        return time.perf_counter() - t0

    wall = run_once(benchmark, alloc_trios)
    rate = ALLOCS / wall if wall > 0 else float("inf")
    report(
        "Per-op allocation microbenchmark (slotted hot classes)\n"
        f"  {ALLOCS:,} x (Message + RpcRequest + RPCFuture)\n"
        f"  wall time      {wall:.3f} s\n"
        f"  trio rate      {rate:,.0f} trios/s"
    )
    assert rate > SMOKE_FLOOR_TRIOS_PER_SEC, (
        f"per-op allocation collapsed: {rate:,.0f} trios/s "
        f"(floor {SMOKE_FLOOR_TRIOS_PER_SEC:,})"
    )
