"""Point-to-point link model with cut-through forwarding.

Each node owns one egress and one ingress :class:`~repro.simnet.resources.Resource`
(its uplink to / downlink from the switch).  An off-node crossing, in the
one hop generator :meth:`repro.fabric.verbs.QueuePair._hop`:

1. acquires the source egress channel,
2. acquires the destination ingress channel (this is where *incast*
   contention appears — many clients hammering one partition serialize
   here, which is what saturates the single-partition queue in Fig 6c),
3. holds both for the wire time of the message,
4. accounts the message on both links, releases both, then charges
   propagation and switch latency outside the hold.

Acquisition order is always egress-then-ingress and the two pools are
disjoint, so no deadlock cycle can form.
"""

from __future__ import annotations

from repro.config import CostModel
from repro.obs.registry import registry_of
from repro.simnet.core import Simulator
from repro.simnet.resources import Resource

from repro.fabric.packet import Message

__all__ = ["Link"]


class Link:
    """One direction of a node's connection to the switch fabric."""

    def __init__(self, sim: Simulator, cost: CostModel, name: str):
        self.sim = sim
        self.cost = cost
        self.name = name
        # One rail per direction: the paper's testbed is 1x40GbE.
        self.channel = Resource(sim, capacity=1, name=name)
        metrics = registry_of(sim)
        self.bytes_total = metrics.counter(name + "/bytes")
        self.packets_total = metrics.counter(name + "/packets")
        self.messages_total = metrics.counter(name + "/messages")

    def account(self, msg: Message) -> None:
        size = msg.wire_size
        self.bytes_total.value += size
        self.packets_total.value += max(1, -(-size // self.cost.mtu))
        self.messages_total.value += 1
