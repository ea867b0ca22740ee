"""Point-to-point link model with cut-through forwarding.

Each node owns one egress and one ingress :class:`~repro.simnet.resources.Resource`
(its uplink to / downlink from the switch).  A transfer:

1. acquires the source egress channel,
2. acquires the destination ingress channel (this is where *incast*
   contention appears — many clients hammering one partition serialize
   here, which is what saturates the single-partition queue in Fig 6c),
3. holds both for the wire time of the message, plus propagation and
   switch latency,
4. releases both.

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

    def packet_count(self, msg: Message) -> int:
        return max(1, -(-msg.wire_size // self.cost.mtu))

    def account(self, msg: Message) -> None:
        self.bytes_total.add(msg.wire_size)
        self.packets_total.add(self.packet_count(msg))
        self.messages_total.add(1)

    def wire_time(self, msg: Message) -> float:
        return self.cost.transfer_time(msg.wire_size)


def transfer(egress: Link, ingress: Link, msg: Message, switch=None):
    """Generator: move ``msg`` across ``egress`` -> switch -> ``ingress``.

    The channels are held for the *serialization* (wire) time only — that
    is what bounds throughput and produces incast contention at a hot
    destination.  Propagation and switch latency are added afterwards,
    outside the hold, so back-to-back messages pipeline as on real links.
    An oversubscribed ``switch`` additionally bounds how many transfers can
    stream through the backplane at once.

    The hops are claimed *in sequence* (egress, then ingress, then
    backplane), one kernel event apart — each
    :meth:`~repro.simnet.resources.Resource.claim` costs exactly one event
    whether the hop was free or busy, so contention windows do not depend
    on which branch a claim took.
    """
    cost = egress.cost
    sim = egress.sim
    e_ch = egress.channel
    i_ch = ingress.channel
    yield e_ch.claim()
    try:
        yield i_ch.claim()
        try:
            wire = egress.wire_time(msg)
            if switch is not None and not switch.is_full_bisection:
                # Oversubscribed backplane: the serialization time is
                # spent holding one of the limited switch channels.
                yield from switch.traverse(wire)
            else:
                yield sim.timeout(wire)
                if switch is not None:
                    switch.transits.add(1)
            egress.account(msg)
            ingress.account(msg)
        finally:
            i_ch.release_slot()
    finally:
        e_ch.release_slot()
    yield sim.timeout(2 * cost.link_latency + cost.switch_latency)
