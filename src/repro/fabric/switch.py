"""Core-switch model with configurable oversubscription.

The paper's testbed connects every node through a switch; HCL's scaling
results depend on how much bisection bandwidth the fabric really has.  A
:class:`Switch` models the backplane as ``channels`` concurrent full-rate
paths: with ``oversubscription=1`` (the default, full bisection) there is
one channel per node and the switch never binds; at oversubscription ``k``
only ``nodes/k`` transfers can stream simultaneously and all-to-all
patterns queue — which is exactly the "network experiences congestion and
operations are serialized" regime of Fig 6c.
"""

from __future__ import annotations

from repro.config import CostModel
from repro.obs.registry import registry_of
from repro.simnet.core import Simulator
from repro.simnet.resources import Resource

__all__ = ["Switch"]


class Switch:
    """Shared backplane for a cluster's node-to-node transfers."""

    def __init__(self, sim: Simulator, cost: CostModel, nodes: int,
                 oversubscription: float = 1.0):
        if oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1.0")
        self.sim = sim
        self.cost = cost
        self.oversubscription = oversubscription
        self.is_full_bisection = oversubscription <= 1.0
        channels = max(1, int(round(nodes / oversubscription)))
        self.channels = Resource(sim, capacity=channels, name="switch")
        metrics = registry_of(sim)
        self.transits = metrics.counter("switch/transits")

    def traverse(self, wire_time: float):
        """Generator: occupy one backplane channel for the message's
        serialization time.  Only called on oversubscribed fabrics — at
        full bisection the caller charges the wire time directly (the
        per-link holds already bound throughput)."""
        yield from self.channels.use(wire_time)
        self.transits.value += 1
