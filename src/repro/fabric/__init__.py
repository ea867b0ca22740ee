"""Simulated RDMA-capable cluster fabric.

This package substitutes for the Ares testbed hardware (ConnectX-4 40GbE
RoCE NICs, a fat-tree-ish switch, 40-core nodes).  It models the fabric at
the *verbs* level: queue pairs, work queues served by NIC cores, one-sided
READ/WRITE, SEND/RECV, and remote atomics (CAS) with per-region
serialization — exactly the operations whose counts and placement drive the
paper's HCL-vs-BCL argument.  A verb completes when its generator returns;
to keep several in flight, run each as a ``sim.process`` and wait on each
process in turn.

Layering::

    topology.Cluster            # nodes + links + switch + RNG
      node.Node                 # memory budget, region (re)sizing, NIC, links
        nic.Nic                 # NIC cores, receive work queue, regions
          verbs.QueuePair       # the verbs API used by rpc/ and bcl/
    link.Link                   # bandwidth + latency, cut-through
    provider.Provider           # OFI-like fabric parameter presets
"""

from repro.fabric.packet import Message, Verb
from repro.fabric.link import Link
from repro.fabric.nic import Nic, MemoryRegion
from repro.fabric.node import Node, NodeDownError, OutOfMemoryError
from repro.fabric.switch import Switch
from repro.fabric.topology import Cluster
from repro.fabric.verbs import QueuePair
from repro.fabric.provider import Provider, get_provider, PROVIDERS

__all__ = [
    "Message",
    "Verb",
    "Link",
    "Nic",
    "MemoryRegion",
    "Node",
    "NodeDownError",
    "OutOfMemoryError",
    "Switch",
    "Cluster",
    "QueuePair",
    "Provider",
    "get_provider",
    "PROVIDERS",
]
