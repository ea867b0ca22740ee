"""Counter exactness of the transport: every hop accounts in closed form.

The transport goldens (``tests/test_fabric_transport_golden.py``) pin the
events, the clock and the completion order of every verb, but no counter.
This file pins the counters: for each verb on an idle, a loopback and an
eight-way incast shape, one RPC row and one row on an oversubscribed switch
(so ``Switch.traverse`` runs), every link's ``bytes`` / ``packets`` /
``messages``, every ``nic*/verbs``, ``switch/transits`` and the RPC
``invocations`` / ``served`` / ``batches`` counters must equal values
derived from the payload sizes, ``WIRE_HEADER_BYTES`` and the MTU alone.

The closed form per message crossing ``src -> dst`` with wire size
``w = payload + WIRE_HEADER_BYTES``: ``n<src>/egress`` and ``n<dst>/ingress``
each gain ``w`` bytes, ``max(1, ceil(w / mtu))`` packets and one message
(a loopback crossing, ``src == dst``, charges both links of that node the
same way), and an off-node crossing is one switch transit.
"""

from __future__ import annotations

import re
from collections import defaultdict

import pytest

from repro.config import ares_like
from repro.fabric import Cluster
from repro.fabric.packet import WIRE_HEADER_BYTES
from repro.fabric.verbs import ACK_WIRE_BYTES, ATOMIC_WIRE_BYTES
from repro.obs.registry import registry_of
from repro.rpc import RpcClient, RpcServer
from repro.rpc.client import _REQUEST_HEADER_BYTES

REGION = "acct"
#: multi-packet at the 4096-byte MTU: 10058 wire bytes are three packets
SIZE = 10_000
#: the server's smallest completion, what a ``None`` result is pulled at
MIN_RESPONSE_BYTES = 64

#: shape name -> source node of each op (all target node 0)
SHAPES = {
    "idle": [1],
    "loopback": [0],
    "incast8": [1 + i % 3 for i in range(8)],
}

#: verb name -> (generator factory ``(qp, i)`` targeting node 0,
#: request payload bytes, response payload bytes or None, target NIC verbs)
VERBS = {
    "send": (lambda qp, i: qp.send(0, {"op": i}, SIZE), SIZE, None, 0),
    "rdma_write": (lambda qp, i: qp.rdma_write(0, REGION, i, ("v", i), SIZE),
                   SIZE, None, 1),
    "rdma_read": (lambda qp, i: qp.rdma_read(0, REGION, i, SIZE),
                  ACK_WIRE_BYTES, SIZE, 1),
    "cas": (lambda qp, i: qp.cas(0, REGION, 0, i, i + 1),
            ATOMIC_WIRE_BYTES, ATOMIC_WIRE_BYTES, 1),
    "fetch_add": (lambda qp, i: qp.fetch_add(0, REGION, 8, 1),
                  ATOMIC_WIRE_BYTES, ATOMIC_WIRE_BYTES, 1),
}

#: every counter this file pins; any other name is out of scope
PINNED = re.compile(
    r"^(n\d+/(egress|ingress)/(bytes|packets|messages)"
    r"|nic\d+/verbs|switch/transits"
    r"|rpcc\d+/invocations|rpc\d+/(served|batches))$"
)


def _cluster(oversubscription: float = 1.0) -> Cluster:
    cluster = Cluster(ares_like(nodes=4, procs_per_node=1, seed=7),
                      oversubscription=oversubscription)
    cluster.node(0).register_region(REGION, 1 << 16)
    return cluster


def _drain(cluster, bodies) -> None:
    sim = cluster.sim
    done = []

    def op(gen):
        yield from gen
        done.append(True)

    for gen in bodies:
        sim.process(op(gen))
    sim.run()
    assert len(done) == len(bodies)  # every op completed


def _observed(cluster) -> dict:
    """Every pinned counter that moved, by name."""
    registry = registry_of(cluster.sim)
    return {name: registry.get(name).value for name in registry.names()
            if PINNED.match(name) and registry.get(name).value}


class Expected:
    """The closed form, accumulated one crossing and one NIC verb at a time."""

    def __init__(self, mtu: int):
        self.mtu = mtu
        self.counts = defaultdict(int)

    def crossing(self, src: int, dst: int, payload: int) -> None:
        wire = payload + WIRE_HEADER_BYTES
        packets = max(1, -(-wire // self.mtu))
        for link in (f"n{src}/egress", f"n{dst}/ingress"):
            self.counts[link + "/bytes"] += wire
            self.counts[link + "/packets"] += packets
            self.counts[link + "/messages"] += 1
        if src != dst:
            self.counts["switch/transits"] += 1

    def nic_verb(self, node: int, n: int = 1) -> None:
        self.counts[f"nic{node}/verbs"] += n

    def as_dict(self) -> dict:
        return {k: v for k, v in self.counts.items() if v}


def _verb_expected(verb: str, sources, mtu: int) -> dict:
    _make, request, response, target_verbs = VERBS[verb]
    exp = Expected(mtu)
    for src in sources:
        exp.crossing(src, 0, request)
        exp.nic_verb(src)
        exp.nic_verb(0, target_verbs)
        if response is not None:
            exp.crossing(0, src, response)
    return exp.as_dict()


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("verb", sorted(VERBS))
def test_verb_counters_match_closed_form(verb, shape):
    cluster = _cluster()
    make = VERBS[verb][0]
    _drain(cluster, [make(cluster.qp(src), i)
                     for i, src in enumerate(SHAPES[shape])])
    mtu = cluster.spec.cost.mtu
    assert _observed(cluster) == _verb_expected(verb, SHAPES[shape], mtu)


def test_oversubscribed_switch_counts_each_traverse_once():
    """One backplane channel for four nodes: every off-node crossing goes
    through ``Switch.traverse`` and is still exactly one transit."""
    cluster = _cluster(oversubscription=4.0)
    assert not cluster.switch.is_full_bisection
    assert cluster.switch.channels.capacity == 1
    sources = SHAPES["incast8"]
    _drain(cluster, [cluster.qp(src).rdma_write(0, REGION, i, i, SIZE)
                     for i, src in enumerate(sources)])
    expected = _verb_expected("rdma_write", sources, cluster.spec.cost.mtu)
    assert expected["switch/transits"] == len(sources)
    assert _observed(cluster) == expected


def test_rpc_counters_match_closed_form():
    """Eight RoR calls onto node 0: per call one request SEND at the
    payload plus the request header, one RDMA_READ request and the
    response pulled at the server's minimum completion size."""
    cluster = _cluster()
    servers = {n: RpcServer(cluster.node(n)) for n in range(cluster.num_nodes)}
    servers[0].bind("nop", lambda ctx, x: None)
    sources = SHAPES["incast8"]
    clients = {src: RpcClient(cluster, src, servers) for src in set(sources)}
    _drain(cluster, [clients[src].call(0, "nop", (i,), payload_size=SIZE)
                     for i, src in enumerate(sources)])
    exp = Expected(cluster.spec.cost.mtu)
    for src in sources:
        exp.crossing(src, 0, SIZE + _REQUEST_HEADER_BYTES)  # SEND
        exp.nic_verb(src)
        exp.crossing(src, 0, ACK_WIRE_BYTES)  # RDMA_READ request
        exp.nic_verb(src)
        exp.nic_verb(0)
        exp.crossing(0, src, MIN_RESPONSE_BYTES)  # the response
        exp.counts[f"rpcc{src}/invocations"] += 1
    # batch_size 1 (the default): one dispatch per request
    exp.counts["rpc0/served"] = exp.counts["rpc0/batches"] = len(sources)
    assert _observed(cluster) == exp.as_dict()
