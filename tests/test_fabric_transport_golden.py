"""Transport goldens: events, clock and completion order of every verb.

The transport is a fixed sequence of component steps per op — doorbell,
source NIC core, egress, ingress, wire, latency, target NIC — and every
simulated number in the repo hangs off *which events* that sequence
schedules and in what order.  Each scenario below was run at the parent of
the PR that rebuilt every hop on ``Resource.claim`` and wrote the verb
traversal once (``QueuePair._post`` / ``_wire``), and its outcome frozen in
``tests/data/fabric_transport_goldens.json``: the final clock (``repr``, so
bit-exact), ``sim.events_processed`` and the completion order with each
op's finish time.  A transport change that adds, drops or reorders one
kernel event moves at least one of them.

Shape: ``ares_like(nodes=4, procs_per_node=1, seed=7)``; per verb (4 KiB
payloads for send / write / read) one idle remote op, one loopback op and
eight concurrent ops from three source nodes onto node 0 — one ingress
lane and four NIC cores, so both the inline and the queued branch of every
claim run.  Three RPC rows (idle, eight-way, eight-way under the ``calm``
fault plan) add the worker's NIC-core hold and the fault hook in ``_wire``.

The file is frozen: a change that *means* to move the transport's event
sequence re-records it in the same PR and says so.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import pytest

from repro.config import ares_like
from repro.fabric import Cluster
from repro.fabric.faults import make_plan
from repro.rpc import RpcClient, RpcServer

GOLDEN_PATH = Path(__file__).parent / "data" / "fabric_transport_goldens.json"

REGION = "golden"
SIZE = 4096

#: verb name -> generator factory ``(qp, dst, i)`` for the i-th op
VERBS = {
    "send": lambda qp, dst, i: qp.send(dst, {"op": i}, SIZE),
    "rdma_write": lambda qp, dst, i: qp.rdma_write(dst, REGION, i, ("v", i), SIZE),
    "rdma_read": lambda qp, dst, i: qp.rdma_read(dst, REGION, i, SIZE),
    "cas": lambda qp, dst, i: qp.cas(dst, REGION, 0, i, i + 1),
    "fetch_add": lambda qp, dst, i: qp.fetch_add(dst, REGION, 8, 1),
}

#: shape name -> source node of each op (all target node 0)
SHAPES = {
    "idle": [1],
    "loopback": [0],
    "incast8": [1 + i % 3 for i in range(8)],
}


def _cluster() -> Cluster:
    cluster = Cluster(ares_like(nodes=4, procs_per_node=1, seed=7))
    cluster.node(0).register_region(REGION, 1 << 16)
    return cluster


def _run(cluster, bodies):
    """Spawn every body at t=0, drain, return the golden record."""
    sim = cluster.sim
    order = []

    def op(i, gen):
        yield from gen
        order.append([i, repr(sim.now)])

    for i, gen in enumerate(bodies):
        sim.process(op(i, gen))
    sim.run()
    assert len(order) == len(bodies)  # every op completed
    return {"now": repr(sim.now), "events": sim.events_processed,
            "order": order}


def verb_scenario(verb, shape):
    cluster = _cluster()
    make = VERBS[verb]
    return _run(cluster, [make(cluster.qp(src), 0, i)
                          for i, src in enumerate(SHAPES[shape])])


def rpc_scenario(shape, plan=None):
    cluster = _cluster()
    servers = {n: RpcServer(cluster.node(n)) for n in range(cluster.num_nodes)}
    servers[0].bind("echo", lambda ctx, x: x)
    if plan is not None:
        faults = cluster.install_faults(make_plan(plan, nodes=cluster.num_nodes))
    clients = {}
    bodies = []
    for i, src in enumerate(SHAPES[shape]):
        client = clients.get(src)
        if client is None:
            client = clients[src] = RpcClient(cluster, src, servers)
        bodies.append(client.call(0, "echo", (i,), payload_size=SIZE))
    record = _run(cluster, bodies)
    if plan is not None:
        assert faults.injected_total() == 0  # calm: hook armed, zero faults
    return record


SCENARIOS = {
    f"{verb}/{shape}": partial(verb_scenario, verb, shape)
    for verb in VERBS for shape in SHAPES
}
SCENARIOS["rpc/idle"] = partial(rpc_scenario, "idle")
SCENARIOS["rpc/incast8"] = partial(rpc_scenario, "incast8")
SCENARIOS["rpc/incast8_calm"] = partial(rpc_scenario, "incast8", "calm")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_header_names_the_parent(golden):
    assert golden["kind"] == "fabric_transport_goldens"
    assert golden["parent_commit"].startswith("60c8c8d")
    assert sorted(golden["traces"]) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_transport_matches_parent_golden(golden, name):
    assert SCENARIOS[name]() == golden["traces"][name]


def test_incast_exercises_both_claim_branches():
    """The eight-way shape really queues: the first op finishes when the
    idle one does (inline claims all the way), and every later op waits at
    least one wire time behind its predecessor on the one ingress lane."""
    idle = verb_scenario("rdma_write", "idle")
    incast = verb_scenario("rdma_write", "incast8")
    times = [float(t) for _i, t in incast["order"]]
    assert times[0] == float(idle["now"])
    wire = _cluster().spec.cost.transfer_time(SIZE)
    assert all(b - a >= wire for a, b in zip(times, times[1:]))
