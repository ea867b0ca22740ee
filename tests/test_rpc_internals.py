"""Deeper tests of the RPC server internals and queue container semantics."""

import pytest

from repro.config import ares_like
from repro.core import HCL
from repro.fabric import Cluster
from repro.harness import Blob
from repro.rpc import RpcClient, RpcServer
from repro.rpc.server import RpcRequest


class TestServerInternals:
    def test_slot_wraparound(self, cluster, monkeypatch):
        """Once every slot has been handed out, calls keep going on the
        slots their predecessors released."""
        monkeypatch.setattr(RpcServer, "RESPONSE_SLOTS", 2)
        server = RpcServer(cluster.node(1))
        server.bind("op", lambda ctx, i: i)
        client = RpcClient(cluster, 0, {1: server})
        used = set()

        def body():
            out = []
            for i in range(0, 6, 2):  # three rounds of two concurrent calls
                futs = [client.invoke(1, "op", (j,)) for j in (i, i + 1)]
                used.update(server._slots)
                for fut in futs:
                    yield fut.wait()
                    out.append(fut.result)
            return out

        assert cluster.sim.run_process(body()) == [0, 1, 2, 3, 4, 5]
        assert used == {0, 1}
        assert not server._slots
        assert not server.response_region.objects

    def test_held_slots_are_never_handed_out(self, cluster, monkeypatch):
        """A slot is held until its caller settles the invocation, so it is
        never handed to a second caller (whose write would overwrite the
        first caller's response); only a server with every slot held
        refuses, and a released slot is the next one handed out."""
        monkeypatch.setattr(RpcServer, "RESPONSE_SLOTS", 4)
        server = RpcServer(cluster.node(1))
        gates = [cluster.sim.event() for _ in range(4)]

        def held(ctx, i):
            yield gates[i]
            return i

        server.bind("held", held)
        client = RpcClient(cluster, 0, {1: server})
        futs = [client.invoke(1, "held", (i,)) for i in range(4)]
        assert sorted(server._slots) == [0, 1, 2, 3]
        with pytest.raises(RuntimeError,
                           match="node 1: all 4 response slots are held"):
            client.invoke(1, "held", (4,))
        gates[1].succeed()
        cluster.run()
        assert [f.done for f in futs] == [False, True, False, False]
        assert futs[1].result == 1
        assert sorted(server._slots) == [0, 2, 3]
        req = RpcRequest("held", (4,), 0, client.next_token(1))
        server.allocate_slot(req)
        assert req.slot == 1

    def test_exec_histogram_populated(self, cluster):
        server = RpcServer(cluster.node(1))
        server.bind("op", lambda ctx: None)
        client = RpcClient(cluster, 0, {1: server})

        def body():
            for _ in range(10):
                yield from client.call(1, "op")

        cluster.sim.run_process(body())
        assert server.exec_time.n == 10
        assert server.requests_served.value == 10

    def test_worker_count_override(self, cluster):
        server = RpcServer(cluster.node(0), workers=1)
        # One worker still serves everything, just with less overlap.
        server.bind("op", lambda ctx: 1)
        client = RpcClient(cluster, 1, {0: server})

        def body():
            futures = [client.invoke(0, "op") for _ in range(6)]
            for fut in futures:
                yield fut.wait()
            return [f.result for f in futures]

        assert cluster.sim.run_process(body()) == [1] * 6

    def test_payload_size_overrides_estimate(self, cluster):
        """Bigger declared payloads must cost more wire time."""
        server = RpcServer(cluster.node(1))
        server.bind("op", lambda ctx, x: x)
        client = RpcClient(cluster, 0, {1: server})

        def run(size):
            c = Cluster(ares_like(nodes=2, procs_per_node=4, seed=7))
            s = RpcServer(c.node(1))
            s.bind("op", lambda ctx, x: x)
            cl = RpcClient(c, 0, {1: s})

            def body():
                yield from cl.call(1, "op", (None,), payload_size=size)

            c.sim.run_process(body())
            return c.sim.now

        assert run(1 << 20) > run(64)


class TestQueueSemantics:
    def test_pop_during_growth_still_served(self, small_spec):
        """Paper: 'pop operations can still be served during migrations'."""
        hcl = HCL(small_spec)
        q = hcl.queue("q", home_node=0)

        def filler(rank):
            # Enough large entries to force several segment growths.
            for i in range(30):
                yield from q.push(rank, Blob(8192, tag=i))

        hcl.run_ranks(filler, ranks=range(2))
        assert q.home.segment.size > 64 * 1024

        def drainer(rank):
            got = 0
            while True:
                _v, ok = yield from q.pop(rank)
                if not ok:
                    return got
                got += 1

        proc = hcl.cluster.spawn(drainer(0))
        hcl.cluster.run()
        assert proc.result == 60

    def test_queue_identified_by_home_process(self, small_spec):
        """'queues are identified by the process ID that hosts the
        partition' — pushes from anywhere land on the home node."""
        hcl = HCL(small_spec)
        q = hcl.queue("q", home_node=1)

        def body(rank):
            yield from q.push(rank, rank)

        hcl.run_ranks(body)
        assert len(q.home.structure) == 8
        assert q.home.node_id == 1

    def test_pq_duplicate_priorities_fifo(self, small_spec):
        hcl = HCL(small_spec)
        pq = hcl.priority_queue("pq", dims=4, base=8)

        def body(rank):
            if rank == 0:
                for i in range(5):
                    yield from pq.push(rank, 7, f"item{i}")
                out = []
                for _ in range(5):
                    entry, ok = yield from pq.pop(rank)
                    out.append(entry[1])
                assert out == [f"item{i}" for i in range(5)]
            else:
                yield hcl.sim.timeout(0)

        hcl.run_ranks(body)

    def test_priority_bounds_enforced(self, small_spec):
        hcl = HCL(small_spec)
        pq = hcl.priority_queue("pq", dims=2, base=4)  # keys < 16

        def body(rank):
            yield from pq.push(rank, 99, None)

        with pytest.raises(ValueError):
            hcl.run_ranks(body, ranks=range(1))


class TestContainerMisc:
    def test_read_only_ops_registry(self):
        from repro.core.container import DistributedContainer

        read_only = DistributedContainer.READ_ONLY_OPS
        assert "find" in read_only
        assert "range_find" in read_only
        assert "insert" not in read_only
        assert "pop" not in read_only

    def test_repr(self, hcl):
        m = hcl.unordered_map("m", partitions=2)
        assert "m" in repr(m) and "partitions=2" in repr(m)
