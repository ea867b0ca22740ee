"""Tests for the RPC-over-RDMA framework."""

import pytest

from repro.config import ares_like
from repro.fabric import Cluster
from repro.rpc import RemoteError, RpcClient, RpcServer
from repro.rpc.future import RPCFuture


@pytest.fixture
def rig(small_spec):
    """Cluster + servers on both nodes + a client on node 0."""
    cluster = Cluster(small_spec)
    servers = {i: RpcServer(cluster.node(i)) for i in range(cluster.num_nodes)}
    client = RpcClient(cluster, 0, servers)
    return cluster, servers, client


class TestBindInvoke:
    def test_sync_call(self, rig):
        cluster, servers, client = rig
        servers[1].bind("echo", lambda ctx, x: x * 2)

        def body():
            return (yield from client.call(1, "echo", (21,)))

        assert cluster.sim.run_process(body()) == 42

    def test_duplicate_bind_rejected(self, rig):
        _c, servers, _cl = rig
        servers[0].bind("op", lambda ctx: 1)
        with pytest.raises(KeyError):
            servers[0].bind("op", lambda ctx: 2)

    def test_unknown_op_raises_remote_error(self, rig):
        cluster, _s, client = rig

        def body():
            yield from client.call(1, "ghost")

        proc = cluster.spawn(body())
        cluster.run()
        with pytest.raises(RemoteError, match="no such op"):
            proc.result

    def test_unknown_node_rejected(self, rig):
        _c, _s, client = rig
        with pytest.raises(KeyError):
            client.invoke(99, "x")

    def test_handler_exception_propagates(self, rig):
        cluster, servers, client = rig

        def bad(ctx):
            raise ValueError("server exploded")

        servers[1].bind("bad", bad)

        def body():
            yield from client.call(1, "bad")

        proc = cluster.spawn(body())
        cluster.run()
        with pytest.raises(RemoteError, match="server exploded"):
            proc.result

    def test_generator_handler_charges_time(self, rig):
        cluster, servers, client = rig

        def slow(ctx, duration):
            yield ctx.sim.timeout(duration)
            return "done"

        servers[1].bind("slow", slow)

        def body():
            return (yield from client.call(1, "slow", (0.5,)))

        assert cluster.sim.run_process(body()) == "done"
        assert cluster.sim.now >= 0.5

    def test_handler_receives_caller_identity(self, rig):
        cluster, servers, client = rig
        seen = {}

        def who(ctx):
            seen["src"] = ctx.src_node
            seen["op"] = ctx.op
            return None

        servers[1].bind("who", who)
        cluster.sim.run_process(client.call(1, "who"))
        assert seen == {"src": 0, "op": "who"}

    def test_self_invocation_via_loopback(self, rig):
        cluster, servers, client = rig
        servers[0].bind("local", lambda ctx: "here")

        def body():
            return (yield from client.call(0, "local"))

        assert cluster.sim.run_process(body()) == "here"


class TestAsync:
    def test_invoke_returns_future_immediately(self, rig):
        cluster, servers, client = rig
        servers[1].bind("f", lambda ctx: "v")
        fut = client.invoke(1, "f")
        assert isinstance(fut, RPCFuture)
        assert not fut.done
        cluster.run()
        assert fut.done and fut.result == "v"

    def test_result_before_done_raises(self, rig):
        _c, servers, client = rig
        servers[1].bind("f", lambda ctx: "v")
        fut = client.invoke(1, "f")
        with pytest.raises(RuntimeError):
            _ = fut.result

    def test_overlapping_invocations_faster_than_serial(self, small_spec):
        def run(overlap: bool) -> float:
            cluster = Cluster(small_spec)
            servers = {i: RpcServer(cluster.node(i)) for i in range(2)}
            client = RpcClient(cluster, 0, servers)

            def handler(ctx):
                yield ctx.sim.timeout(0.001)

            servers[1].bind("work", handler)

            def body():
                if overlap:
                    futures = [client.invoke(1, "work") for _ in range(8)]
                    for fut in futures:
                        yield fut.wait()
                else:
                    for _ in range(8):
                        yield from client.call(1, "work")

            cluster.sim.run_process(body())
            return cluster.sim.now

        assert run(overlap=True) < run(overlap=False)

    def test_latency_recorded(self, rig):
        cluster, servers, client = rig
        servers[1].bind("f", lambda ctx: None)
        fut = client.invoke(1, "f")
        cluster.run()
        assert fut.latency > 0


class TestCallbacks:
    def test_callback_chain_executes_in_order(self, rig):
        cluster, servers, client = rig
        log = []
        servers[1].bind("main", lambda ctx: log.append("main") or "m")
        servers[1].bind("cb1", lambda ctx, tag: log.append(tag) or tag)
        servers[1].bind("cb2", lambda ctx: log.append("cb2") or "c2")

        def body():
            return (yield from client.call(
                1, "main", callbacks=[("cb1", ("one",)), ("cb2", ())]
            ))

        value, cb_results = cluster.sim.run_process(body())
        assert value == "m"
        assert cb_results == ["one", "c2"]
        assert log == ["main", "one", "cb2"]

    def test_callback_failure_propagates(self, rig):
        cluster, servers, client = rig
        servers[1].bind("main", lambda ctx: "ok")

        def body():
            yield from client.call(1, "main", callbacks=[("missing", ())])

        proc = cluster.spawn(body())
        cluster.run()
        with pytest.raises(RemoteError, match="callback"):
            proc.result

    def test_callbacks_cost_one_invocation(self, rig):
        """Chained ops pay one network round trip, not three."""
        cluster, servers, client = rig
        for name in ("a", "b", "c"):
            servers[1].bind(name, lambda ctx: None)

        def chained():
            yield from client.call(1, "a", callbacks=[("b", ()), ("c", ())])

        cluster.sim.run_process(chained())
        t_chained = cluster.sim.now

        cluster2 = Cluster(ares_like(nodes=2, procs_per_node=4, seed=7))
        servers2 = {i: RpcServer(cluster2.node(i)) for i in range(2)}
        client2 = RpcClient(cluster2, 0, servers2)
        for name in ("a", "b", "c"):
            servers2[1].bind(name, lambda ctx: None)

        def separate():
            for name in ("a", "b", "c"):
                yield from client2.call(1, name)

        cluster2.sim.run_process(separate())
        assert t_chained < cluster2.sim.now


class TestAggregation:
    def _run_burst(self, batch_size: int) -> tuple:
        cluster = Cluster(ares_like(nodes=2, procs_per_node=8, seed=3))
        servers = {
            i: RpcServer(cluster.node(i), batch_size=batch_size)
            for i in range(2)
        }
        client = RpcClient(cluster, 0, servers)
        servers[1].bind("op", lambda ctx: None)

        def rank_body(rank):
            # Flood asynchronously so requests accumulate in the work queue.
            futures = [client.invoke(1, "op") for _ in range(16)]
            for fut in futures:
                yield fut.wait()

        cluster.spawn_ranks(rank_body, ranks=range(8))
        cluster.run()
        return cluster.sim.now, servers[1]

    def test_batching_reduces_dispatches(self):
        _t1, unbatched = self._run_burst(1)
        _t8, batched = self._run_burst(8)
        assert unbatched.requests_served.value == batched.requests_served.value
        assert batched.batches.value < unbatched.batches.value

    def test_batch_size_validation(self, cluster):
        with pytest.raises(ValueError):
            RpcServer(cluster.node(0), batch_size=0)
