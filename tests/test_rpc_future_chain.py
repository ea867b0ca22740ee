"""Futures of callback-chained invocations and their composition with the
kernel's AnyOf combinator, plus the future's settle discipline.

The paper's callback chaining is server-side: ``invoke(...,
callbacks=[(op, args), ...])`` runs the follow-on ops in the same
invocation, and the future settles with ``(value, [callback results])``.
A future settles exactly once; hooks attached with ``_on_settle`` run at
the settle instant, and a ``wait()`` attached after the run drained
resumes at once.
"""

from __future__ import annotations

import pytest

from repro.fabric import Cluster
from repro.rpc import RpcClient, RpcServer
from repro.rpc.future import RPCFuture
from repro.simnet import Simulator


@pytest.fixture
def rig(small_spec):
    cluster = Cluster(small_spec)
    servers = {i: RpcServer(cluster.node(i)) for i in range(cluster.num_nodes)}
    client = RpcClient(cluster, 0, servers)
    return cluster, servers, client


class TestPostRunChaining:
    def test_waiting_on_post_run_chain_resumes(self, rig):
        """A wait() on a chained invocation's future attached after the run
        drained still resumes — the lazy event materializes as a completed
        event."""
        cluster, servers, client = rig
        servers[1].bind("n", lambda ctx: 7)
        servers[1].bind("inc", lambda ctx, v: v + 1)
        fut = client.invoke(1, "n", callbacks=[("inc", (7,))])
        cluster.run()
        assert fut.done

        def body():
            value = yield fut.wait()
            return value

        assert cluster.sim.run_process(body()) == (7, [8])


class TestCombinatorComposition:
    def test_any_of_returns_first_chained_result(self, rig):
        cluster, servers, client = rig

        def slow(ctx, d):
            yield ctx.sim.timeout(d)
            return d

        servers[1].bind("slow", slow)
        servers[1].bind("tag", lambda ctx, name: name)
        fast = client.invoke(1, "slow", (1e-6,), callbacks=[("tag", ("fast",))])
        lag = client.invoke(1, "slow", (1e-2,), callbacks=[("tag", ("lag",))])

        def body():
            index, value = yield cluster.sim.any_of(
                [fast.wait(), lag.wait()]
            )
            return index, value

        assert cluster.sim.run_process(body()) == (0, (1e-6, ["fast"]))


class TestSettleDiscipline:
    def test_double_settle_rejected(self):
        fut = RPCFuture(Simulator(), "x")
        fut._complete(1)
        with pytest.raises(RuntimeError, match="already settled"):
            fut._complete(2)

    def test_result_before_settle_raises(self):
        fut = RPCFuture(Simulator(), "x")
        with pytest.raises(RuntimeError, match="not complete"):
            _ = fut.result

    def test_on_settle_of_pending_future_runs_at_settle(self):
        fut = RPCFuture(Simulator(), "x")
        seen = []
        fut._on_settle(lambda f: seen.append(f.result))
        assert seen == []
        fut._complete(41)
        assert seen == [41]
        fut._on_settle(lambda f: seen.append(f.result + 1))
        assert seen == [41, 42]  # already settled: runs at once
