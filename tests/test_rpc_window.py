"""AIMD congestion windows on the pipelined RPC issue path.

Covers the window's control law (additive increase, epoch-guarded halving,
the floor-of-1 progress guarantee), the windowed ``invoke`` (a shed halves
the window and surfaces at once, one attempt per op, stall accounting) and
the bit-determinism of window trajectories across reruns.
"""

from __future__ import annotations

import pytest

from repro.config import ares_like
from repro.fabric import Cluster
from repro.fabric.faults import FaultPlan, LinkFaults
from repro.obs.registry import registry_of
from repro.rpc import RemoteError, RpcClient, RpcServer
from repro.rpc.future import ServerOverloaded
from repro.rpc.window import (
    CAP, FLOOR, INITIAL, LATENCY_FACTOR, AIMDWindow, WindowSet,
)
from repro.simnet import Simulator


def _window(sim) -> AIMDWindow:
    metrics = registry_of(sim)
    return AIMDWindow(
        sim, metrics.gauge("rpc/cwnd/test"),
        metrics.counter("rpc/window_stalls"),
        metrics.counter("rpc/window_sheds"),
    )


class TestControlLaw:
    def test_additive_increase_under_target(self):
        win = _window(Simulator())
        assert win.cwnd == INITIAL == 4
        for seq in range(1, 9):
            win._launch_seq = seq
            win.outstanding = 1
            win.completed(seq, latency=1e-6)
        assert win.cwnd > 4.0
        # ~ additive ops per window of completions, not per completion
        assert win.cwnd < 4.0 + 8

    def test_capped_at_cap(self):
        win = _window(Simulator())
        win.cwnd = CAP - 1.0
        for seq in range(1, 2 * CAP):
            win._launch_seq = seq
            win.outstanding = 1
            win.completed(seq, latency=1e-6)
        assert win.cwnd == CAP == 256

    def test_shed_halves(self):
        win = _window(Simulator())
        win._launch_seq = 1
        win.outstanding = 1
        win.shed(1)
        assert win.cwnd == INITIAL / 2

    def test_latency_spike_halves(self):
        win = _window(Simulator())
        win._launch_seq = 2
        win.outstanding = 2
        win.completed(1, latency=1e-6)   # establishes base latency
        grown = win.cwnd
        win.completed(2, latency=LATENCY_FACTOR * 1e-6 * 1.01)
        assert win.cwnd == grown / 2

    def test_sustained_sheds_hit_floor_of_one(self):
        """The floor guarantees progress: never 0, never negative."""
        win = _window(Simulator())
        assert FLOOR == 1
        for seq in range(1, 40):
            win._launch_seq = seq  # new launch epoch -> decrease allowed
            win.outstanding = 1
            win.shed(seq)
        assert win.cwnd == 1.0
        # ...and a window of 1 still launches.
        ran = []
        win.submit(lambda seq: ran.append(seq))
        assert ran

    def test_recovery_epoch_absorbs_shed_burst(self):
        """Sheds of launches from one in-flight window halve once, not N."""
        win = _window(Simulator())
        win._launch_seq = 4          # a full window of launches in flight
        win.outstanding = 4
        for seq in range(1, 5):      # every one of them sheds
            win.shed(seq)
        assert win.cwnd == 2.0       # one halving, not 4 / 2**4


class TestSubmitQueue:
    def test_full_window_queues_and_counts_stall(self):
        sim = Simulator()
        win = _window(sim)
        order = []
        for name in "abcde":
            win.submit(lambda seq, name=name: order.append((name, seq)))
        # the fifth launch finds the window of INITIAL full
        assert order == [("a", 1), ("b", 2), ("c", 3), ("d", 4)]
        assert len(win._queue) == 1
        assert registry_of(sim).counter("rpc/window_stalls").value == 1
        win.completed(1, latency=1e-6)  # frees a slot -> pump
        assert order[-1] == ("e", 5)
        assert not win._queue


class TestWindowSet:
    def test_keyed_per_node_and_stream(self, sim):
        ws = WindowSet(sim, src_node=0)
        a = ws.window(1, 0)
        assert ws.window(1, 0) is a
        assert ws.window(1, 1) is not a
        assert ws.window(2, 0) is not a
        snap = ws.snapshot()
        assert set(snap) == {"n0-n1s0", "n0-n1s1", "n0-n2s0"}
        assert all(v == 4.0 for v in snap.values())

    def test_gauges_exported(self, sim):
        ws = WindowSet(sim, src_node=3)
        ws.window(1, 2).completed(1, 1e-6)
        gauge = registry_of(sim).gauge("rpc/cwnd/n3-n1s2")
        assert gauge.value == ws.window(1, 2).cwnd


def _shed_rig():
    """2 nodes; node 1 serves with one worker and a tiny receive queue."""
    spec = ares_like(nodes=2, procs_per_node=4, seed=7)
    cluster = Cluster(spec)
    servers = {
        0: RpcServer(cluster.node(0)),
        1: RpcServer(cluster.node(1), workers=1, queue_bound=1),
    }
    client = RpcClient(cluster, 0, servers, window=True)

    def slow(ctx, i):
        yield ctx.sim.timeout(40e-6)
        return i

    servers[1].bind("slow", slow)
    return cluster, servers, client


class TestWindowedInvoke:
    def test_same_result_as_direct(self, small_spec):
        cluster = Cluster(small_spec)
        servers = {i: RpcServer(cluster.node(i)) for i in range(2)}
        client = RpcClient(cluster, 0, servers, window=True)
        servers[1].bind("echo", lambda ctx, x: x * 2)
        fut = client.invoke(1, "echo", (21,), stream=0)
        cluster.run()
        assert fut.result == 42

    def test_storm_sheds_shrink_window_without_deadlock(self):
        """Every op settles: acked with its result, or shed to the caller."""
        cluster, _servers, client = _shed_rig()
        futs = [client.invoke(1, "slow", (i,), stream=0) for i in range(40)]
        cluster.run()
        assert all(f.done for f in futs)
        acked = [i for i, f in enumerate(futs) if f.ok]
        shed = [f for f in futs if not f.ok]
        assert [futs[i].result for i in acked] == acked
        assert shed and all(isinstance(f._value, ServerOverloaded)
                            for f in shed)
        metrics = registry_of(cluster.sim)
        assert metrics.counter("rpc/window_sheds").value == len(shed)
        assert metrics.counter("rpc/window_stalls").value > 0
        win = client.windows.window(1, 0)
        assert win.cwnd < INITIAL      # shrank under overload...
        assert win.cwnd >= 1.0         # ...but never below the floor
        assert win.outstanding == 0 and not win._queue

    def test_failed_attempts_halve_once_and_surface(self, small_spec):
        """A handler that raises is a non-shed failure: each caller gets
        the ``RemoteError``, the window drains to 0 outstanding, a burst
        of failures from one in-flight window halves ``cwnd`` once (the
        recovery epoch), and nothing counts as a shed."""
        cluster = Cluster(small_spec)
        servers = {i: RpcServer(cluster.node(i)) for i in range(2)}
        client = RpcClient(cluster, 0, servers, window=True)

        def boom(ctx, i):
            raise ValueError(f"boom {i}")

        servers[1].bind("boom", boom)
        futs = [client.invoke(1, "boom", (i,), stream=0)
                for i in range(INITIAL)]
        cluster.run()
        for i, fut in enumerate(futs):
            with pytest.raises(RemoteError, match=f"boom {i}"):
                _ = fut.result
        win = client.windows.window(1, 0)
        assert win.outstanding == 0 and not win._queue
        assert win.cwnd == INITIAL / 2
        assert registry_of(cluster.sim).counter(
            "rpc/window_sheds").value == 0

    def test_shed_surfaces_at_once(self):
        """One op holds the worker and one the queue slot for a simulated
        second, so the other two (each in its own window) are shed: the
        caller sees the shed after one round trip, not after a backoff."""
        cluster, servers, client = _shed_rig()

        def hog(ctx):
            yield ctx.sim.timeout(1.0)

        servers[1].bind("hog", hog)
        futs = [client.invoke(1, "hog", stream=i) for i in range(4)]
        cluster.run()
        assert [f.ok for f in futs] == [True, True, False, False]
        with pytest.raises(ServerOverloaded):
            _ = futs[2].result
        assert max(f.completed_at for f in futs[2:]) < 1e-3
        assert client.shed_seen.value == 2
        assert client.invocations.value == 4

    def test_pinned_token_rides_every_attempt(self, monkeypatch):
        """One attempt per op, carrying the caller's token verbatim."""
        cluster, _servers, client = _shed_rig()
        seen = []
        direct = RpcClient._invoke_direct

        def spy(self, dst, op, args=(), payload_size=None, callbacks=None,
                token=None, trace_parent=None, stream=None):
            seen.append(token)
            return direct(self, dst, op, args, payload_size, callbacks,
                          token, trace_parent, stream)

        monkeypatch.setattr(RpcClient, "_invoke_direct", spy)
        futs = [client.invoke(1, "slow", (i,), stream=0, token=(0, 100 + i))
                for i in range(20)]
        cluster.run()
        assert any(not f.ok for f in futs), "the rig must shed"
        assert sorted(seen) == [(0, 100 + i) for i in range(20)]

    def test_dup_of_shed_send_applies_once(self):
        """A duplicated SEND skips admission, but the shed left a record
        under its token, so the copy of a shed SEND is dropped: exactly
        one application per acked op, none per shed op."""
        cluster, servers, client = _shed_rig()
        cluster.install_faults(FaultPlan(
            name="dup-all", links={(0, 1): LinkFaults(dup=0.5)},
        ))
        applied = {}

        def bump(ctx, i):
            yield ctx.sim.timeout(40e-6)
            applied[i] = applied.get(i, 0) + 1
            return i

        servers[1].bind("bump", bump)
        futs = [client.invoke(1, "bump", (i,), stream=0) for i in range(40)]
        cluster.run()
        metrics = registry_of(cluster.sim)
        assert metrics.counter("faults/dups").value > 0
        acked = [i for i, f in enumerate(futs) if f.ok]
        assert [futs[i].result for i in acked] == acked
        assert all(applied.get(i) == 1 for i in acked)
        assert all(n == 1 for n in applied.values())
        shed = [i for i, f in enumerate(futs) if not f.ok]
        assert shed, "the rig must shed"
        assert not [i for i in shed if applied.get(i)]
        # some shed SEND was duplicated, and its copy suppressed
        assert servers[1].duplicates_suppressed.value > 0

    def test_auto_tokens_never_reused_across_attempts(self, monkeypatch):
        """The window passes the caller's token through and draws none of
        its own: the invocation draws a fresh one, so no two executed
        requests share a token."""
        cluster, servers, client = _shed_rig()
        cluster.install_faults(FaultPlan(name="quiet"))
        seen = []
        executed = []
        direct = RpcClient._invoke_direct
        execute = RpcServer._execute

        def spy(self, dst, op, args=(), payload_size=None, callbacks=None,
                token=None, trace_parent=None, stream=None):
            seen.append(token)
            return direct(self, dst, op, args, payload_size, callbacks,
                          token, trace_parent, stream)

        def spy_execute(self, req):
            served = self.requests_served.value
            yield from execute(self, req)
            if self.requests_served.value > served:  # the handler ran
                executed.append(req.token)

        monkeypatch.setattr(RpcClient, "_invoke_direct", spy)
        monkeypatch.setattr(RpcServer, "_execute", spy_execute)
        futs = [client.invoke(1, "slow", (i,), stream=0) for i in range(20)]
        cluster.run()
        assert seen == [None] * 20
        # Every executed request was tokened, each with its own token.
        assert None not in executed
        assert len(set(executed)) == len(executed) == sum(f.ok for f in futs)


class TestDeterminism:
    def _trajectory(self):
        cluster, _servers, client = _shed_rig()
        futs = [client.invoke(1, "slow", (i,), stream=i % 2)
                for i in range(60)]
        cluster.run()
        metrics = registry_of(cluster.sim)
        return (
            client.windows.snapshot(),
            cluster.sim.now,
            [(f.ok, f.completed_at) for f in futs],
            metrics.counter("rpc/window_stalls").value,
            metrics.counter("rpc/window_sheds").value,
        )

    def test_same_seed_same_window_trajectory(self):
        assert self._trajectory() == self._trajectory()
