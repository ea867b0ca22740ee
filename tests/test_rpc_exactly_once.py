"""Exactly-once RoR by completion records the client retires.

Every request carries a token ``(client node, seq)`` and its client's
watermark, the lowest seq it has not retired, both kept per destination;
the server keeps one record per token and drops those below the
watermark, which every request and every settle hands it.  These tests pin
what that buys: a token replayed arbitrarily late still applies once, a
given-up invocation leaks no slot, record or reference cycle, settled
responses are not kept, a settle retires records without a later request,
a late duplicate never writes into a slot another call holds, a
failed-over write replayed after a restart applies once, a closed server
leaves no worker behind, and a serving run leaves no record at any server.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import replace

from repro.config import RetryPolicy, ares_like
from repro.core import HCL
from repro.fabric import Cluster
from repro.fabric.faults import FaultPlan, LinkFaults
from repro.rpc import RpcClient, RpcServer
from repro.rpc.future import TargetUnavailable
from repro.rpc.server import RpcResponse
from repro.simnet import Process


def _cluster(nodes=2, plan=None, retry=None):
    spec = ares_like(nodes=nodes, procs_per_node=1, seed=7)
    if retry is not None:
        spec = spec.scaled(cost=replace(spec.cost, retry=retry))
    cluster = Cluster(spec)
    # A fault plan arms the completion timers; with no faults in it, it
    # shows that tokens and records do not depend on faults happening.
    return cluster, cluster.install_faults(plan or FaultPlan(name="quiet"))


def _rig(plan=None):
    cluster, injector = _cluster(plan=plan)
    servers = {i: RpcServer(cluster.node(i)) for i in range(2)}
    for server in servers.values():
        server.bind("noop", lambda ctx: None)
    return cluster, injector, servers, RpcClient(cluster, 0, servers)


def _calls(client, dst, n, op="noop", width=8):
    """Generator: ``n`` calls, ``width`` in flight at a time (few enough
    that none outlives its completion timer)."""
    for _ in range(0, n, width):
        futs = [client.invoke(dst, op) for _ in range(width)]
        for fut in futs:
            yield fut.wait()
            assert fut.ok


def _live_responses() -> int:
    gc.collect()
    return sum(isinstance(o, RpcResponse) for o in gc.get_objects())


class TestCompletionRecords:
    def test_token_sent_again_after_8192_newer_ones_applies_once(self):
        cluster, _injector, servers, client = _rig()
        applied = []
        servers[1].bind("bump",
                        lambda ctx, x: applied.append(x) or len(applied))
        token = client.next_token(1)

        def body():
            first = yield from client.call(1, "bump", ("a",), token=token)
            yield from _calls(client, 1, 8192)
            again = yield from client.call(1, "bump", ("a",), token=token)
            return first, again

        assert cluster.sim.run_process(body()) == (1, 1)
        assert applied == ["a"]
        assert servers[1].duplicates_suppressed.value == 1

    def test_give_ups_leave_no_slot_or_record(self):
        cluster, injector, servers, client = _rig()
        injector.crash(1)  # down for good
        futs = [client.invoke(1, "noop") for _ in range(5)]
        cluster.run()
        assert all(isinstance(f._event.value, TargetUnavailable)
                   for f in futs)
        assert not servers[1]._slots
        assert servers[1].idle()
        assert client._watermarks[1] == 6  # every drawn token retired

    def test_settled_responses_are_not_kept(self):
        before = _live_responses()
        cluster, _injector, servers, client = _rig()
        futs = [client.invoke(1, "noop") for _ in range(1000)]
        cluster.run()
        assert all(f.ok for f in futs)
        last = client.invoke(1, "noop")
        cluster.run()
        assert last.ok
        # Each settle handed the server the watermark, retiring the
        # records, and every settled slot was emptied.
        assert _live_responses() - before <= 1
        assert not servers[1].response_region.objects

    def test_settles_retire_records_without_a_later_request(self):
        """The settle hands the server the client's watermark, so no later
        request is needed to retire a settled call's record; a token the
        client still pins holds its record and every one above it."""
        cluster, _injector, servers, client = _rig()
        futs = [client.invoke(1, "noop") for _ in range(100)]
        cluster.run()
        assert all(f.ok for f in futs)
        assert not servers[1]._records[0]
        token = client.next_token(1)
        futs = [client.invoke(1, "noop", token=token)]
        futs += [client.invoke(1, "noop") for _ in range(5)]
        cluster.run()
        assert all(f.ok for f in futs)
        assert sorted(servers[1]._records[0]) == list(range(101, 107))

    def test_late_duplicate_never_writes_into_a_reused_slot(self,
                                                           monkeypatch):
        """Two slots, every SEND duplicated 200 us late: the copy of a
        settled call arrives while a later call holds its old slot."""
        monkeypatch.setattr(RpcServer, "RESPONSE_SLOTS", 2)
        plan = FaultPlan(name="dup-late", links={
            (0, 1): LinkFaults(dup=1.0, dup_delay=200e-6)})
        cluster, injector, servers, client = _rig(plan=plan)

        def echo(ctx, x, delay):
            yield delay
            return x

        servers[1].bind("echo", echo)

        def body():
            out = []
            for x, delay in (("A", 0.0), ("B", 0.0), ("C", 500e-6)):
                out.append((yield from client.call(1, "echo", (x, delay))))
            return out

        assert cluster.sim.run_process(body()) == ["A", "B", "C"]
        assert injector.dups.value >= 3
        assert servers[1].requests_served.value == 3

    def test_replayed_failover_write_applies_once(self):
        """A write executes on its primary but its answer is lost; while
        the client keeps pulling, 8192 newer requests execute there; then
        the primary crashes, the write fails over, the client's later
        requests move its watermark, and the primary restarts.  The
        replay under the original token must not apply it again."""
        retry = RetryPolicy(timeout=60e-6, max_retries=6,
                            backoff_base=2e-3, backoff_factor=2.0,
                            backoff_max=40e-3)
        # Node 1 -> node 0 loses everything for the first 50 ms, so the
        # client's pulls of the write's response fail.
        plan = FaultPlan(name="lost-answer",
                         links={(1, 0): LinkFaults(drop=1.0)},
                         window=(0.0, 50e-3))
        cluster, injector = _cluster(nodes=3, plan=plan, retry=retry)
        h = HCL(cluster)
        m = h.unordered_map("m", partitions=3, replication=1,
                            write_failover=True)
        key = next(k for k in range(1000)
                   if m.partition_for(k).node_id == 1)
        writer = h.client(0)
        flooder = h.client(2)
        for server in h._servers.values():
            server.bind("noop", lambda ctx: None)
        seen = {}

        def write():
            yield from m.upsert(0, key, 1)  # rank 0 lives on node 0

        def storm():
            yield 1e-3  # the write has executed; its pulls are failing
            yield from _calls(flooder, 1, 8192)
            seen["flood_done"] = cluster.sim.now
            injector.crash(1)
            yield 150e-3  # the write exhausts its budget and fails over
            seen["failed_over"] = m.failover_writes.value
            for _ in range(5):
                yield from writer.call(2, "noop")
            # The replay still holds the write's token: the watermark at
            # its server stays at it, whatever the writer sends elsewhere.
            (held,) = writer._held[1]
            seen["watermark_at_token"] = writer._watermarks.get(1, 1) == held
            injector.restart(1)

        cluster.spawn(write())
        cluster.spawn(storm())
        cluster.run()
        assert seen["flood_done"] < 50e-3
        assert seen["failed_over"] == 1
        assert seen["watermark_at_token"]
        assert m.replayed_writes.value == 1
        value, found, _stats = m.partitions[1].structure.find(key)
        assert found and value == 1
        assert all(server.idle() for server in h._servers.values())


class TestGiveUpGarbage:
    def test_give_up_through_call_is_not_cyclic_garbage(self):
        """A ``TargetUnavailable`` thrown into ``client.call`` carries its
        frame on the traceback; the frame must not hold the future that
        holds the error, or every give-up is one reference cycle."""
        cluster, injector, _servers, client = _rig()
        injector.crash(1)  # down for good

        def body():
            for _ in range(3):
                try:
                    yield from client.call(1, "noop")
                except TargetUnavailable:
                    pass

        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            cluster.sim.run_process(body())
            gc.collect()
            types_ = Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert client.exhausted.value == 3
        assert types_["TargetUnavailable"] == 0
        assert types_["RPCFuture"] == 0
        assert types_["traceback"] == 0


class TestWorkerGarbage:
    def test_closed_servers_leave_no_worker_behind(self):
        """An idle worker waits on its receive queue forever, so ``close()``
        must end it: else every worker's process and generator outlive the
        run as cyclic garbage."""
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            cluster, _injector, servers, client = _rig()
            cluster.sim.run_process(_calls(client, 1, 16))
            for server in servers.values():
                server.close()
            del cluster, _injector, servers, client
            gc.collect()
            workers = sum(isinstance(o, Process)
                          and o.name.startswith("rpc-worker-")
                          for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert workers == 0


class TestRecordsPerDestination:
    """Each client keeps one seq counter and one watermark per server, so
    a call pending at one server holds back no record at another: the
    serving rows leave no record for ``close()`` to drop."""

    @staticmethod
    def _left_at_close(monkeypatch, bound):
        from repro.harness.serving import run_serving

        left = {}
        close = RpcServer.close

        def counting_close(server):
            left[server.node.node_id] = sum(
                len(records) for records in server._records.values())
            close(server)

        monkeypatch.setattr(RpcServer, "close", counting_close)
        report = run_serving(
            nodes=4, procs_per_node=4, clients=500, tenants=4, theta=0.99,
            keys=512, mix=(0.70, 0.20, 0.10), queue_frac=0.5,
            queue_home="packed", rate=4800.0, ops_per_client=15, seed=7,
            bounds=(bound,), shed_retries=0, retry_backoff=1e-3,
            rpc_batch_size=1)
        assert report["configs"][0]["completed"] > 0
        return left

    def test_unbounded_serving_row_leaves_no_record(self, monkeypatch):
        assert self._left_at_close(monkeypatch, None) == dict.fromkeys(
            range(4), 0)

    def test_bound16_serving_row_leaves_no_record(self, monkeypatch):
        assert self._left_at_close(monkeypatch, 16) == dict.fromkeys(
            range(4), 0)
