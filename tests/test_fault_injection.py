"""Fault injection, RPC retry/backoff, idempotency, and replica failover.

These tests exercise the chaos stack end to end at small scale:
``FaultPlan`` → ``FaultInjector`` (drops / duplicates / crashes /
partitions) → the ``RpcClient`` retry loop (timeout, backoff, retry budget,
idempotency tokens) → container write failover and post-restart replay.
"""

from __future__ import annotations

import pytest

from repro.config import RetryPolicy, ares_like
from repro.core import HCL
from repro.fabric import Cluster
from repro.fabric.faults import (
    FaultPlan,
    LinkFaults,
    PLAN_NAMES,
    make_plan,
)
from repro.rpc.future import TargetUnavailable

from tests.conftest import run_rank0


def _chaos_hcl(nodes=2, procs=4, seed=7, plan=None, retry=None):
    spec = ares_like(nodes=nodes, procs_per_node=procs, seed=seed)
    if retry is not None:
        from dataclasses import replace

        spec = spec.scaled(cost=replace(spec.cost, retry=retry))
    cluster = Cluster(spec)
    injector = cluster.install_faults(plan or FaultPlan())
    return HCL(cluster), injector


class TestPlans:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            LinkFaults(drop=1.5)
        with pytest.raises(ValueError):
            LinkFaults(drop=0.6, dup=0.3, delay=0.2)

    def test_make_plan_names(self):
        for name in PLAN_NAMES:
            plan = make_plan(name, nodes=4)
            assert plan.name == name

    def test_make_plan_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_plan("hurricane", nodes=4)

    def test_double_install_rejected(self):
        cluster = Cluster(ares_like(nodes=2, procs_per_node=2))
        cluster.install_faults(FaultPlan())
        with pytest.raises(RuntimeError):
            cluster.install_faults(FaultPlan())


class TestDropRetry:
    def test_lossy_link_operations_still_complete(self):
        """A 20%-lossy fabric: every op lands thanks to retransmission."""
        plan = FaultPlan(default=LinkFaults(drop=0.2))
        h, injector = _chaos_hcl(plan=plan)
        m = h.unordered_map("m")

        def body():
            for i in range(40):
                ok = yield from m.insert(1 * h.cluster.spec.procs_per_node, (1, i), i)
                assert ok
            found = 0
            for i in range(40):
                value, hit = yield from m.find(h.cluster.spec.procs_per_node, (1, i))
                found += bool(hit and value == i)
            return found

        # rank on node 1, keys spread over both nodes => remote traffic
        assert run_rank0(h, body()) == 40
        assert injector.drops.value > 0
        client = h.client(1)
        assert client.retries.value > 0

    def test_fair_weather_runs_deterministic(self):
        """With no plan installed the classic protocol runs (and repeats)
        without any retry machinery on the timeline."""
        def run_once():
            spec = ares_like(nodes=2, procs_per_node=2, seed=3)
            h = HCL(Cluster(spec))
            m = h.unordered_map("m")

            def body(rank):
                for i in range(10):
                    yield from m.insert(rank, (rank, i), i)

            h.run_ranks(body)
            assert h.client(0).retries.value == 0
            assert h.client(1).retries.value == 0
            return h.now

        assert run_once() == run_once()


class TestIdempotency:
    def test_duplicated_upserts_apply_once(self):
        """A duplicating fabric must not double-count upserts."""
        plan = FaultPlan(default=LinkFaults(dup=0.5))
        h, injector = _chaos_hcl(plan=plan)
        m = h.unordered_map("m")
        # caller on the node that does NOT own the key => remote traffic
        home = m.partition_for("hot-key").node_id
        remote_rank = (1 - home) * h.cluster.spec.procs_per_node

        def body():
            for _ in range(30):
                yield from m.upsert(remote_rank, "hot-key", 1)
            value, found = yield from m.find(remote_rank, "hot-key")
            return value, found

        value, found = run_rank0(h, body())
        assert found and value == 30
        assert injector.dups.value > 0
        suppressed = sum(
            s.duplicates_suppressed.value for s in h._servers.values()
        )
        assert suppressed > 0

    def test_retry_after_lost_completion_applies_once(self):
        """Response-path loss forces retransmits of already-executed
        requests; the server must serve the recorded envelope instead of
        re-running the mutation."""
        plan = FaultPlan(default=LinkFaults(drop=0.25))
        h, _injector = _chaos_hcl(plan=plan, seed=11)
        m = h.unordered_map("m")
        home = m.partition_for("counter").node_id
        remote_rank = (1 - home) * h.cluster.spec.procs_per_node

        def body():
            for _ in range(25):
                yield from m.upsert(remote_rank, "counter", 1)
            value, found = yield from m.find(remote_rank, "counter")
            return value, found

        value, found = run_rank0(h, body())
        assert found and value == 25


class TestExhaustion:
    def test_target_unavailable_after_budget(self):
        """Unreplicated container + dead node => TargetUnavailable, which
        is still a ConnectionError for existing handlers."""
        h, injector = _chaos_hcl(
            retry=RetryPolicy(timeout=20e-6, max_retries=2,
                              backoff_base=5e-6, backoff_max=20e-6)
        )
        m = h.unordered_map("m", partitions=2)
        injector.crash(1)
        part1 = m.partitions[1]
        key = next(
            k for k in range(1000) if m.partition_for(k) is part1
        )

        def body():
            yield from m.insert(0, key, 1)

        with pytest.raises(TargetUnavailable) as excinfo:
            run_rank0(h, body())
        assert isinstance(excinfo.value, ConnectionError)
        assert excinfo.value.attempts == 3
        # the client's own token rides the error, for a container replay
        assert excinfo.value.token[0] == 0
        assert h.client(0).exhausted.value > 0


class TestCrashFailover:
    def _failover_map(self, h):
        return h.unordered_map(
            "m", partitions=2, replication=1, write_failover=True
        )

    def test_write_failover_and_replay_on_restart(self):
        """Writes during a crash land on the replica, get acked, and are
        replayed onto the primary after its restart."""
        h, injector = _chaos_hcl(
            retry=RetryPolicy(timeout=20e-6, max_retries=2,
                              backoff_base=5e-6, backoff_max=20e-6)
        )
        m = self._failover_map(h)
        part1 = m.partitions[1]
        keys = [k for k in range(1000) if m.partition_for(k) is part1][:5]
        injector.crash(1)

        def storm():
            for k in keys:
                ok = yield from m.insert(0, k, k * 10)
                assert ok

        run_rank0(h, storm())
        assert m.failover_writes.value == len(keys)
        assert not m.partitions[1].structure  # primary missed them
        # restart fires the replay hook; drain the replay processes
        injector.restart(1)
        h.cluster.run()
        assert m.replayed_writes.value == len(keys)

        def verify():
            results = []
            for k in keys:
                value, found = yield from m.find(0, k)
                results.append((value, found))
            return results

        assert run_rank0(h, verify()) == [(k * 10, True) for k in keys]

    def test_replica_serves_reads_while_primary_down(self):
        h, injector = _chaos_hcl(
            retry=RetryPolicy(timeout=20e-6, max_retries=1,
                              backoff_base=5e-6, backoff_max=10e-6)
        )
        m = self._failover_map(h)
        part1 = m.partitions[1]
        key = next(k for k in range(1000) if m.partition_for(k) is part1)

        def seed_phase():
            yield from m.insert(0, key, 42)

        run_rank0(h, seed_phase())
        injector.crash(1)

        def read_phase():
            value, found = yield from m.find(0, key)
            return value, found

        assert run_rank0(h, read_phase()) == (42, True)
        assert m.failover_reads.value == 1

    @pytest.mark.parametrize("aggregation", [0, 8])
    @pytest.mark.parametrize("spelling", ["insert", "upsert_buffered"])
    def test_cached_read_sees_write_acked_on_replica(self, aggregation,
                                                    spelling):
        """A write acked on the replica moves the primary's epoch, so no
        node's cached read of the old value is served while the primary
        is down: not the writer's, nor a third node's."""
        h, injector = _chaos_hcl(
            nodes=3,
            retry=RetryPolicy(timeout=20e-6, max_retries=1,
                              backoff_base=5e-6, backoff_max=10e-6),
        )
        m = h.unordered_map("m", partitions=2, replication=1,
                            write_failover=True, read_cache=True,
                            aggregation=aggregation)
        part1 = m.partitions[1]
        key = next(k for k in range(1000) if m.partition_for(k) is part1)
        third = next(r for r in range(h.cluster.spec.total_procs)
                     if h.cluster.node_of_rank(r) not in (0, part1.node_id))
        readers = (0, third)

        def prime():
            yield from m.insert(0, key, 1)
            for rank in readers:
                assert (yield from m.find(rank, key)) == (1, True)

        run_rank0(h, prime())
        injector.crash(part1.node_id)

        def write_then_read():
            if spelling == "insert":
                yield from m.insert(0, key, 5)
            else:
                yield from m.upsert_buffered(0, key, 4)
                yield from m.flush(0)
            seen = []
            for rank in readers:
                seen.append(tuple((yield from m.find(rank, key))))
            return seen

        assert run_rank0(h, write_then_read()) == [(5, True), (5, True)]
        assert m.failover_writes.value == 1
        assert m.aggregation_report()["read_cache"]["hits"] == 0
        h.close()

    def test_scheduled_crash_and_restart(self):
        """A FaultPlan crash window takes the node down on the timeline and
        the injector restarts it, firing recovery hooks."""
        plan = FaultPlan(crashes=[(1, 100e-6, 400e-6)])
        h, injector = _chaos_hcl(plan=plan)
        node1 = h.cluster.node(1)
        seen = []

        def watcher():
            yield h.sim.timeout(200e-6)
            seen.append(("mid", node1.alive))
            yield h.sim.timeout(300e-6)
            seen.append(("after", node1.alive))

        run_rank0(h, watcher())
        assert seen == [("mid", False), ("after", True)]
        assert injector.crashes.value == 1
        assert injector.restarts.value == 1


class TestPartition:
    def test_partition_drops_cross_group_traffic(self):
        plan = FaultPlan(partitions=[(0.0, 1.0, [[0], [1]])])
        h, injector = _chaos_hcl(
            plan=plan,
            retry=RetryPolicy(timeout=20e-6, max_retries=1,
                              backoff_base=5e-6, backoff_max=10e-6),
        )
        m = h.unordered_map("m", partitions=2)
        part1 = m.partitions[1]
        key = next(k for k in range(1000) if m.partition_for(k) is part1)

        def body():
            yield from m.insert(0, key, 1)

        with pytest.raises(ConnectionError):
            run_rank0(h, body())
        assert injector.partition_drops.value > 0

    def test_heal_restores_service(self):
        plan = FaultPlan(crashes=[(1, 0.0, None)])  # down until heal
        h, injector = _chaos_hcl(
            plan=plan,
            retry=RetryPolicy(timeout=20e-6, max_retries=1,
                              backoff_base=5e-6, backoff_max=10e-6),
        )
        m = h.unordered_map("m", partitions=2)
        part1 = m.partitions[1]
        key = next(k for k in range(1000) if m.partition_for(k) is part1)

        def body():
            yield from m.insert(0, key, 1)

        with pytest.raises(ConnectionError):
            run_rank0(h, body())
        injector.heal()
        assert h.cluster.node(1).alive

        def retry_body():
            ok = yield from m.insert(0, key, 1)
            return ok

        assert run_rank0(h, retry_body()) is True


class TestSoakDeterminism:
    def test_same_seed_same_report(self):
        from repro.harness.chaos import run_chaos_soak

        kwargs = dict(plan="mixed", seed=5, nodes=2, procs_per_node=2,
                      keys_per_rank=8, kmers_per_rank=6)
        a = run_chaos_soak(**kwargs)
        b = run_chaos_soak(**kwargs)
        assert a == b
        assert a["ok"]
        assert a["injected_total"] > 0

    def test_soak_reports_zero_lost_acked_writes(self):
        from repro.harness.chaos import run_chaos_soak

        for plan in ("drop-heavy", "crash-heavy", "partition"):
            report = run_chaos_soak(plan=plan, seed=0, nodes=3,
                                    procs_per_node=2, keys_per_rank=10,
                                    kmers_per_rank=8)
            assert report["lost_acked_writes"] == 0, report
            assert report["duplicate_mutations"] == 0, report
            assert report["injected_total"] > 0
