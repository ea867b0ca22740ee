"""Tests for the BCL baseline: protocol fidelity, memory rules, queues."""

import pytest

from repro.bcl import BCL, BCLOutOfMemory
from repro.fabric import Cluster


@pytest.fixture
def bcl(small_spec):
    return BCL(small_spec)


class TestHashMapProtocol:
    def test_insert_find_roundtrip(self, bcl):
        m = bcl.hashmap("m", capacity_per_partition=1024, entry_size=256)

        def body(rank):
            yield from m.insert(rank, f"k{rank}", rank * 2)
            value, found = yield from m.find(rank, f"k{rank}")
            assert found and value == rank * 2

        bcl.cluster.spawn_ranks(body)
        bcl.cluster.run()
        assert m.inserts.value == 8 and m.finds.value == 8

    def test_find_missing(self, bcl, drive):
        m = bcl.hashmap("m", capacity_per_partition=64, entry_size=64)

        def body():
            return (yield from m.find(0, "ghost"))

        assert drive(bcl.cluster, body()) == (None, False)

    def test_insert_costs_three_remote_verbs(self, bcl):
        """The Fig 1 protocol: CAS + WRITE + CAS per collision-free insert."""
        m = bcl.hashmap("m", capacity_per_partition=1024, entry_size=64,
                        partitions=1)
        m._partition_nodes = [1]  # force remote from node 0
        target_nic = bcl.cluster.node(1).nic

        def body():
            yield m.ready
            before = target_nic.verbs_processed.value
            yield from m.insert(0, "key", "value")
            return target_nic.verbs_processed.value - before

        proc = bcl.cluster.spawn(body())
        bcl.cluster.run()
        # 2 atomics + 1 write processed at the target NIC.
        assert proc.result == 3

    def test_collision_probing_costs_extra_cas(self, bcl):
        m = bcl.hashmap("m", capacity_per_partition=8, entry_size=64,
                        partitions=1)
        keys = [0, 8, 16, 24]  # hash(k) % 8 == 0 for all: guaranteed clash

        def body(rank):
            yield from m.insert(rank, keys[rank], keys[rank])

        bcl.cluster.spawn_ranks(body, ranks=range(4))
        bcl.cluster.run()
        # Linear probing on a shared home bucket costs extra CAS attempts.
        assert m.cas_retries.value > 0
        stored = dict(m.stored_items())
        assert stored == {k: k for k in keys}

    def test_probe_exhaustion_raises(self, bcl):
        m = bcl.hashmap("m", capacity_per_partition=4, entry_size=64,
                        partitions=1)

        def body():
            for i in range(10):  # 10 keys into 4 static buckets
                yield from m.insert(0, i, i)

        proc = bcl.cluster.spawn(body())
        bcl.cluster.run()
        with pytest.raises(RuntimeError, match="static partition too small"):
            proc.result

    def test_overwrite_same_key(self, bcl, drive):
        m = bcl.hashmap("m", capacity_per_partition=64, entry_size=64)

        def body():
            yield from m.insert(0, "k", 1)
            yield from m.insert(0, "k", 2)
            return (yield from m.find(0, "k"))

        assert drive(bcl.cluster, body()) == (2, True)

    def test_atomic_update_no_lost_updates(self, bcl):
        """Concurrent increments through the CAS-locked RMW protocol."""
        m = bcl.hashmap("m", capacity_per_partition=64, entry_size=64)

        def body(rank):
            for _ in range(10):
                yield from m.atomic_update(rank, "ctr", lambda v: v + 1, 0)

        bcl.cluster.spawn_ranks(body)
        bcl.cluster.run()
        stored = dict(m.stored_items())
        assert stored["ctr"] == 80

    def test_static_init_is_upfront(self, bcl):
        """BCL allocates the whole partition at init (Fig 4b ramp)."""
        m = bcl.hashmap("m", capacity_per_partition=4096, entry_size=4096)
        bcl.cluster.run()
        total = sum(bcl._bcl_bytes[n] for n in range(2))
        # Full static footprint despite zero inserts.
        assert total >= 2 * 4096 * 4096


class TestMemoryRules:
    def test_oom_above_budget(self, small_spec):
        bcl = BCL(small_spec)
        node = bcl.cluster.node(0)
        budget = int(BCL.MEMORY_FRACTION * node.memory_capacity)
        bcl.allocate(node, budget - 100, what="bulk")
        with pytest.raises(BCLOutOfMemory):
            bcl.allocate(node, 200, what="straw")

    def test_sixty_percent_rule_below_node_capacity(self, small_spec):
        """BCL refuses allocations the node itself could still serve."""
        bcl = BCL(small_spec)
        node = bcl.cluster.node(0)
        size = int(0.7 * node.memory_capacity)
        with pytest.raises(BCLOutOfMemory):
            bcl.allocate(node, size)
        node.allocate(size)  # the node itself has room — HCL could use it

    def test_large_entry_size_oom_at_init(self, small_spec):
        """The >1MB failures of Fig 5: exclusive buffers + static layout."""
        bcl = BCL(small_spec)
        m = bcl.hashmap(
            "m",
            capacity_per_partition=1 << 16,
            entry_size=2 << 20,  # 2 MB entries => 128 GB static > budget
            partitions=1,
        )
        bcl.cluster.run()
        assert not m.ready.triggered or not m.ready.ok

    def test_client_buffers_charged_once_per_target(self, bcl):
        m = bcl.hashmap("m", capacity_per_partition=64, entry_size=1024,
                        partitions=1, inflight_slots=16)

        def body():
            yield from m.insert(0, "a", 1)
            yield from m.insert(0, "b", 2)

        before_regions = dict(bcl._bcl_bytes)
        proc = bcl.cluster.spawn(body())
        bcl.cluster.run()
        proc.result
        assert len(m._client_buffers) == 1


class TestCircularQueue:
    def test_push_pop_order(self, bcl, drive):
        q = bcl.queue("q", capacity=64, entry_size=64)

        def body():
            for i in range(5):
                yield from q.push(0, i)
            out = []
            for _ in range(5):
                value, ok = yield from q.pop(0)
                assert ok
                out.append(value)
            return out

        assert drive(bcl.cluster, body()) == [0, 1, 2, 3, 4]

    def test_pop_empty(self, bcl, drive):
        q = bcl.queue("q", capacity=8, entry_size=64)

        def body():
            return (yield from q.pop(0))

        assert drive(bcl.cluster, body()) == (None, False)

    def test_overflow_raises(self, bcl, drive):
        q = bcl.queue("q", capacity=4, entry_size=64)

        def body():
            for i in range(5):
                yield from q.push(0, i)

        with pytest.raises(RuntimeError, match="overflow"):
            drive(bcl.cluster, body())

    def test_ring_wraparound(self, bcl, drive):
        q = bcl.queue("q", capacity=4, entry_size=64)

        def body():
            out = []
            for round_ in range(3):
                for i in range(4):
                    yield from q.push(0, (round_, i))
                for _ in range(4):
                    value, ok = yield from q.pop(0)
                    out.append(value)
            return out

        out = drive(bcl.cluster, body())
        assert out == [(r, i) for r in range(3) for i in range(4)]

    def test_concurrent_producers_consumers(self, bcl):
        q = bcl.queue("q", capacity=256, entry_size=64, home_node=1)
        popped = []

        def producer(rank):
            for i in range(8):
                yield from q.push(rank, (rank, i))

        def consumer(rank):
            got = 0
            while got < 8:
                value, ok = yield from q.pop(rank)
                if ok:
                    popped.append(tuple(value))
                    got += 1
                else:
                    yield bcl.sim.timeout(1e-6)

        for rank in range(4):
            bcl.cluster.spawn(producer(rank))
        for rank in range(4, 8):
            bcl.cluster.spawn(consumer(rank))
        bcl.cluster.run()
        assert len(popped) == 32
        for rank in range(4):
            mine = [i for r, i in popped if r == rank]
            assert mine == sorted(mine)

    def test_queue_ops_use_multiple_atomics(self, bcl):
        """Fig 6c: every push/pop issues client-side atomics."""
        q = bcl.queue("q", capacity=64, entry_size=64, home_node=1)
        region_name = q.region_name

        def body():
            yield q.ready
            region = bcl.cluster.node(1).nic.region(region_name)
            before = region.cas_attempts.value
            yield from q.push(0, "x")
            yield from q.pop(0)
            return region.cas_attempts.value - before

        proc = bcl.cluster.spawn(body())
        bcl.cluster.run()
        assert proc.result >= 2  # publish CAS + free CAS at minimum


class TestEnvironment:
    def test_duplicate_container_rejected(self, bcl):
        bcl.hashmap("m", capacity_per_partition=8, entry_size=8)
        with pytest.raises(KeyError):
            bcl.hashmap("m", capacity_per_partition=8, entry_size=8)

    def test_barrier_parties_match_cluster(self, bcl):
        barrier = bcl.barrier()
        assert barrier.parties == bcl.cluster.total_procs
        assert bcl.barrier() is barrier

    def test_run_ranks_is_the_twin_of_hcls(self, bcl):
        """Spawn, run, hand back the processes; a failed rank re-raises."""
        q = bcl.queue("q", capacity=64, entry_size=8)

        def body(rank):
            yield from q.push(rank, rank)
            return rank * 2

        procs = bcl.run_ranks(body, ranks=range(3))
        assert [p.result for p in procs] == [0, 2, 4]
        assert q.pushes.value == 3

        def failing(rank):
            yield from q.push(rank, rank)
            if rank == 1:
                raise ValueError("rank 1 broke")

        with pytest.raises(ValueError, match="rank 1 broke"):
            bcl.run_ranks(failing)

    def test_shared_cluster_with_hcl(self, small_spec):
        """BCL can run on an existing cluster object (comparison harness)."""
        cluster = Cluster(small_spec)
        bcl = BCL(cluster)
        assert bcl.cluster is cluster

    def test_bcl_requires_rdma_atomics(self, small_spec):
        """'Without CAS support, BCL structures cannot be implemented' —
        the tcp provider has no RDMA atomics, so BCL refuses it while HCL
        runs fine on the same fabric (Section II-B vs III)."""
        from repro.core import HCL

        with pytest.raises(RuntimeError, match="atomics"):
            BCL(Cluster(small_spec, provider="tcp"))
        # HCL is fabric-agnostic
        hcl = HCL(Cluster(small_spec, provider="tcp"))
        m = hcl.unordered_map("m")

        def body(rank):
            yield from m.insert(rank, rank, rank)

        hcl.run_ranks(body)
        assert m.total_entries() == 8
