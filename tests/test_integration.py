"""End-to-end integration tests: the paper's claims at test scale."""


from repro.bcl import BCL
from repro.config import ares_like
from repro.core import HCL
from repro.harness import Blob


class TestHeadlineClaim:
    """'HCL programs are 2x to 12x faster compared to BCL' (abstract)."""

    def test_remote_insert_speedup_in_paper_band(self):
        """Fig 1 shape: procedural RPC beats client-side CAS by ~2-5x."""
        ops, nclients, size = 256, 16, 4096
        spec = ares_like(nodes=2, procs_per_node=nclients)

        bcl = BCL(spec)
        bm = bcl.hashmap("kv", capacity_per_partition=8 * ops * nclients,
                         entry_size=size, partitions=1)
        bm._partition_nodes = [1]

        def bcl_body(rank):
            for i in range(ops):
                yield from bm.insert(rank, (rank, i), Blob(size))

        bcl.cluster.spawn_ranks(bcl_body, ranks=range(nclients))
        bcl.cluster.run()
        t_bcl = bcl.sim.now

        hcl = HCL(spec)
        hm = hcl.unordered_map("kv", partitions=1, nodes=[1],
                               initial_buckets=8 * ops * nclients)

        def hcl_body(rank):
            for i in range(ops):
                yield from hm.insert(rank, (rank, i), Blob(size))

        hcl.run_ranks(hcl_body, ranks=range(nclients))
        t_hcl = hcl.now

        speedup = t_bcl / t_hcl
        assert 1.5 < speedup < 12.0, f"speedup {speedup:.2f} out of paper band"

    def test_intra_node_bypass_dominates(self):
        """Fig 5a: co-located HCL ops use shared memory and crush BCL."""
        ops, nclients, size = 128, 8, 64 * 1024
        spec = ares_like(nodes=1, procs_per_node=nclients)

        hcl = HCL(spec)
        hm = hcl.unordered_map("kv", partitions=1, nodes=[0],
                               initial_buckets=8 * ops * nclients)

        def hcl_body(rank):
            for i in range(ops):
                yield from hm.insert(rank, (rank, i), Blob(size))

        hcl.run_ranks(hcl_body)
        t_hcl = hcl.now

        bcl = BCL(spec)
        bm = bcl.hashmap("kv", capacity_per_partition=8 * ops * nclients,
                         entry_size=size, partitions=1)

        def bcl_body(rank):
            for i in range(ops):
                yield from bm.insert(rank, (rank, i), Blob(size))

        bcl.cluster.spawn_ranks(bcl_body)
        bcl.cluster.run()
        t_bcl = bcl.sim.now

        assert t_bcl / t_hcl > 2.0  # paper: 2x-20x for intra-node inserts


class TestMixedWorkload:
    def test_many_containers_coexist(self, hcl4):
        m = hcl4.unordered_map("m")
        om = hcl4.map("om")
        s = hcl4.unordered_set("s")
        q = hcl4.queue("q", home_node=1)
        pq = hcl4.priority_queue("pq", home_node=2, dims=4, base=16)

        def body(rank):
            yield from m.insert(rank, rank, rank * 2)
            yield from om.insert(rank, f"{rank:04d}", rank)
            yield from s.insert(rank, rank % 4)
            yield from q.push(rank, rank)
            yield from pq.push(rank, 100 - rank, rank)
            value, found = yield from m.find(rank, rank)
            assert found and value == rank * 2

        hcl4.run_ranks(body)
        assert m.total_entries() == 16
        assert om.total_entries() == 16
        assert s.total_entries() == 4
        assert q.total_entries() == 16
        assert pq.total_entries() == 16

        def drain(rank):
            entry, ok = yield from pq.pop(rank)
            assert ok and entry[0] == 85  # min priority = 100 - 15
            value, ok = yield from q.pop(rank)
            assert ok

        hcl4.run_ranks(drain, ranks=range(1))

    def test_find_heavy_workload(self, hcl4):
        m = hcl4.unordered_map("m", partitions=4)

        def seed_body(rank):
            for i in range(10):
                yield from m.insert(rank, (rank, i), i)

        hcl4.run_ranks(seed_body)
        hits = []

        def reader(rank):
            ok = 0
            for other in range(hcl4.cluster.spec.total_procs):
                for i in range(10):
                    _v, found = yield from m.find(rank, (other, i))
                    ok += found
            hits.append(ok)

        hcl4.run_ranks(reader, ranks=range(4))
        assert all(h == 160 for h in hits)

    def test_deterministic_sim_time(self, small_spec):
        """Identical seeds produce bit-identical simulated time."""

        def run():
            hcl = HCL(small_spec)
            m = hcl.unordered_map("m", partitions=2)

            def body(rank):
                for i in range(20):
                    yield from m.insert(rank, (rank, i), Blob(1024))

            hcl.run_ranks(body)
            return hcl.now

        assert run() == run()


class TestScalingTrend:
    def test_more_partitions_more_throughput(self):
        """Fig 6a: multi-partition DDS scale with partition count."""

        def run(nodes):
            spec = ares_like(nodes=nodes, procs_per_node=8)
            hcl = HCL(spec)
            m = hcl.unordered_map("m", partitions=nodes,
                                  initial_buckets=1 << 14)

            def body(rank):
                for i in range(24):
                    yield from m.insert(rank, (rank, i), Blob(4096))

            hcl.run_ranks(body)
            total_ops = spec.total_procs * 24
            return total_ops / hcl.now

        t2, t8 = run(2), run(8)
        assert t8 > t2 * 1.5  # clear scaling, not flat

    def test_queue_throughput_saturates(self):
        """Fig 6c: a single-partition queue plateaus as clients grow."""

        def run(procs):
            spec = ares_like(nodes=2, procs_per_node=procs)
            hcl = HCL(spec)
            q = hcl.queue("q", home_node=0)

            def body(rank):
                for i in range(16):
                    yield from q.push(rank, Blob(4096))

            hcl.run_ranks(body)
            return (spec.total_procs * 16) / hcl.now

        small, big = run(4), run(32)
        # Throughput grows sub-linearly: 8x clients must NOT give 8x ops/s.
        assert big < small * 8
