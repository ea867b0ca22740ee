"""Tests for batched container ops and k-mer count filtering."""

import pytest

from repro.apps import synthesize_genome
from repro.apps.kmer import run_kmer_counting
from repro.config import ares_like


class TestBatchOps:
    def test_batch_mixed_ops(self, hcl, drive):
        m = hcl.unordered_map("m", partitions=2)

        def body():
            out = yield from m.batch(0, [
                ("insert", "a", 1),
                ("insert", "b", 2),
                ("upsert", "ctr", 10),
                ("find", "a"),
                ("erase", "b"),
                ("find", "b"),
            ])
            return out

        out = drive(hcl, body())
        assert out[0] is True and out[1] is True
        assert out[2] == 10
        assert tuple(out[3]) == (1, True)
        assert out[4] is True
        assert tuple(out[5]) == (None, False)

    def test_batch_preserves_order_across_partitions(self, hcl4):
        m = hcl4.unordered_map("m", partitions=4)

        def body(rank):
            keys = [f"key-{i}" for i in range(20)]
            yield from m.batch(rank, [("insert", k, i)
                                      for i, k in enumerate(keys)])
            finds = yield from m.batch(rank, [("find", k) for k in keys])
            assert [tuple(f) for f in finds] == [(i, True)
                                                 for i in range(20)]

        hcl4.run_ranks(body, ranks=range(1))

    def test_batch_fewer_invocations_than_ops(self, hcl):
        m = hcl.unordered_map("m", partitions=1, nodes=[1])
        client = hcl.client(0)

        def body():
            yield from m.batch(0, [("insert", f"k{i}", i)
                                   for i in range(16)])

        proc = hcl.cluster.spawn(body())
        hcl.cluster.run()
        proc.result
        assert client.invocations.value == 1  # 16 ops, one invocation

    def test_nested_batch_rejected(self, hcl):
        m = hcl.unordered_map("m", partitions=1, nodes=[1])

        def body():
            yield from m.batch(0, [("batch", "k", [])])

        proc = hcl.cluster.spawn(body())
        hcl.cluster.run()
        with pytest.raises(Exception, match="nested"):
            proc.result

    def test_unknown_subop_rejected(self, hcl):
        m = hcl.unordered_map("m", partitions=1, nodes=[1])

        def body():
            yield from m.batch(0, [("explode", "k")])

        proc = hcl.cluster.spawn(body())
        hcl.cluster.run()
        with pytest.raises(Exception, match="explode"):
            proc.result

    def test_batch_faster_than_sequential(self, small_spec):
        from repro.core import HCL

        def run(batched):
            hcl = HCL(small_spec)
            m = hcl.unordered_map("m", partitions=1, nodes=[1])

            def body(rank):
                ops = [("insert", (rank, i), i) for i in range(24)]
                if batched:
                    yield from m.batch(rank, ops)
                else:
                    for _op, key, value in ops:
                        yield from m.insert(rank, key, value)

            hcl.run_ranks(body, ranks=range(4))
            return hcl.now

        assert run(batched=True) < run(batched=False)


class TestKmerFiltering:
    def test_min_count_drops_error_kmers(self):
        spec = ares_like(nodes=2, procs_per_node=2)
        noisy = synthesize_genome(genome_length=400, num_reads=40,
                                  read_length=50, k=13, error_rate=0.03,
                                  seed=4)
        result = run_kmer_counting("hcl", spec, noisy, min_count=2)
        assert result.verified
        assert result.filtered_kmers > 0

    def test_min_count_one_keeps_everything(self):
        spec = ares_like(nodes=2, procs_per_node=2)
        clean = synthesize_genome(genome_length=300, num_reads=20,
                                  read_length=40, k=11, seed=5)
        result = run_kmer_counting("hcl", spec, clean, min_count=1)
        assert result.verified
        assert result.filtered_kmers == 0

    def test_bcl_filter_matches(self):
        spec = ares_like(nodes=2, procs_per_node=2)
        noisy = synthesize_genome(genome_length=300, num_reads=25,
                                  read_length=40, k=11, error_rate=0.02,
                                  seed=6)
        h = run_kmer_counting("hcl", spec, noisy, min_count=2)
        b = run_kmer_counting("bcl", spec, noisy, min_count=2)
        assert h.verified and b.verified
        assert h.distinct_kmers == b.distinct_kmers
