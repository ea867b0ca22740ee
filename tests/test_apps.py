"""Tests for the application kernels: ISx, genome, k-mer, contig."""

import numpy as np
import pytest

from repro.apps import (
    run_contig_generation,
    run_isx,
    run_kmer_counting,
    synthesize_genome,
)
from repro.apps.contig import BOUNDARY, ExtensionPair, _occurrences
from repro.apps.genome import exact_kmer_counts
from repro.apps.isx import MAX_KEY, _bucket_of, _buckets_of
from repro.config import ares_like


@pytest.fixture(scope="module")
def tiny_spec():
    return ares_like(nodes=2, procs_per_node=2, seed=1)


@pytest.fixture(scope="module")
def genome_data():
    return synthesize_genome(genome_length=400, num_reads=30,
                             read_length=50, k=13, seed=5)


class TestGenome:
    def test_shapes(self, genome_data):
        assert len(genome_data.genome) == 400
        assert genome_data.num_reads == 30
        assert all(len(r) == 50 for r in genome_data.reads)
        assert set(genome_data.genome) <= set("ACGT")

    def test_reads_are_genome_substrings(self, genome_data):
        assert all(r in genome_data.genome for r in genome_data.reads)

    def test_errors_break_substring_property(self):
        noisy = synthesize_genome(genome_length=400, num_reads=30,
                                  read_length=50, k=13, error_rate=0.2,
                                  seed=5)
        assert any(r not in noisy.genome for r in noisy.reads)

    def test_deterministic(self):
        a = synthesize_genome(seed=9, genome_length=200, num_reads=5,
                              read_length=40, k=11)
        b = synthesize_genome(seed=9, genome_length=200, num_reads=5,
                              read_length=40, k=11)
        assert a.genome == b.genome and a.reads == b.reads

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_genome(read_length=10, k=20)
        with pytest.raises(ValueError):
            synthesize_genome(genome_length=10, read_length=50)

    def test_exact_counts_reference(self, genome_data):
        counts = exact_kmer_counts(genome_data)
        assert sum(counts.values()) == 30 * (50 - 13 + 1)
        assert all(kmer in genome_data.genome for kmer in counts)


class TestIsx:
    def test_bucket_assignment_covers_range(self):
        assert _bucket_of(0, 8) == 0
        assert _bucket_of(MAX_KEY - 1, 8) == 7

    @pytest.mark.parametrize("nodes", [1, 3, 4, 5, 7])
    def test_vector_bucket_assignment_matches_scalar(self, nodes):
        """The rank body's one-call bucket assignment agrees with
        ``_bucket_of`` at both ends of the key range and on each side of
        every bucket boundary."""
        keys = {0, MAX_KEY - 1}
        for i in range(1, nodes):
            edge = i * MAX_KEY // nodes
            keys |= {edge - 1, edge, edge + 1}
        keys = sorted(keys)
        got = _buckets_of(np.array(keys, dtype=np.int64), nodes)
        assert got == [_bucket_of(k, nodes) for k in keys]
        assert all(type(b) is int for b in got)

    def test_hcl_sorts_and_verifies(self, tiny_spec):
        result = run_isx("hcl", tiny_spec, keys_per_rank=40)
        assert result.verified
        assert result.total_keys == 4 * 40
        assert result.time_seconds > 0

    def test_bcl_sorts_and_verifies(self, tiny_spec):
        result = run_isx("bcl", tiny_spec, keys_per_rank=40)
        assert result.verified

    def test_hcl_beats_bcl(self, tiny_spec):
        """Fig 7a's direction: HCL finishes first at every scale."""
        hcl = run_isx("hcl", tiny_spec, keys_per_rank=40)
        bcl = run_isx("bcl", tiny_spec, keys_per_rank=40)
        assert hcl.time_seconds < bcl.time_seconds

    def test_unknown_backend(self, tiny_spec):
        with pytest.raises(ValueError):
            run_isx("mpi", tiny_spec)


class TestKmer:
    def test_hcl_counts_exact(self, tiny_spec, genome_data):
        result = run_kmer_counting("hcl", tiny_spec, genome_data)
        assert result.verified
        assert result.total_kmers == 30 * (50 - 13 + 1)
        assert result.distinct_kmers > 0

    def test_bcl_counts_exact(self, tiny_spec, genome_data):
        result = run_kmer_counting("bcl", tiny_spec, genome_data)
        assert result.verified

    def test_hcl_beats_bcl(self, tiny_spec, genome_data):
        hcl = run_kmer_counting("hcl", tiny_spec, genome_data)
        bcl = run_kmer_counting("bcl", tiny_spec, genome_data)
        assert hcl.time_seconds < bcl.time_seconds


class TestExtensionPair:
    def test_merge(self):
        a = ExtensionPair({"A"}, {"C"})
        b = ExtensionPair({"G"}, {"C"})
        merged = a + b
        assert merged.lefts == {"A", "G"} and merged.rights == {"C"}

    def test_uu_detection(self):
        assert ExtensionPair({"A"}, {"T"}).is_uu
        assert not ExtensionPair({"A", "C"}, {"T"}).is_uu

    def test_occurrences_boundaries(self):
        data = synthesize_genome(genome_length=100, num_reads=1,
                                 read_length=30, k=10, seed=1)
        occ = list(_occurrences(data, data.reads[0]))
        assert occ[0][1] == BOUNDARY  # first k-mer has no left context
        assert occ[-1][2] == BOUNDARY  # last has no right context
        assert len(occ) == 30 - 10 + 1


class TestContig:
    def test_hcl_contigs_verify(self, tiny_spec, genome_data):
        result = run_contig_generation("hcl", tiny_spec, genome_data)
        assert result.verified
        assert all(c in genome_data.genome for c in result.contigs)
        assert all(len(c) >= genome_data.k for c in result.contigs)

    def test_backends_agree(self, tiny_spec, genome_data):
        hcl = run_contig_generation("hcl", tiny_spec, genome_data)
        bcl = run_contig_generation("bcl", tiny_spec, genome_data)
        assert bcl.verified
        assert hcl.contigs == bcl.contigs

    def test_contigs_longer_than_reads_exist(self, tiny_spec):
        """Traversal stitches overlapping reads into longer contigs."""
        data = synthesize_genome(genome_length=300, num_reads=80,
                                 read_length=40, k=13, seed=2)
        result = run_contig_generation("hcl", tiny_spec, data)
        assert result.verified
        assert max(len(c) for c in result.contigs) > 40
