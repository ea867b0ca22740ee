"""Tests for the rendezvous (HRW) first-level hashing."""

from collections import Counter

import pytest

from repro.core.container import Partition
from repro.memory.segment import MemorySegment
from repro.structures.cuckoo import CuckooHash


@pytest.fixture
def container(hcl4):
    return hcl4.unordered_map("m", partitions=4)


def _extra_partition(hcl, container, uid):
    seg = MemorySegment(hcl.cluster.node(0), 65536, name=f"extra{uid}")
    return Partition(len(container.partitions), 0, CuckooHash(), seg, uid=uid)


class TestRendezvousHashing:
    def test_uniform_distribution(self, container):
        counts = Counter(
            container.partition_for(k).index for k in range(20_000)
        )
        assert len(counts) == 4
        for n in counts.values():
            assert 0.8 * 5000 < n < 1.2 * 5000

    def test_deterministic(self, container):
        for k in ("a", 17, (3, "b")):
            assert container.partition_for(k) is container.partition_for(k)

    def test_minimal_disruption_on_growth(self, hcl4, container):
        before = {k: container.partition_for(k).uid for k in range(5000)}
        container.partitions.append(_extra_partition(hcl4, container, uid=4))
        container._route_cache.clear()  # as add_partition does
        after = {k: container.partition_for(k).uid for k in range(5000)}
        moved = sum(1 for k in before if before[k] != after[k])
        # Expected 1/5 move; modulo hashing would move ~3/4.
        assert 0.12 * 5000 < moved < 0.30 * 5000
        # Every moved key lands on the NEW partition, nowhere else.
        for k in before:
            if before[k] != after[k]:
                assert after[k] == 4

    def test_removal_only_scatters_victims_keys(self, hcl4, container):
        before = {k: container.partition_for(k).uid for k in range(5000)}
        victim_uid = container.partitions[2].uid
        del container.partitions[2]
        container._route_cache.clear()  # as remove_partition does
        after = {k: container.partition_for(k).uid for k in range(5000)}
        for k in before:
            if before[k] == victim_uid:
                assert after[k] != victim_uid
            else:
                assert after[k] == before[k]  # survivors keep their keys

    def test_uid_stability_after_remove(self, hcl4):
        m = hcl4.unordered_map("m", partitions=3)

        def write(rank):
            for i in range(10):
                yield from m.insert(rank, (rank, i), i)

        hcl4.run_ranks(write)

        def shrink(rank):
            yield from m.remove_partition(rank, 1)

        proc = hcl4.cluster.spawn(shrink(0))
        hcl4.cluster.run()
        proc.result
        # Surviving partitions keep their ORIGINAL uids (indices compact).
        assert [p.index for p in m.partitions] == [0, 1]
        assert [p.uid for p in m.partitions] == [0, 2]
        # All data still reachable through the new layout.

        def readback(rank):
            for r in range(hcl4.cluster.spec.total_procs):
                for i in range(10):
                    _v, found = yield from m.find(rank, (r, i))
                    assert found

        proc = hcl4.cluster.spawn(readback(0))
        hcl4.cluster.run()
        proc.result

    def test_grow_then_shrink_roundtrip(self, hcl4):
        m = hcl4.unordered_map("m", partitions=2)

        def write(rank):
            for i in range(12):
                yield from m.insert(rank, (rank, i), i * 5)

        hcl4.run_ranks(write)
        entries = m.total_entries()

        def churn(rank):
            yield from m.add_partition(rank, node_id=2)
            yield from m.add_partition(rank, node_id=3)
            yield from m.remove_partition(rank, 2)

        proc = hcl4.cluster.spawn(churn(0))
        hcl4.cluster.run()
        proc.result
        assert m.total_entries() == entries
        assert len(m.partitions) == 3

        def readback(rank):
            for r in range(hcl4.cluster.spec.total_procs):
                for i in range(12):
                    value, found = yield from m.find(rank, (r, i))
                    assert found and value == i * 5

        proc = hcl4.cluster.spawn(readback(0))
        hcl4.cluster.run()
        proc.result

    def test_constant_hash_collapses_to_one_partition(self, hcl4):
        m = hcl4.unordered_map("m", partitions=4, hash_fn=lambda k: 7)
        assert len({m.partition_for(k).index for k in range(100)}) == 1

    def test_score_is_64bit_mixed(self):
        from repro.core.hash_container import _HashContainerBase

        scores = {
            _HashContainerBase._hrw_score(h, uid)
            for h in range(100) for uid in range(4)
        }
        assert len(scores) == 400  # no collisions in a tiny sample
