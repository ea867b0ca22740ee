"""Tests for MemorySegment: a registered region plus optional persistence."""

import pytest

from repro.fabric.node import OutOfMemoryError
from repro.memory import MemorySegment


class TestMemorySegment:
    def test_registers_region_and_charges_memory(self, cluster):
        node = cluster.node(0)
        before = node.memory_used.value
        seg = MemorySegment(node, 4096, name="s")
        assert node.memory_used.value == before + 4096
        assert node.nic.region("s") is seg.region

    def test_grow_in_place(self, cluster):
        node = cluster.node(0)
        seg = MemorySegment(node, 4096, name="s")
        before = node.memory_used.value
        seg.grow(8192)
        assert seg.size == 8192
        assert node.nic.region("s") is seg.region
        assert node.memory_used.value == before + (8192 - 4096)

    def test_grow_out_of_memory_leaves_segment_unchanged(self, cluster):
        node = cluster.node(0)
        seg = MemorySegment(node, 4096, name="s")
        before = node.memory_used.value
        with pytest.raises(OutOfMemoryError):
            seg.grow(node.memory_capacity + 1)
        assert seg.size == 4096
        assert node.memory_used.value == before

    def test_grow_requires_larger(self, cluster):
        seg = MemorySegment(cluster.node(0), 4096, name="s")
        with pytest.raises(ValueError):
            seg.grow(4096)

    def test_persistence_wiring(self, cluster, tmp_path):
        path = str(tmp_path / "seg.hcl")
        seg = MemorySegment(cluster.node(0), 4096, name="s", backing_path=path)
        seg.persist(b"record")
        seg.close()
        from repro.memory import PersistentLog

        with PersistentLog(path) as log:
            assert [r.payload for r in log.records()] == [b"record"]

    def test_close_frees_node_memory(self, cluster):
        node = cluster.node(0)
        before = node.memory_used.value
        seg = MemorySegment(node, 4096, name="s")
        seg.close()
        assert node.memory_used.value == before
