"""Additional property-based tests: DataBox, trees, segments."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serialization import DataBox
from repro.structures import RedBlackTree

simple_values = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=30)
    | st.binary(max_size=30)
)


class TestDataBoxProperties:
    @given(simple_values)
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, value):
        assert DataBox.decode(DataBox(value).encode()).value == value

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    @settings(max_examples=60, deadline=None)
    def test_small_ints_are_byte_copyable(self, value):
        box = DataBox(value)
        assert box.byte_copyable
        assert len(box.encode()) == 9  # tag + 8 bytes

    @given(st.lists(simple_values, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_wire_size_positive_and_stable(self, values):
        box = DataBox(values)
        first = box.wire_size
        assert first > 0
        encoded = box.encode()
        assert box.wire_size == len(encoded)


class TestRBTreeRangeProperties:
    @given(st.lists(st.integers(0, 500), max_size=80),
           st.integers(0, 500), st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_range_matches_filter(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = RedBlackTree()
        for k in keys:
            tree.insert(k, k)
        got = [k for k, _v in tree.range_items(lo, hi)]
        expected = sorted(k for k in set(keys) if lo <= k < hi)
        assert got == expected

    @given(st.lists(st.integers(), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_min_max_consistent(self, keys):
        tree = RedBlackTree()
        for k in keys:
            tree.insert(k, None)
        if keys:
            assert tree.min_key() == min(set(keys))
            assert tree.max_key() == max(set(keys))
        else:
            assert tree.min_key() is None and tree.max_key() is None


class TestSegmentGrowthProperties:
    @given(st.lists(st.integers(16, 512), min_size=1, max_size=20),
           st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_grow_preserves_allocations(self, sizes, factor):
        from repro.config import ares_like
        from repro.fabric import Cluster
        from repro.memory import MemorySegment
        from repro.memory.allocator import AllocationError

        cluster = Cluster(ares_like(nodes=1, procs_per_node=1))
        seg = MemorySegment(cluster.node(0), 8192)
        offsets = []
        for s in sizes:
            try:
                off = seg.alloc(s)
            except AllocationError:
                break
            seg.put(off, ("val", s))
            offsets.append((off, s))
        seg.grow(8192 * factor)
        seg.allocator.check_invariants()
        assert seg.size == 8192 * factor
        for off, s in offsets:
            assert seg.get(off) == ("val", s)
