"""Additional property-based tests: DataBox, trees."""

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
