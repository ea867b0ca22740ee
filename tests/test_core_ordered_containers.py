"""Tests for HCL::map and HCL::set (ordered containers)."""

import pytest

from repro.core.ordered_container import keylen_partitioner, range_partitioner


class TestPartitioners:
    def test_range_partitioner_splits_evenly(self):
        pick = range_partitioner(0, 100)
        assert pick(0, 4) == 0
        assert pick(25, 4) == 1
        assert pick(99, 4) == 3

    def test_range_partitioner_clamps(self):
        pick = range_partitioner(0, 100)
        assert pick(-5, 4) == 0
        assert pick(150, 4) == 3

    def test_range_partitioner_validation(self):
        with pytest.raises(ValueError):
            range_partitioner(10, 10)

    def test_keylen_partitioner(self):
        assert keylen_partitioner("ab", 4) == 2
        assert keylen_partitioner("abcd", 4) == 0
        assert keylen_partitioner(7, 4) == 3  # numeric fallback


class TestOrderedMap:
    def test_insert_find_erase(self, hcl, drive):
        m = hcl.map("om")

        def body():
            yield from m.insert(0, "delta", 4)
            value, found = yield from m.find(0, "delta")
            ok = yield from m.erase(0, "delta")
            gone = yield from m.find(0, "delta")
            return value, found, ok, gone

        value, found, ok, gone = drive(hcl, body())
        assert (value, found, ok) == (4, True, True)
        assert gone == (None, False)

    def test_per_partition_order(self, hcl):
        m = hcl.map("om", partitions=2)

        def body(rank):
            for i in range(10):
                yield from m.insert(rank, f"{'k' * (rank % 3 + 1)}{i:02d}", i)

        hcl.run_ranks(body, ranks=range(4))
        for part in m.partitions:
            keys = [k for k, _v in part.structure.items()]
            assert keys == sorted(keys)

    def test_range_partitioner_gives_global_order(self, hcl, drive):
        m = hcl.map("om", partitions=2, partitioner=range_partitioner(0, 100))

        def body():
            for k in (90, 10, 50, 30, 70):
                yield from m.insert(0, k, str(k))

        drive(hcl, body())
        assert [k for part in m.partitions
                for k, _v in part.structure.items()] == [10, 30, 50, 70, 90]

    def test_custom_comparator(self, hcl, drive):
        m = hcl.map("om", partitions=1, less=lambda a, b: a > b)

        def body():
            for k in (1, 3, 2):
                yield from m.insert(0, k, k)

        drive(hcl, body())
        assert [k for k, _v in m.partitions[0].structure.items()] == [3, 2, 1]

    def test_bad_partitioner_rejected(self, hcl):
        m = hcl.map("om", partitions=2, partitioner=lambda k, n: 99)
        with pytest.raises(IndexError):
            m.partition_for("anything")

    def test_ordered_slower_than_unordered(self):
        """The Fig 6a gap (paper: 54%): O(log n) tree vs O(1) hash.

        Visible when the partitions are *saturated* — many clients per
        partition, ops outstanding — so server-side handler cost (where the
        log factor lives) bounds throughput, as in the paper's setup.
        """
        from repro.config import ares_like
        from repro.core import HCL

        spec = ares_like(nodes=2, procs_per_node=24, seed=7)

        def run(kind):
            hcl = HCL(spec)
            if kind == "ordered":
                c = hcl.map("c", partitions=2,
                            partitioner=lambda k, n: k % n)
            else:
                c = hcl.unordered_map("c", partitions=2,
                                      initial_buckets=16384)

            def body(rank):
                outstanding = []
                for i in range(100):
                    outstanding.append(c.insert_async(rank, rank * 1000 + i, i))
                    if len(outstanding) >= 8:
                        for fut in outstanding:
                            yield fut.wait()
                        outstanding = []
                for fut in outstanding:
                    yield fut.wait()

            hcl.run_ranks(body)
            return hcl.now

        ordered, unordered = run("ordered"), run("unordered")
        assert ordered > unordered * 1.1

    def test_explicit_resize_charges_nlogn(self, hcl, drive):
        m = hcl.map("om", partitions=1)

        def body():
            for i in range(64):
                yield from m.insert(0, i, i)
            return (yield from m.resize(0, 0, 1 << 20))

        assert drive(hcl, body()) is True
        assert m.partitions[0].segment.size >= 1 << 20


class TestOrderedSet:
    def test_membership(self, hcl, drive):
        s = hcl.set("os")

        def body():
            yield from s.insert(0, "k")
            yes = yield from s.find(0, "k")
            no = yield from s.find(0, "nope")
            ok = yield from s.erase(0, "k")
            return yes, no, ok

        assert drive(hcl, body()) == (True, False, True)

    def test_sorted_within_partition(self, hcl, drive):
        s = hcl.set("os", partitions=1)

        def body():
            for k in ("pear", "apple", "fig"):
                yield from s.insert(0, k)

        drive(hcl, body())
        keys = [k for k, _v in s.partitions[0].structure.items()]
        assert keys == ["apple", "fig", "pear"]
