"""Tests for HCL::unordered_map and HCL::unordered_set."""

import pytest

from repro.harness import Blob


class TestUnorderedMap:
    def test_insert_find_roundtrip(self, hcl, drive):
        m = hcl.unordered_map("m")

        def body():
            ok = yield from m.insert(0, "key", {"v": 1})
            assert ok
            value, found = yield from m.find(0, "key")
            return value, found

        assert drive(hcl, body()) == ({"v": 1}, True)

    def test_find_missing(self, hcl, drive):
        m = hcl.unordered_map("m")

        def body():
            return (yield from m.find(0, "ghost"))

        assert drive(hcl, body()) == (None, False)

    def test_erase(self, hcl, drive):
        m = hcl.unordered_map("m")

        def body():
            yield from m.insert(0, "k", 1)
            ok = yield from m.erase(0, "k")
            gone = yield from m.find(0, "k")
            missing = yield from m.erase(0, "k")
            return ok, gone, missing

        ok, gone, missing = drive(hcl, body())
        assert ok and gone == (None, False) and not missing

    def test_upsert_counts(self, hcl, drive):
        m = hcl.unordered_map("m")

        def body():
            a = yield from m.upsert(0, "ctr", 5)
            b = yield from m.upsert(0, "ctr", 3)
            return a, b

        assert drive(hcl, body()) == (5, 8)

    def test_all_ranks_see_same_data(self, hcl):
        """Global visibility: any rank reads any other rank's writes."""
        m = hcl.unordered_map("m")

        def writer(rank):
            yield from m.insert(rank, f"key-{rank}", rank * 10)

        hcl.run_ranks(writer)

        results = {}

        def reader(rank):
            value, found = yield from m.find(rank, f"key-{(rank + 3) % 8}")
            results[rank] = (value, found)

        hcl.run_ranks(reader)
        for rank, (value, found) in results.items():
            assert found and value == ((rank + 3) % 8) * 10

    def test_hybrid_access_counters(self, hcl):
        """Ops to co-located partitions bypass the RPC layer."""
        m = hcl.unordered_map("m", partitions=2)  # one partition per node

        def body(rank):
            for i in range(16):
                yield from m.insert(rank, (rank, i), i)

        hcl.run_ranks(body)
        assert m.local_hits.value > 0
        assert m.remote_calls.value > 0
        assert m.local_hits.value + m.remote_calls.value == 8 * 16

    def test_local_ops_do_not_touch_network(self, hcl):
        m = hcl.unordered_map("solo", partitions=1, nodes=[0])

        def body(rank):  # ranks 0..3 live on node 0 == partition node
            yield from m.insert(rank, rank, rank)

        before = hcl.cluster.total_packets()
        hcl.run_ranks(body, ranks=range(4))
        assert hcl.cluster.total_packets() == before
        assert m.remote_calls.value == 0

    def test_remote_op_is_one_invocation(self, hcl):
        """Table I: each op compiles to ONE remote invocation."""
        m = hcl.unordered_map("m", partitions=1, nodes=[1])
        client = hcl.client(0)

        def body():
            yield from m.insert(4 - 4, "k", "v")  # rank 0 -> node 0, remote

        hcl.cluster.spawn(body())
        hcl.cluster.run()
        assert client.invocations.value == 1

    def test_async_insert_find(self, hcl, drive):
        m = hcl.unordered_map("m")

        def body():
            futures = [m.insert_async(0, f"k{i}", i) for i in range(10)]
            for fut in futures:
                yield fut.wait()
            fut = m.find_async(0, "k7")
            yield fut.wait()
            return fut.result

        assert tuple(drive(hcl, body())) == (7, True)

    def test_custom_hash_fn_controls_partition(self, hcl):
        m = hcl.unordered_map("m", partitions=2, hash_fn=lambda k: 0)
        # All keys collapse to one partition.
        parts = {m.partition_for(k).index for k in range(50)}
        assert len(parts) == 1

    def test_explicit_resize(self, hcl, drive):
        m = hcl.unordered_map("m", partitions=2)
        target = m.partitions[0]
        before = target.structure.bucket_count

        def body():
            return (yield from m.resize(0, 0, before * 4))

        assert drive(hcl, body()) is True
        assert target.structure.bucket_count >= before * 4

    def test_resize_shrink_rejected_silently(self, hcl, drive):
        m = hcl.unordered_map("m", partitions=1)

        def body():
            return (yield from m.resize(0, 0, 2))

        assert drive(hcl, body()) is False

    def test_automatic_growth_expands_segment(self, hcl):
        m = hcl.unordered_map("m", partitions=1, nodes=[0],
                              initial_buckets=16)
        before = m.partitions[0].segment.size

        def body(rank):
            for i in range(200):
                yield from m.insert(rank, (rank, i), Blob(1024))

        hcl.run_ranks(body, ranks=range(2))
        assert m.partitions[0].structure.bucket_count > 16
        assert m.partitions[0].segment.size > before

    def test_duplicate_name_rejected(self, hcl):
        hcl.unordered_map("m")
        with pytest.raises(KeyError):
            hcl.unordered_map("m")

    def test_total_entries(self, hcl):
        m = hcl.unordered_map("m")

        def body(rank):
            yield from m.insert(rank, rank, rank)

        hcl.run_ranks(body)
        assert m.total_entries() == 8


class TestUnorderedSet:
    def test_membership(self, hcl, drive):
        s = hcl.unordered_set("s")

        def body():
            yield from s.insert(0, "member")
            yes = yield from s.find(0, "member")
            no = yield from s.find(0, "other")
            return yes, no

        assert drive(hcl, body()) == (True, False)

    def test_erase(self, hcl, drive):
        s = hcl.unordered_set("s")

        def body():
            yield from s.insert(0, 42)
            ok = yield from s.erase(0, 42)
            still = yield from s.find(0, 42)
            return ok, still

        assert drive(hcl, body()) == (True, False)

    def test_set_cheaper_than_map(self, small_spec):
        """Sets carry key-only buckets => lower serialization cost
        (the 7-14% gap of Section IV-C)."""
        from repro.core import HCL

        def run(kind):
            hcl = HCL(small_spec)
            if kind == "set":
                c = hcl.unordered_set("c", partitions=1, nodes=[1])

                def body(rank):
                    for i in range(64):
                        yield from c.insert(rank, (rank, i, "padpadpad"))
            else:
                c = hcl.unordered_map("c", partitions=1, nodes=[1])

                def body(rank):
                    for i in range(64):
                        yield from c.insert(rank, (rank, i, "padpadpad"),
                                            Blob(256))

            hcl.run_ranks(body, ranks=range(4))
            return hcl.now

        assert run("set") < run("map")

    def test_idempotent_insert(self, hcl, drive):
        s = hcl.unordered_set("s")

        def body():
            yield from s.insert(0, "x")
            yield from s.insert(0, "x")
            return s.total_entries()

        assert drive(hcl, body()) == 1

    def test_a_set_holds_no_value_to_upsert(self, hcl):
        """A set stores keys only, so it has no read-modify-write."""
        s = hcl.unordered_set("s")
        assert "upsert" not in s.OPERATIONS
        for name in ("upsert", "upsert_buffered", "async_rmw", "_do_upsert",
                     "_run_upsert"):
            assert not hasattr(s, name), name
