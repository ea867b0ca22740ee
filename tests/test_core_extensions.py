"""Tests for the extension features: the barrier, range queries, dynamic
partitions, concurrency control, and failure handling with replica reads."""

import pytest

from repro.core import HCL
from repro.fabric.faults import FaultPlan


class TestCollectives:
    """``HCL.barrier`` is the one collective the runtime keeps."""

    def test_barrier_synchronizes(self, hcl):
        arrivals = []

        def body(rank):
            yield hcl.sim.timeout(rank * 1e-6)
            yield from hcl.barrier(rank)
            arrivals.append(hcl.now)

        hcl.run_ranks(body)
        assert len(set(arrivals)) == 1  # everyone released together

    def test_barrier_reusable_across_rounds(self, hcl):
        rounds = {}

        def body(rank):
            yield hcl.sim.timeout(rank * 1e-6)
            yield from hcl.barrier(rank)
            first = hcl.now
            yield hcl.sim.timeout((7 - rank) * 1e-6)
            yield from hcl.barrier(rank)
            rounds[rank] = (first, hcl.now)

        hcl.run_ranks(body)
        assert len(rounds) == 8
        assert len(set(rounds.values())) == 1  # both rounds release together
        first, second = rounds[0]
        assert second >= first + 7e-6  # round two waited for the last rank


class TestRangeQueries:
    @pytest.fixture
    def filled(self, hcl):
        om = hcl.map("om", partitions=2)

        def body(rank):
            for i in range(10):
                yield from om.insert(rank, rank * 100 + i, f"v{rank}.{i}")

        hcl.run_ranks(body)
        return om

    def test_range_find_sorted_and_bounded(self, hcl, filled, drive):
        def body():
            return (yield from filled.range_find(0, 100, 302))

        items = drive(hcl, body())
        keys = [k for k, _v in items]
        assert keys == sorted(keys)
        assert all(100 <= k < 302 for k in keys)
        assert len(keys) == 22  # ranks 1,2 fully + rank 3 keys 300,301

    def test_range_find_limit(self, hcl, filled, drive):
        def body():
            return (yield from filled.range_find(0, 0, 10_000, limit=5))

        items = drive(hcl, body())
        assert [k for k, _v in items] == [0, 1, 2, 3, 4]

    def test_min_max_keys(self, hcl, filled, drive):
        def body():
            mn = yield from filled.min_key(0)
            mx = yield from filled.max_key(0)
            return mn, mx

        assert drive(hcl, body()) == (0, 709)

    def test_empty_container(self, hcl, drive):
        om = hcl.map("empty", partitions=2)

        def body():
            items = yield from om.range_find(0, 0, 100)
            mn = yield from om.min_key(0)
            return items, mn

        assert drive(hcl, body()) == ([], None)

    def test_custom_comparator_ordering(self, hcl, drive):
        om = hcl.map("rev", partitions=1, less=lambda a, b: a > b)

        def body():
            for k in (1, 5, 3):
                yield from om.insert(0, k, k)
            return (yield from om.range_find(0, 5, 0))  # reversed bounds

        items = drive(hcl, body())
        # Under the reversed comparator [5, 0) means 5 >= k > 0, descending.
        assert [k for k, _v in items] == [5, 3, 1]


class TestDynamicPartitions:
    def test_add_partition_migrates_and_preserves(self, hcl4):
        m = hcl4.unordered_map("m", partitions=2)

        def write(rank):
            for i in range(8):
                yield from m.insert(rank, (rank, i), i)

        hcl4.run_ranks(write)
        entries = m.total_entries()

        def grow(rank):
            return (yield from m.add_partition(rank, node_id=3))

        proc = hcl4.cluster.spawn(grow(0))
        hcl4.cluster.run()
        moved = proc.result
        assert len(m.partitions) == 3
        assert m.total_entries() == entries
        assert moved > 0  # some keys rehash to the new partition
        assert len(m.partitions[2].structure) > 0

        def readback(rank):
            for r in range(hcl4.cluster.spec.total_procs):
                for i in range(8):
                    value, found = yield from m.find(rank, (r, i))
                    assert found and value == i

        proc = hcl4.cluster.spawn(readback(1))
        hcl4.cluster.run()
        proc.result

    def test_remove_partition_rehomes_entries(self, hcl4):
        m = hcl4.unordered_map("m", partitions=3)

        def write(rank):
            for i in range(6):
                yield from m.insert(rank, (rank, i), i)

        hcl4.run_ranks(write)
        entries = m.total_entries()

        def shrink(rank):
            return (yield from m.remove_partition(rank, 1))

        proc = hcl4.cluster.spawn(shrink(0))
        hcl4.cluster.run()
        proc.result
        assert len(m.partitions) == 2
        assert m.total_entries() == entries
        assert [p.index for p in m.partitions] == [0, 1]

    def test_remove_last_partition_rejected(self, hcl4):
        m = hcl4.unordered_map("m", partitions=1)
        with pytest.raises(ValueError):
            next(m.remove_partition(0, 0))

    def test_set_add_partition(self, hcl4):
        s = hcl4.unordered_set("s", partitions=2)

        def write(rank):
            yield from s.insert(rank, rank)

        hcl4.run_ranks(write)

        def grow(rank):
            yield from s.add_partition(rank, node_id=0)

        proc = hcl4.cluster.spawn(grow(0))
        hcl4.cluster.run()
        proc.result
        assert s.total_entries() == hcl4.cluster.spec.total_procs


class TestConcurrencyControl:
    def test_invalid_level_rejected(self, hcl):
        with pytest.raises(ValueError):
            hcl.unordered_map("m", concurrency="optimistic")

    def test_mutex_mode_correct(self, hcl):
        m = hcl.unordered_map("m", concurrency="mutex")

        def body(rank):
            yield from m.upsert(rank, "ctr", 1)

        hcl.run_ranks(body)

        def read(rank):
            return (yield from m.find(rank, "ctr"))

        proc = hcl.cluster.spawn(read(0))
        hcl.cluster.run()
        assert proc.result == (8, True)

    def test_mutex_slower_under_contention(self, small_spec):
        def run(concurrency):
            hcl = HCL(small_spec)
            m = hcl.unordered_map("m", partitions=1, nodes=[1],
                                  concurrency=concurrency,
                                  initial_buckets=4096)

            def body(rank):
                futures = [m.insert_async(rank, (rank, i), i)
                           for i in range(32)]
                for fut in futures:
                    yield fut.wait()

            hcl.run_ranks(body)
            return hcl.now

        assert run("mutex") > run("lockfree")

    def test_mutex_run_is_pinned(self, small_spec):
        """A contended ``mutex`` run, pinned exactly: ranks on both nodes
        (local and remote callers) insert, upsert and find on one
        partition, then pipeline a burst of inserts — 103 of the 145
        lock grants queue.  Clock and event count were recorded before
        the partition lock became a capacity-1 ``Resource``; any change to
        when a grant lands moves them."""
        hcl = HCL(small_spec)
        m = hcl.unordered_map("m", partitions=1, nodes=[1],
                              concurrency="mutex", initial_buckets=64)
        found = []

        def body(rank):
            for i in range(4):
                yield from m.insert(rank, (rank, i), i)
                yield from m.upsert(rank, "hot", 1)
                found.append((yield from m.find(rank, (rank, i))))
            futures = [m.insert_async(rank, (rank, "a", i), i)
                       for i in range(6)]
            for fut in futures:
                yield fut.wait()

        hcl.run_ranks(body)
        assert repr(hcl.now) == "0.0004594569144452763"
        assert hcl.sim.events_processed == 2624
        assert sorted(found) == sorted([(i, True) for i in range(4)] * 8)

        def read(rank):
            return (yield from m.find(rank, "hot"))

        proc = hcl.cluster.spawn(read(0))
        hcl.cluster.run()
        assert proc.result == (32, True)


def _crash(runtime, node_id):
    """Crash ``node_id`` now through a fault-free plan's injector."""
    injector = runtime.cluster.install_faults(FaultPlan())
    injector.crash(node_id)
    return injector


class TestFailureHandling:
    def test_rpc_to_dead_node_raises(self, hcl):
        m = hcl.unordered_map("m", partitions=1, nodes=[1])
        _crash(hcl, 1)

        def body(rank):
            yield from m.insert(rank, "k", 1)

        with pytest.raises(ConnectionError):
            hcl.run_ranks(body, ranks=range(1))  # rank 0 is on node 0

    def test_replica_serves_reads_after_primary_failure(self, hcl4):
        m = hcl4.unordered_map("m", partitions=4, replication=1)

        def write(rank):
            yield from m.insert(rank, f"k{rank}", rank)

        hcl4.run_ranks(write)
        hcl4.cluster.run()  # drain replication

        primary = m.partition_for("k5")
        _crash(hcl4, primary.node_id)
        reader = next(r for r in range(16)
                      if hcl4.cluster.node_of_rank(r) != primary.node_id)

        def read(rank):
            return (yield from m.find(rank, "k5"))

        proc = hcl4.cluster.spawn(read(reader))
        hcl4.cluster.run()
        assert tuple(proc.result) == (5, True)

    def test_writes_still_fail_without_primary(self, hcl4):
        m = hcl4.unordered_map("m", partitions=4, replication=1)
        part = m.partition_for("key")
        _crash(hcl4, part.node_id)
        writer = next(r for r in range(16)
                      if hcl4.cluster.node_of_rank(r) != part.node_id)

        def write(rank):
            yield from m.insert(rank, "key", 1)

        proc = hcl4.cluster.spawn(write(writer))
        hcl4.cluster.run()
        with pytest.raises(ConnectionError):
            proc.result

    def test_unreplicated_reads_fail(self, hcl4):
        m = hcl4.unordered_map("m", partitions=4, replication=0)
        part = m.partition_for("key")
        _crash(hcl4, part.node_id)
        reader = next(r for r in range(16)
                      if hcl4.cluster.node_of_rank(r) != part.node_id)

        def read(rank):
            yield from m.find(rank, "key")

        proc = hcl4.cluster.spawn(read(reader))
        hcl4.cluster.run()
        with pytest.raises(ConnectionError):
            proc.result

    def test_recovery_restores_service(self, hcl4):
        m = hcl4.unordered_map("m", partitions=4)
        part = m.partition_for("key")
        injector = _crash(hcl4, part.node_id)
        injector.restart(part.node_id)
        assert hcl4.cluster.node(part.node_id).alive
        writer = 0

        def write(rank):
            yield from m.insert(rank, "key", "v")
            return (yield from m.find(rank, "key"))

        proc = hcl4.cluster.spawn(write(writer))
        hcl4.cluster.run()
        assert tuple(proc.result) == ("v", True)
