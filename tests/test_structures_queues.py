"""Tests for the optimistic FIFO queue and the MDList priority queue."""

import heapq
import random

import pytest

from repro.structures import MDListPriorityQueue, OptimisticQueue
from repro.structures.lfqueue import QueueEmpty
from repro.structures.mdlist import PriorityQueueEmpty


class TestOptimisticQueue:
    def test_fifo_order(self):
        q = OptimisticQueue()
        for i in range(50):
            q.push(i)
        assert [q.pop()[0] for _ in range(50)] == list(range(50))

    def test_empty_pop_raises(self):
        q = OptimisticQueue()
        with pytest.raises(QueueEmpty):
            q.pop()
        assert q.empty

    def test_interleaved_push_pop(self):
        q = OptimisticQueue()
        q.push("a")
        q.push("b")
        assert q.pop()[0] == "a"
        q.push("c")
        assert q.pop()[0] == "b"
        assert q.pop()[0] == "c"
        assert len(q) == 0

    def test_push_stats(self):
        q = OptimisticQueue()
        stats = q.push(1)
        assert stats.cas_ops == 1  # the tail CAS
        assert stats.writes == 1

    def test_fix_list_repairs_deferred_prev(self):
        """The Ladan-Mozes/Shavit repair pass (Section III-D3-A)."""
        q = OptimisticQueue()
        q.push(1, defer_prev=True)
        q.push(2, defer_prev=True)
        q.push(3, defer_prev=True)
        value, stats = q.pop()
        assert value == 1
        assert q.fixups_total == 1
        assert stats.relocations > 0  # fix-list pointer repairs
        assert q.pop()[0] == 2 and q.pop()[0] == 3

    def test_vector_ops(self):
        q = OptimisticQueue()
        stats = q.push_many([1, 2, 3, 4])
        assert stats.writes == 4
        values, _ = q.pop_many(3)
        assert values == [1, 2, 3]
        values, _ = q.pop_many(10)  # short pop
        assert values == [4]

    def test_snapshot_preserves_order(self):
        q = OptimisticQueue()
        for i in range(5):
            q.push(i)
        q.pop()
        assert list(q.snapshot()) == [1, 2, 3, 4]
        q.check_invariants()

    def test_drain_and_reuse(self):
        q = OptimisticQueue()
        for round_ in range(3):
            for i in range(10):
                q.push((round_, i))
            out = [q.pop()[0] for _ in range(10)]
            assert out == [(round_, i) for i in range(10)]
            assert q.empty


class TestMDList:
    def test_min_order(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        for k in (100, 5, 50, 1, 99):
            pq.push(k, str(k))
        out = [pq.pop_min()[0] for _ in range(5)]
        assert out == [1, 5, 50, 99, 100]

    def test_empty_raises(self):
        pq = MDListPriorityQueue()
        with pytest.raises(PriorityQueueEmpty):
            pq.pop_min()
        with pytest.raises(PriorityQueueEmpty):
            pq.peek_min()

    def test_duplicates_fifo_within_priority(self):
        """Arrival-time conflict resolution (Section III-D3-B)."""
        pq = MDListPriorityQueue(dims=4, base=8)
        pq.push(7, "first")
        pq.push(7, "second")
        pq.push(7, "third")
        assert pq.pop_min() [:2] == (7, "first")
        assert pq.pop_min()[:2] == (7, "second")
        assert pq.pop_min()[:2] == (7, "third")

    def test_key_bounds_checked(self):
        pq = MDListPriorityQueue(dims=2, base=4)  # keys < 16
        pq.push(15, None)
        with pytest.raises(ValueError):
            pq.push(16, None)
        with pytest.raises(ValueError):
            pq.push(-1, None)
        # a bad key mid-batch: the entries before it stay pushed and counted
        with pytest.raises(ValueError):
            pq.push_many([(3, "a"), (16, "b"), (4, "c")])
        assert len(pq) == 2
        pq.check_invariants()
        assert pq.pop_many(5)[0] == [(3, "a"), (15, None)]

    def test_coordinate_mapping(self):
        pq = MDListPriorityQueue(dims=3, base=4)
        assert pq.coordinate(0) == (0, 0, 0)
        assert pq.coordinate(63) == (3, 3, 3)
        assert pq.coordinate(17) == (1, 0, 1)

    def test_key_zero_distinct_from_sentinel(self):
        pq = MDListPriorityQueue(dims=2, base=4)
        pq.push(0, "zero")
        assert pq.pop_min()[:2] == (0, "zero")
        assert len(pq) == 0

    def test_purge_compacts_marked_nodes(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        n = pq.PURGE_THRESHOLD * 2
        for k in range(n):
            pq.push(k, k)
        for _ in range(n):
            pq.pop_min()
        assert pq.purges_total >= 1
        assert len(pq) == 0
        pq.check_invariants()

    def test_peek_does_not_remove(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        pq.push(3, "x")
        assert pq.peek_min() == (3, "x")
        assert len(pq) == 1

    def test_items_sorted(self):
        pq = MDListPriorityQueue(dims=4, base=8)
        keys = random.Random(3).sample(range(4096), 200)
        for k in keys:
            pq.push(k, None)
        assert [k for k, _v in pq.items()] == sorted(keys)

    def test_reinsert_after_mark_revives_node(self):
        pq = MDListPriorityQueue(dims=2, base=8)
        pq.push(5, "a")
        pq.pop_min()
        pq.push(5, "b")
        assert pq.pop_min()[:2] == (5, "b")

    @pytest.mark.parametrize("dims,base", [(1, 64), (2, 8), (6, 4), (8, 16)])
    def test_config_sweep_against_heap(self, dims, base):
        limit = base ** dims
        pq = MDListPriorityQueue(dims=dims, base=base)
        ref = []
        rng = random.Random(dims * 100 + base)
        for i in range(600):
            if ref and rng.random() < 0.4:
                assert pq.pop_min()[:2] == heapq.heappop(ref)
            else:
                k = rng.randrange(min(limit, 1 << 16))
                heapq.heappush(ref, (k, i))
                pq.push(k, i)
        while ref:
            assert pq.pop_min()[:2] == heapq.heappop(ref)
        pq.check_invariants()

    def test_push_stats_bounded_by_structure(self):
        """Insert cost is O(D + base) hops, not O(N) — the log-like bound."""
        pq = MDListPriorityQueue(dims=8, base=16)
        rng = random.Random(5)
        worst = 0
        for _ in range(2000):
            stats = pq.push(rng.randrange(1 << 32), None)  # key_limit is 16^8
            worst = max(worst, stats.local_ops)
        assert worst <= 8 * 16 + 8
