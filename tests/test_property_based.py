"""Property-based tests (hypothesis) on core invariants.

Each property pins an invariant the paper's machinery depends on:
codec round-trips, structure/reference equivalence,
FIFO and priority ordering, persistence recoverability.
"""

import heapq

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.memory import PersistentLog
from repro.serialization.msgpack_like import pack, unpack
from repro.structures import (
    CuckooHash,
    MDListPriorityQueue,
    OptimisticQueue,
    RedBlackTree,
)

# -- strategies ----------------------------------------------------------------

json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**64 - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=40)
    | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)

key_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "find", "remove"]),
        st.integers(min_value=0, max_value=200),
    ),
    max_size=300,
)


class TestMsgpackProperties:
    @given(json_like)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, value):
        assert unpack(pack(value)) == value

    @given(st.integers())
    @settings(max_examples=100, deadline=None)
    def test_any_integer_roundtrips(self, value):
        assert unpack(pack(value)) == value

    @given(st.lists(st.integers(0, 255), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_deterministic_encoding(self, values):
        assert pack(values) == pack(list(values))


class TestCuckooProperties:
    @given(key_ops)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_equivalent_to_dict(self, ops):
        c = CuckooHash(initial_buckets=16)
        ref = {}
        for kind, key in ops:
            if kind == "insert":
                new, _ = c.insert(key, key * 7)
                assert new == (key not in ref)
                ref[key] = key * 7
            elif kind == "find":
                value, found, _ = c.find(key)
                assert found == (key in ref)
                if found:
                    assert value == ref[key]
            else:
                ok, _ = c.remove(key)
                assert ok == (key in ref)
                ref.pop(key, None)
        assert dict(c.items()) == ref
        c.check_invariants()


class TestRBTreeProperties:
    @given(key_ops)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_equivalent_to_dict_sorted(self, ops):
        t = RedBlackTree()
        ref = {}
        for kind, key in ops:
            if kind == "insert":
                t.insert(key, str(key))
                ref[key] = str(key)
            elif kind == "find":
                assert t.find(key)[1] == (key in ref)
            else:
                assert t.remove(key)[0] == (key in ref)
                ref.pop(key, None)
        assert list(t.items()) == sorted(ref.items())
        t.check_invariants()


class TestQueueProperties:
    @given(st.lists(st.integers(), max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_fifo_order_preserved(self, values):
        q = OptimisticQueue()
        for v in values:
            q.push(v)
        out = [q.pop()[0] for _ in range(len(values))]
        assert out == values
        assert q.empty

    @given(st.lists(st.booleans(), min_size=1, max_size=100),
           st.lists(st.integers(), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_matches_list(self, pops, pushes):
        from collections import deque

        q = OptimisticQueue()
        ref = deque()
        pi = iter(pushes)
        for do_pop in pops:
            if do_pop and ref:
                value, _ = q.pop()
                assert value == ref.popleft()
            else:
                v = next(pi, None)
                if v is None:
                    break
                q.push(v)
                ref.append(v)
        assert list(q.snapshot()) == list(ref)


class TestMDListProperties:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 4095)),
                    max_size=200))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_equivalent_to_heap(self, ops):
        pq = MDListPriorityQueue(dims=4, base=8)
        ref = []
        counter = 0
        for do_pop, key in ops:
            if do_pop and ref:
                assert pq.pop_min()[:2] == heapq.heappop(ref)
            else:
                heapq.heappush(ref, (key, counter))
                pq.push(key, counter)
                counter += 1
        while ref:
            assert pq.pop_min()[:2] == heapq.heappop(ref)
        pq.check_invariants()

    @given(st.lists(st.integers(0, 4095), min_size=1, max_size=150))
    @settings(max_examples=50, deadline=None)
    def test_items_always_sorted(self, keys):
        pq = MDListPriorityQueue(dims=4, base=8)
        for k in keys:
            pq.push(k, None)
        assert [k for k, _v in pq.items()] == sorted(keys)


    @staticmethod
    def _shape(pq):
        return [(n.key, n.marked, [c and c.key for c in n.children])
                for n in pq._preorder()]

    @given(st.lists(st.integers(0, 4095), min_size=1, max_size=120,
                    unique=True),
           st.randoms(use_true_random=False), st.data())
    @settings(max_examples=60, deadline=None)
    def test_shape_is_a_function_of_the_key_set(self, keys, rnd, data):
        """Shuffled pushes, sorted pushes, and push-all -> pop-k -> purge
        all build one shape — the canonical shape the purge preserves."""
        k = data.draw(st.integers(1, len(keys)))
        live = sorted(keys)[k:]

        def pushed(order):
            pq = MDListPriorityQueue(dims=4, base=8)
            for key in order:
                pq.push(key, key)
            return pq

        shuffled = list(live)
        rnd.shuffle(shuffled)
        drained = pushed(keys)
        drained.PURGE_THRESHOLD = k  # the k-th pop purges
        for _ in range(k):
            drained.pop_min()
        assert drained.purges_total == 1
        queues = (pushed(shuffled), pushed(live), drained)
        for pq in queues:
            pq.check_invariants()
        assert self._shape(queues[0]) == self._shape(queues[1])
        assert self._shape(queues[0]) == self._shape(queues[2])


class TestPersistentLogProperties:
    # (an empty payload is rejected: its header is what a tear leaves)
    @given(st.lists(st.binary(min_size=1, max_size=200), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_all_records_recoverable(self, payloads):
        import os
        import tempfile

        with tempfile.TemporaryDirectory() as tmpdir:
            path = os.path.join(tmpdir, "x.hcl")
            with PersistentLog(path) as log:
                for p in payloads:
                    log.append(p)
            with PersistentLog(path) as log:
                assert [r.payload for r in log.records()] == payloads
