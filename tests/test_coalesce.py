"""Transparent destination-coalescing buffers + locality-aware read cache.

Covers the aggregation subsystem end to end: buffered ops write-combine
into per-(node, partition) batches flushed as ONE invocation, sync points
(sync reads, keyed batches, barriers, explicit flush) preserve program
order, ``aggregation=0`` stays on the classic one-invocation-per-op path,
and the epoch-validated read cache can never serve a stale value.
"""

from __future__ import annotations

import pytest

from repro.apps.contig import make_pair
from repro.config import ares_like
from repro.core import HCL
from repro.rpc import RemoteError

from tests.conftest import run_rank0


def _total_invocations(h: HCL) -> int:
    return int(sum(c.invocations.value for c in h._clients.values()))


def _contents(m) -> dict:
    return {k: v for part in m.partitions for k, v in part.structure.items()}


def _remote_key(m, node_id: int, start: int = 0):
    """A key owned by a partition NOT on ``node_id``."""
    return next(
        k for k in range(start, start + 10_000)
        if m.partition_for(k).node_id != node_id
    )


class TestCoalescer:
    def _run_upserts(self, spec, aggregation):
        h = HCL(spec)
        m = h.unordered_map("t", partitions=2, aggregation=aggregation)

        def body(rank):
            for i in range(24):
                yield from m.upsert_buffered(rank, i % 7, 1)
            yield from m.flush(rank)

        h.run_ranks(body)
        return h, m

    def test_identical_results_fewer_invocations(self, small_spec):
        h_off, m_off = self._run_upserts(small_spec, aggregation=0)
        h_on, m_on = self._run_upserts(small_spec, aggregation=8)
        assert _contents(m_off) == _contents(m_on)
        assert _total_invocations(h_on) < _total_invocations(h_off)
        h_off.close()
        h_on.close()

    def test_flush_counters(self, small_spec):
        h, m = self._run_upserts(small_spec, aggregation=8)
        report = m.aggregation_report()["aggregation"]
        assert report["flushes"] > 0
        assert report["flushed_ops"] > 0
        assert report["ops_per_flush"] > 1.0
        assert report["pending_ops"] == 0
        h.close()

    def test_sync_read_drains_buffer(self, hcl):
        """Program order: a sync find sees the rank's earlier buffered op
        without an explicit flush."""
        m = hcl.unordered_map("t", partitions=2, aggregation=64)
        key = _remote_key(m, node_id=0)

        def body():
            yield from m.upsert_buffered(0, key, 7)
            assert m._coalescer.pending_total() == 1
            value, found = yield from m.find(0, key)
            assert (value, found) == (7, True)
            assert m._coalescer.pending_total() == 0

        run_rank0(hcl, body())

    def test_keyed_batch_drains_buffer(self, hcl):
        m = hcl.unordered_map("t", partitions=2, aggregation=64)
        key = _remote_key(m, node_id=0)

        def body():
            yield from m.upsert_buffered(0, key, 5)
            results = yield from m.batch(0, [("find", key)])
            assert results == [(5, True)]

        run_rank0(hcl, body())

    def test_barrier_flushes_all_containers(self, small_spec):
        h = HCL(small_spec)
        m = h.unordered_map("t", partitions=2, aggregation=512)
        total = small_spec.total_procs

        def body(rank):
            yield from m.upsert_buffered(rank, ("k", rank), rank)
            yield from h.barrier(rank)
            # After the barrier every rank's buffered insert is visible.
            value, found = yield from m.find(rank, ("k", (rank + 1) % total))
            assert found and value == (rank + 1) % total

        h.run_ranks(body)
        assert m._coalescer.pending_total() == 0
        h.close()

    def test_threshold_flush_by_op_count(self, hcl):
        m = hcl.unordered_map("t", partitions=2, aggregation=4)
        key = _remote_key(m, node_id=0)

        def body():
            part = m.partition_for(key)
            for i in range(8):
                yield from m.upsert_buffered(0, key, 1)
            # Two threshold flushes were spawned; drain them.
            yield from m.flush(0)
            value, found, _stats = part.structure.find(key)
            assert found and value == 8

        run_rank0(hcl, body())
        report = m.aggregation_report()["aggregation"]
        assert report["threshold_flushes"] >= 2

    def test_local_ops_bypass_buffers(self, hcl):
        """Same-node ops keep the direct shared-memory path: nothing to
        buffer, nothing to flush."""
        m = hcl.unordered_map("t", partitions=2, aggregation=8)
        key = next(
            k for k in range(1000) if m.partition_for(k).node_id == 0
        )

        def body():
            yield from m.upsert_buffered(0, key, 3)
            assert m._coalescer.pending_total() == 0
            value, found, _stats = m.partition_for(key).structure.find(key)
            assert found and value == 3

        run_rank0(hcl, body())

    def test_aggregation_off_is_plain_execute(self, hcl):
        m = hcl.unordered_map("t", partitions=2)
        assert m._coalescer is None
        key = _remote_key(m, node_id=0)

        def body():
            yield from m.upsert_buffered(0, key, 1)  # applies immediately
            value, found, _stats = m.partition_for(key).structure.find(key)
            assert found and value == 1
            yield from m.flush(0)  # no-op

        run_rank0(hcl, body())

    def test_negative_aggregation_rejected(self, hcl):
        with pytest.raises(ValueError, match="aggregation"):
            hcl.unordered_map("t", aggregation=-1)

    def test_close_raises_on_unflushed_ops(self, small_spec):
        h = HCL(small_spec)
        m = h.unordered_map("t", partitions=2, aggregation=64)
        key = _remote_key(m, node_id=0)

        def body():
            yield from m.upsert_buffered(0, key, 1)

        run_rank0(h, body())
        with pytest.raises(RuntimeError, match="unflushed"):
            m.close()
        run_rank0(h, m.flush(0))
        m.close()
        h.close()

    def test_priority_queue_push_buffered(self, hcl):
        q = hcl.priority_queue("pq", home_node=1, dims=9, base=8,
                               aggregation=8)

        def body():
            for p in (30, 10, 20):
                yield from q.push_buffered(0, p, str(p))
            yield from q.flush(0)
            entries = yield from q.pop_many(4, 8)  # rank 4 is on node 1
            assert [p for p, _v in entries] == [10, 20, 30]

        run_rank0(hcl, body())


class TestSyncPointDrain:
    """A synchronous op drains its partition only when the caller's node
    is ``busy`` there; these pin what that gate must still catch (the
    uncached find is ``TestCoalescer.test_sync_read_drains_buffer``)."""

    def test_cached_sync_find_sees_buffered_upserts(self, hcl):
        m = hcl.unordered_map("t", partitions=2, aggregation=64,
                              read_cache=True)
        key = _remote_key(m, node_id=0)
        coal = m._coalescer

        def body():
            for _ in range(3):
                yield from m.upsert_buffered(0, key, 2)
            assert coal.busy(0, m.partition_for(key).index)
            found = yield from m.find(0, key)
            return found, coal.pending_total()

        assert run_rank0(hcl, body()) == ((6, True), 0)

    def test_failed_flush_raises_once_at_next_sync_op(self, hcl):
        m = hcl.unordered_map("t", partitions=2, aggregation=1)
        key = _remote_key(m, node_id=0)
        other = _remote_key(m, node_id=0, start=key + 1)
        part = m.partition_for(key)
        assert m.partition_for(other) is part
        coal = m._coalescer

        def body():
            yield from m.upsert(0, key, 1)
            # int + ExtensionPair fails at the target: the one-op buffer
            # flushes at once and its batch comes back failed.
            yield from m.upsert_buffered(0, key, make_pair("A", "C"))
            yield hcl.sim.timeout(1.0)
            assert coal.pending_total() == 0
            assert coal.busy(0, part.index)  # the failure stays listed
            with pytest.raises(RemoteError, match="TypeError"):
                yield from m.upsert(0, other, 1)
            assert not coal.busy(0, part.index)
            assert (yield from m.upsert(0, other, 1)) == 1
            return (yield from m.find(0, key))

        assert run_rank0(hcl, body()) == (1, True)


class TestReadCache:
    def _cached_map(self, h):
        return h.unordered_map("c", partitions=2, read_cache=True)

    def test_hit_skips_invocation(self, hcl):
        m = self._cached_map(hcl)
        key = _remote_key(m, node_id=0)

        def body():
            yield from m.insert(0, key, 42)
            first = yield from m.find(0, key)
            before = _total_invocations(hcl)
            second = yield from m.find(0, key)  # served from cache
            assert _total_invocations(hcl) == before
            assert first == second == (42, True)

        run_rank0(hcl, body())
        report = m.aggregation_report()["read_cache"]
        assert report["hits"] == 1
        assert report["misses"] >= 1

    def test_never_stale_after_remote_write(self, hcl):
        """A write from any rank bumps the partition epoch, which expires
        the cached entry: the next read returns the new value, not the
        cached one."""
        m = self._cached_map(hcl)
        key = _remote_key(m, node_id=0)

        def body():
            yield from m.insert(0, key, "old")
            _ = yield from m.find(0, key)  # prime the cache
            yield from m.insert(0, key, "new")  # the epoch expires the entry
            value, found = yield from m.find(0, key)
            assert (value, found) == ("new", True)

        run_rank0(hcl, body())

    def test_never_stale_after_owner_local_write(self, small_spec):
        """The hard case: the owner mutates its partition directly (no RPC
        the caller could observe).  The epoch check must reject the
        caller's cached entry."""
        h = HCL(small_spec)
        m = self._cached_map(h)
        key = _remote_key(m, node_id=0)
        owner_rank = next(
            r for r in range(small_spec.total_procs)
            if h.cluster.node_of_rank(r) == m.partition_for(key).node_id
        )

        def reader():
            yield from m.insert(0, key, 1)
            _ = yield from m.find(0, key)  # cached at epoch E

        run_rank0(h, reader())

        def owner_writes():
            yield from m.insert(owner_rank, key, 2)  # direct local mutation

        run_rank0(h, owner_writes())

        def reread():
            value, found = yield from m.find(0, key)
            assert (value, found) == (2, True)

        run_rank0(h, reread())
        assert m.aggregation_report()["read_cache"]["stale_drops"] >= 1
        h.close()

    def test_find_async_hit_and_fill(self, hcl):
        m = self._cached_map(hcl)
        key = _remote_key(m, node_id=0)

        def body():
            yield from m.insert(0, key, 7)
            fut1 = m.find_async(0, key)  # miss: goes to the wire
            yield fut1.wait()
            assert fut1.result == (7, True)
            before = _total_invocations(hcl)
            fut2 = m.find_async(0, key)  # hit: completes instantly
            assert fut2.done and fut2.result == (7, True)
            assert _total_invocations(hcl) == before

        run_rank0(hcl, body())

    @pytest.mark.parametrize("change", ["add", "remove"])
    def test_partition_change_clears_cache(self, hcl, change):
        """Adding or removing a partition renumbers partitions and moves
        keys, so the cache drops every entry: the next find of a cached
        key is a miss, served over the wire with the right value."""
        m = hcl.unordered_map("c", partitions=3, read_cache=True)
        key = _remote_key(m, node_id=0)
        victim = next(p.index for p in m.partitions if p.node_id == 0)

        def body():
            yield from m.insert(0, key, 42)
            assert (yield from m.find(0, key)) == (42, True)
            assert m._cache.entries() == 1
            if change == "add":
                yield from m.add_partition(0, node_id=1)
            else:
                yield from m.remove_partition(0, victim)
            assert m._cache.entries() == 0
            assert m.partition_for(key).node_id == 1  # still remote
            before = m.aggregation_report()["read_cache"]
            calls = _total_invocations(hcl)
            found = yield from m.find(0, key)
            after = m.aggregation_report()["read_cache"]
            assert after["hits"] == before["hits"]
            assert after["misses"] == before["misses"] + 1
            assert _total_invocations(hcl) == calls + 1
            return found

        assert run_rank0(hcl, body()) == (42, True)

    def test_erase_invalidates(self, hcl):
        m = self._cached_map(hcl)
        key = _remote_key(m, node_id=0)

        def body():
            yield from m.insert(0, key, 1)
            _ = yield from m.find(0, key)
            ok = yield from m.erase(0, key)
            assert ok
            value, found = yield from m.find(0, key)
            assert (value, found) == (None, False)

        run_rank0(hcl, body())


#: every write spelling of a keyed hash-family op; each one leaves ``key``
#: holding 5 after the cache was primed at 1
_WRITES = {
    "insert": lambda m, key: m.insert(0, key, 5),
    "insert_async": lambda m, key: m.insert_async(0, key, 5),
    "async_insert": lambda m, key: m.async_insert(0, key, 5),
    "upsert_buffered": lambda m, key: m.upsert_buffered(0, key, 4),
    "batch": lambda m, key: m.batch(0, [("insert", key, 5)]),
}


def _read(m, reader, key):
    """Generator: ``find`` or a settled ``find_async`` of ``key``."""
    if reader == "find":
        return tuple((yield from m.find(0, key)))
    fut = m.find_async(0, key)
    if not fut.done:
        yield fut.wait()
    return tuple(fut.result)


#: (spelling, aggregation, reader); insert then ``find`` at aggregation 0
#: is ``TestReadCache::test_never_stale_after_remote_write``
_SETTLE_CASES = [
    (spelling, aggregation, reader)
    for spelling in sorted(_WRITES) for aggregation in (0, 8)
    for reader in ("find", "find_async")
    if (spelling, aggregation, reader) != ("insert", 0, "find")
]


class TestOneReadCacheRule:
    """The partition epoch is the read cache's only rule, for every write
    spelling and every ``aggregation`` setting."""

    def _cached_map(self, h, aggregation):
        m = h.unordered_map("c", partitions=2, read_cache=True,
                            aggregation=aggregation)
        return m, _remote_key(m, node_id=0)

    def _prime(self, m, key):
        yield from m.insert(0, key, 1)
        assert (yield from m.find(0, key)) == (1, True)
        assert m._cache.entries() == 1

    @pytest.mark.parametrize("spelling,aggregation,reader", _SETTLE_CASES)
    def test_read_after_settle_sees_the_write(self, hcl, aggregation,
                                              reader, spelling):
        m, key = self._cached_map(hcl, aggregation)

        def body():
            yield from self._prime(m, key)
            issued = _WRITES[spelling](m, key)
            fut = None
            if hasattr(issued, "wait"):
                fut = issued
            else:
                yield from issued
            # ``flush`` is the sync point of a buffered write; the future
            # settles a direct one.
            yield from m.flush(0)
            if fut is not None and not fut.done:
                yield fut.wait()
            return (yield from _read(m, reader, key))

        assert run_rank0(hcl, body()) == (5, True)
        # the lookup found the primed entry behind the partition's epoch
        assert m.aggregation_report()["read_cache"]["stale_drops"] == 1

    @pytest.mark.parametrize("reader", ["find", "find_async"])
    def test_read_beside_inflight_write_ignores_aggregation(
            self, small_spec, reader):
        """A read issued while the caller's own direct ``insert_async`` is
        in flight gets the same answer, from cache or not alike, with
        aggregation on as off; once the write settles, a read sees it."""

        def answer(aggregation):
            h = HCL(small_spec)
            m, key = self._cached_map(h, aggregation)

            def body():
                yield from self._prime(m, key)
                hits = m.aggregation_report()["read_cache"]["hits"]
                write = m.insert_async(0, key, 5)
                assert not write.done
                seen = yield from _read(m, reader, key)
                hit = m.aggregation_report()["read_cache"]["hits"] - hits
                yield write.wait()
                return seen, hit, (yield from m.find(0, key))

            out = run_rank0(h, body())
            h.close()
            return out

        off = answer(0)
        assert off == answer(8)
        assert off[2] == (5, True)


class TestAppEquivalence:
    """Aggregation is a transport optimization: app results are identical."""

    def test_kmer_histogram_identical(self):
        from repro.apps import run_kmer_counting, synthesize_genome

        spec = ares_like(nodes=2, procs_per_node=2, seed=3)
        data = synthesize_genome(genome_length=400, num_reads=30,
                                 read_length=40, k=11, seed=3)
        off = run_kmer_counting("hcl", spec, data)
        on = run_kmer_counting("hcl", spec, data, aggregation=16)
        assert off.verified and on.verified
        assert off.distinct_kmers == on.distinct_kmers
        assert on.time_seconds < off.time_seconds
        assert on.agg_report["aggregation"]["flushes"] > 0

    def test_contig_set_identical(self):
        from repro.apps import run_contig_generation, synthesize_genome

        spec = ares_like(nodes=2, procs_per_node=2, seed=3)
        data = synthesize_genome(genome_length=400, num_reads=30,
                                 read_length=40, k=11, seed=3)
        off = run_contig_generation("hcl", spec, data)
        on = run_contig_generation("hcl", spec, data, aggregation=16,
                                   read_cache=True)
        assert off.verified and on.verified
        assert off.contigs == on.contigs
        assert on.time_seconds < off.time_seconds
        assert on.agg_report["read_cache"]["hits"] > 0
