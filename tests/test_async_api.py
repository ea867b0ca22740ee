"""Container-level pipelined async API and the self-tuning coalescer.

``async_insert``/``find_async``/``async_rmw`` return per-op futures that
ride the write-combining buffers (including same-node partitions), so a
storm issues without yielding per op; results are bit-identical to the
synchronous path.  ``aggregation="auto"`` derives the flush threshold from
observed flush efficiency instead of a hand-tuned knob.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import run_kmer_counting, synthesize_genome
from repro.config import ares_like
from repro.core import HCL
from repro.harness.figures import AGG_SHAPES, app_input
from repro.obs.registry import registry_of
from repro.rpc.coalesce import AUTO_FLOOR, AUTO_INITIAL

from tests.conftest import run_rank0


def _contents(m) -> dict:
    return {k: v for part in m.partitions for k, v in part.structure.items()}


class TestAsyncHashOps:
    def test_async_insert_find_rmw_round_trip(self, small_spec):
        h = HCL(small_spec)
        m = h.unordered_map("t", partitions=2, aggregation=8)

        def body(rank):
            if rank != 0:
                return None
            futs = [m.async_insert(rank, i, i * 10) for i in range(12)]
            # flush: ordering across op kinds is guaranteed at sync points
            yield from m.flush(rank)
            futs += [m.async_rmw(rank, i, 5) for i in range(12)]
            yield from m.flush(rank)
            for fut in futs:
                if not fut.done:
                    yield fut.wait()
                _ = fut.result
            reads = [m.find_async(rank, i) for i in range(12)]
            yield from m.flush(rank)
            out = []
            for fut in reads:
                if not fut.done:
                    yield fut.wait()
                out.append(fut.result)
            return out

        found = h.run_ranks(body)[0].result
        assert [v for v, ok in found] == [i * 10 + 5 for i in range(12)]
        assert all(ok for _v, ok in found)
        h.close()

    def test_async_rmw_future_value_is_per_op(self, small_spec):
        """Each rider settles with ITS slot of the batch result."""
        h = HCL(small_spec)
        m = h.unordered_map("t", partitions=2, aggregation=64)

        def body(rank):
            if rank != 0:
                return None
            futs = [m.async_rmw(rank, "k", 1) for _ in range(6)]
            yield from m.flush(rank)
            for fut in futs:
                if not fut.done:
                    yield fut.wait()
            return [f.result for f in futs]

        assert h.run_ranks(body)[0].result == [1, 2, 3, 4, 5, 6]
        h.close()

    def test_async_matches_sync_results(self, small_spec):
        def run(use_async):
            h = HCL(small_spec)
            m = h.unordered_map("t", partitions=2, aggregation=8)

            def body(rank):
                for i in range(30):
                    if use_async:
                        m.async_rmw(rank, i % 11, 1)
                        # generator protocol needs at least one yield
                        if False:
                            yield
                    else:
                        yield from m.upsert_buffered(rank, i % 11, 1)
                yield from m.flush(rank)

            h.run_ranks(body)
            out = _contents(m)
            h.close()
            return out

        assert run(True) == run(False)

    def test_failed_flush_fails_every_rider(self, small_spec):
        """A flush whose batch handler raises fails ALL its riders."""
        h = HCL(small_spec)
        m = h.unordered_map("t", partitions=2, aggregation=8)
        seen = []

        def body(rank):
            if rank != 0:
                return None
            yield from m.insert(rank, "k", 1)
            # int + str raises inside the partition's upsert handler
            futs = [m.async_rmw(rank, "k", "boom") for _ in range(4)]
            try:
                yield from m.flush(rank)
            except Exception as err:  # noqa: BLE001
                seen.append(err)
            for fut in futs:
                assert fut.done and not fut.ok
            return True

        assert h.run_ranks(body)[0].result is True
        assert seen, "failed batch should surface at the flush sync point"
        h.close()

    def test_ordered_map_async_ops(self, small_spec):
        h = HCL(small_spec)
        m = h.map("om", partitions=2, aggregation=8)

        def body(rank):
            if rank != 0:
                return None
            futs = [m.async_insert(rank, i, -i) for i in range(8)]
            yield from m.flush(rank)
            for fut in futs:
                if not fut.done:
                    yield fut.wait()
                _ = fut.result
            reads = [m.find_async(rank, i) for i in range(8)]
            done = []
            for fut in reads:
                if not fut.done:
                    yield fut.wait()
                done.append(fut.result)
            return done

        found = h.run_ranks(body)[0].result
        assert [v for v, ok in found] == [-i for i in range(8)]
        h.close()

    def test_async_without_coalescer_still_works(self, small_spec):
        """aggregation=0: pipelined ops degrade to plain async execution."""
        h = HCL(small_spec)
        m = h.unordered_map("t", partitions=2, aggregation=0)

        def body(rank):
            if rank != 0:
                return None
            futs = [m.async_rmw(rank, i % 3, 1) for i in range(9)]
            for fut in futs:
                if not fut.done:
                    yield fut.wait()
                _ = fut.result
            return True

        assert h.run_ranks(body)[0].result is True
        assert sum(_contents(m).values()) == 9
        h.close()


def _remote_key(m, node_id: int = 0):
    """A key owned by a partition NOT on ``node_id``."""
    return next(k for k in range(10_000)
                if m.partition_for(k).node_id != node_id)


def _settled(fut):
    """Generator: the future's result once it has settled."""
    if not fut.done:
        yield fut.wait()
    return fut.result


@pytest.mark.parametrize("read_cache", [False, True])
class TestAsyncOrderBehindBuffers:
    """An async op to a partition the caller's node has ops buffered or in
    flight for runs behind them, with the read cache off and on."""

    def test_find_async_sees_buffered_upserts(self, hcl, read_cache):
        m = hcl.unordered_map("t", partitions=2, aggregation=8,
                              read_cache=read_cache)
        key = _remote_key(m)

        def body():
            # A sync find first: with the cache on, it caches the miss.
            assert (yield from m.find(0, key)) == (None, False)
            for _ in range(3):
                yield from m.upsert_buffered(0, key, 1)
            assert m._coalescer.pending_total() == 3
            found = yield from _settled(m.find_async(0, key))
            return tuple(found)

        assert run_rank0(hcl, body()) == (3, True)

    def test_async_ops_wait_behind_inflight_flush(self, hcl, read_cache):
        m = hcl.unordered_map("t", partitions=2, aggregation=8,
                              read_cache=read_cache)
        key = _remote_key(m)
        part = m.partition_for(key)

        def body():
            assert (yield from m.find(0, key)) == (None, False)
            for _ in range(8):
                yield from m.upsert_buffered(0, key, 1)
            # The eighth upsert tripped the threshold: nothing is buffered,
            # and the flush has not landed yet.
            assert m._coalescer.pending_total() == 0
            assert m.aggregation_report()["aggregation"]["flushes"] == 1
            assert part.structure.find(key)[1] is False
            found = m.find_async(0, key)
            inserted = m.insert_async(0, key, 100)
            found = yield from _settled(found)
            assert (yield from _settled(inserted)) is True
            final = yield from m.find(0, key)
            return tuple(found), tuple(final)

        assert run_rank0(hcl, body()) == ((8, True), (100, True))


class TestBatchFreshWithoutCacheFront:
    """A keyed ``batch`` never touches the read cache; the partition epoch
    its write bumps keeps a cached read fresh."""

    @pytest.mark.parametrize("writer", [0, 4], ids=["same-node", "other-node"])
    def test_batched_write_refreshes_cached_find(self, hcl, writer):
        m = hcl.unordered_map("t", partitions=2, read_cache=True)
        key = _remote_key(m)
        assert hcl.cluster.node_of_rank(writer) == (
            0 if writer == 0 else 1)

        def body():
            yield from m.insert(0, key, "v1")
            assert (yield from m.find(0, key)) == ("v1", True)
            assert m._cache.entries() == 1
            yield from m.batch(writer, [("insert", key, "v2")])
            return (yield from m.find(0, key))

        assert run_rank0(hcl, body()) == ("v2", True)


class TestAutoTunedCoalescer:
    def test_dense_storm_grows_threshold(self, small_spec):
        h = HCL(small_spec)
        m = h.unordered_map("t", partitions=2, aggregation="auto")

        def body(rank):
            for i in range(600):
                m.async_rmw(rank, i % 251, 1)
                if False:
                    yield
            yield from m.flush(rank)

        h.run_ranks(body)
        report = m.aggregation_report()["aggregation"]
        assert report["auto"] is True
        assert report["auto_threshold"] > AUTO_INITIAL
        h.close()

    def test_sparse_traffic_shrinks_toward_floor(self, small_spec):
        h = HCL(small_spec)
        m = h.unordered_map("t", partitions=2, aggregation="auto")
        coal = m._coalescer
        coal.max_ops = 64  # pretend a dense phase grew it

        def body(rank):
            for i in range(40):
                yield from m.upsert_buffered(rank, i, 1)
                yield from m.flush(rank)  # drain-dominated: 1 op per flush

        h.run_ranks(body)
        assert coal.max_ops < 64
        assert coal.max_ops >= AUTO_FLOOR
        h.close()

    def test_static_knob_is_not_auto(self, small_spec):
        h = HCL(small_spec)
        m = h.unordered_map("t", partitions=2, aggregation=16)

        def body(rank):
            for i in range(600):
                m.async_rmw(rank, i % 251, 1)
                if False:
                    yield
            yield from m.flush(rank)

        h.run_ranks(body)
        report = m.aggregation_report()["aggregation"]
        assert "auto" not in report
        assert m._coalescer.max_ops == 16  # static override never adapts
        h.close()

    def test_auto_gauges_exported(self, small_spec):
        h = HCL(small_spec)
        m = h.unordered_map("t", partitions=2, aggregation="auto")

        def body(rank):
            for i in range(600):
                m.async_rmw(rank, i % 251, 1)
                if False:
                    yield
            yield from m.flush(rank)

        h.run_ranks(body)
        metrics = registry_of(h.sim)
        assert (metrics.gauge("coalesce/auto_threshold").value
                == m._coalescer.max_ops)
        assert (metrics.gauge("t/auto_threshold").value
                == m._coalescer.max_ops)
        h.close()


class TestKmerSyncAsyncIdentity:
    def test_digests_identical_across_api(self):
        data = synthesize_genome(genome_length=600, num_reads=48,
                                 read_length=60, k=15, seed=3)
        spec = ares_like(nodes=2, procs_per_node=2)
        sync = run_kmer_counting("hcl", spec, data, aggregation=512)
        spec = ares_like(nodes=2, procs_per_node=2)
        asyn = run_kmer_counting("hcl", spec, data, async_api=True,
                                 window=True)
        assert sync.verified and asyn.verified
        assert sync.digest == asyn.digest
        assert sync.total_kmers == asyn.total_kmers
        assert asyn.agg_report["aggregation"]["auto"] is True

    def test_async_defaults_to_auto_aggregation(self):
        data = synthesize_genome(genome_length=300, num_reads=12,
                                 read_length=60, k=15, seed=3)
        spec = ares_like(nodes=2, procs_per_node=2)
        res = run_kmer_counting("hcl", spec, data, async_api=True)
        assert res.agg_report["aggregation"]["auto"] is True


def _async_kmer_rows() -> str:
    """The async k-mer storm at ``AGG_SHAPES`` on 4 x 3 ranks, windows
    on, at threshold 512 and self-tuned: each row's simulated seconds,
    digest and coalescer report, as JSON."""
    data = app_input("kmer", AGG_SHAPES["kmer"], 4, 1.0)
    rows = {}
    for aggregation in (512, "auto"):
        res = run_kmer_counting(
            "hcl", ares_like(nodes=4, procs_per_node=3), data,
            aggregation=aggregation, async_api=True, window=True)
        assert res.verified
        rows[str(aggregation)] = [repr(res.time_seconds), res.digest,
                                  res.agg_report["aggregation"]]
    return json.dumps(rows, sort_keys=True)


def test_async_kmer_rows_do_not_move_with_the_hash_seed():
    """Futures, windows and the self-tuning coalescer route by seeded
    streams and stable hashes, never by ``hash()`` of a string: the same
    run under two hash seeds reports the same bytes."""
    root = Path(__file__).resolve().parent.parent
    code = "import tests.test_async_api as t; print(t._async_kmer_rows())"
    runs = [subprocess.Popen(
        [sys.executable, "-c", code], cwd=root, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONHASHSEED": seed,
             "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])})
        for seed in ("0", "1")]
    outs = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert set(json.loads(outs[0])) == {"512", "auto"}


class TestAdaptiveMetricsVisibility:
    def test_window_stalls_and_auto_threshold_in_snapshot(self):
        """Satellite: both adaptive-state series must be visible in the
        ``--metrics-out`` snapshot of a windowed async run."""
        data = synthesize_genome(genome_length=600, num_reads=48,
                                 read_length=60, k=15, seed=3)
        spec = ares_like(nodes=3, procs_per_node=2)
        box = {}
        res = run_kmer_counting(
            "hcl", spec, data, async_api=True, window=True,
            instrument=lambda h: box.setdefault("sim", h.sim),
        )
        assert res.verified
        snap = registry_of(box["sim"]).snapshot()
        assert "rpc/window_stalls" in snap
        assert "coalesce/auto_threshold" in snap
        assert any(k.startswith("rpc/cwnd/") for k in snap)


class TestPipelineWithWindows:
    def test_windows_do_not_change_results(self, small_spec):
        def run(window):
            h = HCL(small_spec, window=window)
            m = h.unordered_map("t", partitions=2, aggregation=8)

            def body(rank):
                for i in range(40):
                    m.async_rmw(rank, i % 13, 1)
                    if False:
                        yield
                yield from m.flush(rank)

            h.run_ranks(body)
            out = _contents(m)
            h.close()
            return out

        assert run(None) == run(True)

    def test_window_false_means_off(self, small_spec):
        h = HCL(small_spec, window=False)
        assert all(c.windows is None for c in h._clients.values())
        h.close()

    def test_window_true_arms_every_client(self, small_spec):
        h = HCL(small_spec, window=True)
        assert all(c.windows is not None for c in h._clients.values())
        h.close()


class TestRejections:
    def test_auto_string_other_than_auto_rejected(self, small_spec):
        h = HCL(small_spec)
        with pytest.raises((ValueError, TypeError)):
            h.unordered_map("t", partitions=2, aggregation="adaptive")
        h.close()
