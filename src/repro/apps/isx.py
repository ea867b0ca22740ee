"""ISx — scalable integer sort (Hanebutte & Hemstad [34]), both backends.

"It consists of two phases: a data distribution phase and a local sorting
phase ... By default, there is one bucket on each node" (Section IV-D1).
Keys are uniform; every rank knows the key range, so bucket assignment is
pure arithmetic.

* **HCL version** — each node hosts an ``HCL::priority_queue`` bucket.
  Ranks vector-push their keys; the queue "sorts the data as it arrives"
  in O(log n) per element, so the final phase is just a drain — "the cost
  of sorting gets hidden behind the data movement via the network".
* **BCL version** — each node hosts a BCL circular queue.  Ranks push
  keys one by one (the client-side protocol has no server to batch on),
  then one rank per node pops everything and performs an explicit local
  sort whose n·log n CPU cost is charged to the timeline.

Both versions *verify* that the concatenation of per-node results is the
sorted input.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import Dict, List, Optional

import numpy as np

from repro.bcl import BCL
from repro.config import ClusterSpec
from repro.core import HCL

__all__ = ["IsxResult", "run_isx"]

MAX_KEY = 1 << 27  # ISx default key domain (2^27)


@dataclass
class IsxResult:
    backend: str
    nodes: int
    total_keys: int
    time_seconds: float
    verified: bool
    agg_report: Optional[dict] = None  # summed flush counters when aggregating


def _generate_keys(rank: int, keys_per_rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng((seed << 20) + rank)
    return rng.integers(0, MAX_KEY, size=keys_per_rank, dtype=np.int64)


def _bucket_of(key: int, nodes: int) -> int:
    return min(nodes - 1, int(key * nodes // MAX_KEY))


def _buckets_of(keys: np.ndarray, nodes: int) -> List[int]:
    """:func:`_bucket_of` of every key, in one vector op."""
    return np.minimum(nodes - 1, keys * nodes // MAX_KEY).tolist()


def run_isx(
    backend: str,
    spec: ClusterSpec,
    keys_per_rank: int = 128,
    batch: int = 32,
    seed: int = 1,
    aggregation: int = 0,
    instrument=None,
) -> IsxResult:
    """Run the ISx kernel on ``backend`` ("hcl" or "bcl").

    ``aggregation`` (HCL only): scatter keys through per-bucket write
    buffers instead of the app-managed ``push_many`` blocks — the same
    keys reach the same buckets (the priority queue sorts on arrival), in
    one ``batch`` invocation per flush.

    ``instrument`` (HCL only): callable invoked with the :class:`HCL`
    runtime after the containers are built but before the workload runs —
    the attach point for tracers and flight recorders.
    """
    if backend == "hcl":
        return _run_hcl(spec, keys_per_rank, batch, seed, aggregation,
                        instrument)
    if backend == "bcl":
        return _run_bcl(spec, keys_per_rank, seed)
    raise ValueError(f"unknown backend {backend!r}")


def _verify(per_node: List[List[int]], all_keys: List[int], nodes: int) -> bool:
    merged: List[int] = []
    for node_id, chunk in enumerate(per_node):
        if chunk != sorted(chunk):
            return False
        if any(_bucket_of(k, nodes) != node_id for k in chunk):
            return False
        merged.extend(chunk)
    return sorted(merged) == sorted(all_keys)


# -- HCL ----------------------------------------------------------------------

def _run_hcl(spec: ClusterSpec, keys_per_rank: int, batch: int,
             seed: int, aggregation: int = 0, instrument=None) -> IsxResult:
    hcl = HCL(spec)
    nodes = hcl.num_nodes
    # Priority-queue coordinate space must cover MAX_KEY.
    buckets = [
        hcl.priority_queue(f"isx.bucket{i}", home_node=i, dims=9, base=8,
                           aggregation=aggregation)
        for i in range(nodes)
    ]
    if instrument is not None:
        instrument(hcl)
    all_keys: List[int] = []

    def rank_body(rank):
        key_array = _generate_keys(rank, keys_per_rank, seed)
        keys = key_array.tolist()
        bucket_ids = _buckets_of(key_array, nodes)
        all_keys.extend(keys)
        if aggregation:
            # Scatter through the transparent write buffers: pushes
            # write-combine per destination bucket and flush as single
            # batch invocations — no app-managed grouping needed.
            for key, bucket_id in zip(keys, bucket_ids):
                yield from buckets[bucket_id].push_buffered(rank, key, None)
            for bucket in buckets:
                yield from bucket.flush(rank)
            return len(keys)
        # Distribution phase: group keys by destination bucket, vector-push.
        by_bucket: Dict[int, List[int]] = {}
        for key, bucket_id in zip(keys, bucket_ids):
            by_bucket.setdefault(bucket_id, []).append(key)
        for bucket_id, chunk in sorted(by_bucket.items()):
            for start in range(0, len(chunk), batch):
                entries = [(k, None) for k in chunk[start:start + batch]]
                yield from buckets[bucket_id].push_many(rank, entries)
        return len(keys)

    hcl.run_ranks(rank_body)

    # Drain phase: one co-located rank per node pops its (already sorted)
    # bucket; pops are local thanks to the hybrid access model.
    per_node: List[List[int]] = [[] for _ in range(nodes)]

    def drain_body(node_id):
        rank = node_id * spec.procs_per_node  # first rank on that node
        def gen():
            out = []
            while True:
                entries = yield from buckets[node_id].pop_many(rank, 64)
                if not entries:
                    break
                out.extend(k for k, _v in entries)
            per_node[node_id].extend(out)
        return gen()

    procs = [hcl.cluster.spawn(drain_body(i), name=f"drain-{i}")
             for i in range(nodes)]
    hcl.cluster.run()
    for p in procs:
        p.result
    elapsed = hcl.now
    agg = None
    if aggregation:
        # One coalescer per bucket queue: sum the flush counters.
        agg = {"aggregation": {}}
        for bucket in buckets:
            for k, v in bucket.aggregation_report()["aggregation"].items():
                agg["aggregation"][k] = agg["aggregation"].get(k, 0) + v
        flushes = agg["aggregation"]["flushes"]
        agg["aggregation"]["ops_per_flush"] = (
            agg["aggregation"]["flushed_ops"] / flushes if flushes else 0.0
        )
    return IsxResult("hcl", nodes, len(all_keys), elapsed,
                     _verify(per_node, all_keys, nodes), agg_report=agg)


# -- BCL ----------------------------------------------------------------------

def _run_bcl(spec: ClusterSpec, keys_per_rank: int, seed: int) -> IsxResult:
    bcl = BCL(spec)
    nodes = bcl.cluster.num_nodes
    capacity = max(1024, 2 * keys_per_rank * spec.total_procs)
    queues = [
        bcl.queue(f"isx.bucket{i}", capacity=capacity, entry_size=8,
                  home_node=i, inflight_slots=64)
        for i in range(nodes)
    ]
    all_keys: List[int] = []

    def rank_body(rank):
        keys = _generate_keys(rank, keys_per_rank, seed)
        all_keys.extend(int(k) for k in keys)
        for key in keys:
            bucket = _bucket_of(int(key), nodes)
            yield from queues[bucket].push(rank, int(key))
        return len(keys)

    bcl.run_ranks(rank_body)

    per_node: List[List[int]] = [[] for _ in range(nodes)]

    def drain_body(node_id):
        rank = node_id * spec.procs_per_node
        def gen():
            out = []
            while True:
                value, ok = yield from queues[node_id].pop(rank)
                if not ok:
                    break
                out.append(value)
            # Explicit local sort: charge n log n comparisons on the CPU.
            n = len(out)
            if n > 1:
                yield (
                    2.0 * n * log2(n) * bcl.cost.local_op
                )
            per_node[node_id].extend(sorted(out))
        return gen()

    procs = [bcl.cluster.spawn(drain_body(i), name=f"drain-{i}")
             for i in range(nodes)]
    bcl.cluster.run()
    for p in procs:
        p.result
    elapsed = bcl.sim.now
    return IsxResult("bcl", nodes, len(all_keys), elapsed,
                     _verify(per_node, all_keys, nodes))
