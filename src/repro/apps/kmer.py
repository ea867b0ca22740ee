"""Meraculous k-mer counting on both backends (Section IV-D2).

"k-mer counting uses an unordered map to compute a histogram describing the
number of occurrences of each k-mer across reads of a DNA sequence."

* **HCL** — one ``upsert`` invocation per k-mer: the increment executes at
  the target partition (procedural programming), one round trip.
* **BCL** — the client-side equivalent: a find (read the current count)
  followed by an insert (CAS + write + CAS), i.e. two full client-driven
  protocols per k-mer.  This is exactly the access-pattern gap behind the
  paper's 2.17x-8x result.

Reads are divided among ranks block-wise; the result is verified against an
exact sequential histogram.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Union

from repro.apps.genome import GenomeData, exact_kmer_counts
from repro.bcl import BCL
from repro.config import ClusterSpec
from repro.core import HCL

__all__ = ["KmerResult", "run_kmer_counting"]


@dataclass
class KmerResult:
    backend: str
    nodes: int
    total_kmers: int
    distinct_kmers: int
    time_seconds: float
    verified: bool
    filtered_kmers: int = 0  # dropped by the min_count noise filter
    agg_report: Optional[dict] = None  # flush/cache counters when aggregating
    #: crc32 over the sorted final histogram — two runs computed the same
    #: counts iff their digests are equal (the sync-vs-async A/B check)
    digest: str = ""


def _counts_digest(counts: dict) -> str:
    crc = 0
    for key in sorted(counts):
        crc = zlib.crc32(f"{key}:{counts[key]};".encode("utf-8"), crc)
    return f"{crc:08x}"


def _reads_for_rank(data: GenomeData, rank: int, total: int):
    return data.reads[rank::total]


def run_kmer_counting(backend: str, spec: ClusterSpec, data: GenomeData,
                      min_count: int = 1,
                      aggregation: Union[int, str] = 0,
                      instrument=None, async_api: bool = False,
                      window=None) -> KmerResult:
    """Count k-mers on ``backend``.

    ``min_count`` is Meraculous's noise filter: k-mers observed fewer than
    ``min_count`` times (mostly sequencing errors when ``error_rate > 0``)
    are dropped from the final histogram.

    ``aggregation`` (HCL only): write-combine up to that many upserts per
    destination partition into one invocation.  Upserts are commutative,
    so the final histogram is identical; 0 keeps the classic
    one-invocation-per-k-mer behavior.

    ``async_api`` (HCL only): count through the pipelined-futures API
    (``async_rmw``) instead of per-op generators.  ``aggregation``
    defaults to ``"auto"`` (the self-tuning coalescer) when left unset.

    ``window`` (HCL only): truthy arms the RPC client's AIMD congestion
    windows.
    """
    if backend == "hcl":
        return _run_hcl(spec, data, min_count, aggregation, instrument,
                        async_api=async_api, window=window)
    if backend == "bcl":
        return _run_bcl(spec, data, min_count)
    raise ValueError(f"unknown backend {backend!r}")


def _verify(counts: dict, data: GenomeData, min_count: int) -> bool:
    reference = {
        k: c for k, c in exact_kmer_counts(data).items() if c >= min_count
    }
    return counts == reference


def _apply_filter(counts: dict, min_count: int):
    kept = {k: c for k, c in counts.items() if c >= min_count}
    return kept, len(counts) - len(kept)


def _run_hcl(spec: ClusterSpec, data: GenomeData,
             min_count: int = 1, aggregation: Union[int, str] = 0,
             instrument=None, async_api: bool = False,
             window=None) -> KmerResult:
    if async_api and not aggregation:
        aggregation = "auto"
    hcl = HCL(spec, window=window)
    table = hcl.unordered_map("kmers", partitions=hcl.num_nodes,
                              initial_buckets=1024, aggregation=aggregation)
    if instrument is not None:
        instrument(hcl)
    total_procs = spec.total_procs
    seen = 0

    if async_api:
        def rank_body(rank):
            nonlocal seen
            count = 0
            futs = []
            push = futs.append
            rmw = table.async_rmw
            for read in _reads_for_rank(data, rank, total_procs):
                for kmer in data.kmers_of_read(read):
                    push(rmw(rank, kmer, 1))
                    count += 1
            # Sync point: drain the write combiner, then await the few
            # stragglers (same-node ops complete through local processes).
            yield from table.flush(rank)
            for fut in futs:
                if not fut.done:
                    yield fut.wait()
                _ = fut.result  # surfaces any failed upsert
            seen += count
            return count
    else:
        def rank_body(rank):
            nonlocal seen
            count = 0
            for read in _reads_for_rank(data, rank, total_procs):
                for kmer in data.kmers_of_read(read):
                    if aggregation:
                        yield from table.upsert_buffered(rank, kmer, 1)
                    else:
                        yield from table.upsert(rank, kmer, 1)
                    count += 1
            if aggregation:
                yield from table.flush(rank)
            seen += count
            return count

    hcl.run_ranks(rank_body)
    counts = {k: v for part in table.partitions for k, v in part.structure.items()}
    counts, filtered = _apply_filter(counts, min_count)
    return KmerResult("hcl", hcl.num_nodes, seen, len(counts), hcl.now,
                      _verify(counts, data, min_count),
                      filtered_kmers=filtered,
                      agg_report=table.aggregation_report() or None,
                      digest=_counts_digest(counts))


def _run_bcl(spec: ClusterSpec, data: GenomeData,
             min_count: int = 1) -> KmerResult:
    bcl = BCL(spec)
    nkmers = sum(max(0, len(r) - data.k + 1) for r in data.reads)
    # Static sizing at ~0.7 load on the expected distinct-k-mer count.
    capacity = max(256, int(nkmers / 2 / bcl.cluster.num_nodes / 0.7))
    table = bcl.hashmap(
        "kmers",
        capacity_per_partition=capacity,
        entry_size=64,
        inflight_slots=64,
        max_probes=capacity,
    )
    total_procs = spec.total_procs
    seen = 0

    def rank_body(rank):
        nonlocal seen
        count = 0
        for read in _reads_for_rank(data, rank, total_procs):
            for kmer in data.kmers_of_read(read):
                # Client-side atomic read-modify-write: CAS-lock the bucket,
                # read, write back, CAS-unlock (five remote ops).
                yield from table.atomic_update(
                    rank, kmer, lambda v: v + 1, initial=0
                )
                count += 1
        seen += count
        return count

    bcl.run_ranks(rank_body)
    counts = dict(table.stored_items())
    counts, filtered = _apply_filter(counts, min_count)
    return KmerResult("bcl", bcl.cluster.num_nodes, seen, len(counts),
                      bcl.sim.now, _verify(counts, data, min_count),
                      filtered_kmers=filtered, digest=_counts_digest(counts))
