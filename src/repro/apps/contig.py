"""Meraculous contig generation — de Bruijn traversal (Section IV-D2).

"The contig generation is a de novo genome assembly pipeline that uses an
unordered map to traverse a de Bruijn graph of overlapping symbols."

Pipeline (faithful to the Meraculous kernel in Brock et al. [11]):

1. **Graph build** — every rank scans its reads and, for each k-mer
   occurrence, merges the observed left/right extension characters into the
   distributed hash map (k-mer -> :class:`ExtensionPair`).  HCL merges with
   one ``upsert`` per occurrence; BCL needs the client-side CAS-locked
   ``atomic_update``.
2. **Traversal** — ranks identify *UU k-mers* (unique left and right
   extension), pick seeds (UU k-mers whose predecessor is absent or not
   UU), and walk right through the graph assembling contigs, one ``find``
   per step.

Output contigs are verified to be substrings of the synthetic genome, and
the HCL and BCL runs produce identical contig sets on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.apps.genome import GenomeData
from repro.bcl import BCL
from repro.config import ClusterSpec
from repro.core import HCL

__all__ = ["ExtensionPair", "ContigResult", "run_contig_generation"]

#: Boundary marker for a k-mer at the start/end of a read.
BOUNDARY = "$"


class ExtensionPair:
    """Mergeable left/right extension sets.

    Supports ``0 + pair`` and ``pair + pair`` so that it can ride the
    generic upsert / atomic-update machinery of both backends.
    """

    __slots__ = ("lefts", "rights")

    def __init__(self, lefts: Set[str], rights: Set[str]):
        self.lefts = frozenset(lefts)
        self.rights = frozenset(rights)

    def __add__(self, other: "ExtensionPair") -> "ExtensionPair":
        if not isinstance(other, ExtensionPair):
            return NotImplemented
        return ExtensionPair(self.lefts | other.lefts,
                             self.rights | other.rights)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionPair)
            and self.lefts == other.lefts
            and self.rights == other.rights
        )

    @property
    def is_uu(self) -> bool:
        """Unique left and right extension (the traversable k-mers)."""
        return len(self.lefts) == 1 and len(self.rights) == 1

    @property
    def nbytes(self) -> int:  # serialized-size hint for the cost model
        return 8 + len(self.lefts) + len(self.rights)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ExtensionPair({sorted(self.lefts)}, {sorted(self.rights)})"


@dataclass
class ContigResult:
    backend: str
    nodes: int
    contigs: List[str]
    time_seconds: float
    verified: bool
    agg_report: Optional[dict] = None  # flush/cache counters when aggregating


def _occurrences(data: GenomeData, read: str):
    """Yield (kmer, left_ext, right_ext) for every k-mer in the read.

    A k-mer occurrence at a read edge has no context on that side; it
    contributes ``BOUNDARY`` which the ExtensionPair builder *drops* —
    read edges carry no extension information (otherwise every read
    boundary would break a contig, which real Meraculous avoids).
    """
    k = data.k
    for i in range(len(read) - k + 1):
        left = read[i - 1] if i > 0 else BOUNDARY
        right = read[i + k] if i + k < len(read) else BOUNDARY
        yield read[i:i + k], left, right


def make_pair(left: str, right: str) -> ExtensionPair:
    """Extension pair from one occurrence, dropping boundary markers."""
    return ExtensionPair(
        set() if left == BOUNDARY else {left},
        set() if right == BOUNDARY else {right},
    )


def _assemble(find, data: GenomeData, my_kmers: List[str], find_batch=None):
    """Generator: traverse from seeds among ``my_kmers``; yields contigs.

    ``find(kmer)`` is a generator returning ``ExtensionPair | None``.
    ``find_batch(kmers)``, when provided, resolves many lookups with
    overlapped (asynchronous) requests — HCL's future-based RPC lets the
    seed-filter phase pipeline its lookups (Section III-C4), while the
    walk itself stays inherently sequential (each step's key depends on
    the previous result).
    """
    contigs: List[str] = []
    # Phase 1: resolve every candidate's extensions (batched if possible).
    if find_batch is not None:
        exts = yield from find_batch(my_kmers)
    else:
        exts = []
        for kmer in my_kmers:
            ext = yield from find(kmer)
            exts.append(ext)
    # Phase 2: seed check (one predecessor lookup per UU candidate).
    candidates = [(k, e) for k, e in zip(my_kmers, exts)
                  if e is not None and e.is_uu]
    preds = [next(iter(e.lefts)) + k[:-1] for k, e in candidates]
    if find_batch is not None:
        pred_exts = yield from find_batch(preds)
    else:
        pred_exts = []
        for pred in preds:
            ext = yield from find(pred)
            pred_exts.append(ext)
    # Phase 3: walk right from each seed.
    for (kmer, ext), pred_ext in zip(candidates, pred_exts):
        if pred_ext is not None and pred_ext.is_uu:
            continue  # interior k-mer; the seed is further left
        contig = kmer
        current = kmer
        current_ext = ext
        while True:
            right = next(iter(current_ext.rights))
            nxt = current[1:] + right
            nxt_ext = yield from find(nxt)
            if nxt_ext is None or not nxt_ext.is_uu:
                break
            contig += right
            current, current_ext = nxt, nxt_ext
        contigs.append(contig)
    return contigs


def _verify(contigs: List[str], data: GenomeData) -> bool:
    return bool(contigs) and all(c in data.genome for c in contigs)


def run_contig_generation(backend: str, spec: ClusterSpec,
                          data: GenomeData, aggregation: int = 0,
                          read_cache: bool = False,
                          instrument=None) -> ContigResult:
    """Run the contig kernel.

    HCL-only knobs: ``aggregation`` write-combines the build phase's
    extension merges (commutative ExtensionPair unions — identical final
    graph) into one invocation per flush; ``read_cache`` serves repeated
    traversal lookups (every interior k-mer is read by the seed filter AND
    the walk) from the epoch-validated locality cache.
    """
    if backend == "hcl":
        return _run_hcl(spec, data, aggregation, read_cache, instrument)
    if backend == "bcl":
        return _run_bcl(spec, data)
    raise ValueError(f"unknown backend {backend!r}")


def _rank_kmers(data: GenomeData, rank: int, total: int) -> List[str]:
    """The distinct k-mers a rank seeds from (its slice of the reads)."""
    seen: Set[str] = set()
    ordered: List[str] = []
    for read in data.reads[rank::total]:
        for kmer, _l, _r in _occurrences(data, read):
            if kmer not in seen:
                seen.add(kmer)
                ordered.append(kmer)
    return ordered


def _run_hcl(spec: ClusterSpec, data: GenomeData, aggregation: int = 0,
             read_cache: bool = False, instrument=None) -> ContigResult:
    hcl = HCL(spec)
    graph = hcl.unordered_map("debruijn", partitions=hcl.num_nodes,
                              initial_buckets=1024, aggregation=aggregation,
                              read_cache=read_cache)
    if instrument is not None:
        instrument(hcl)
    total = spec.total_procs
    all_contigs: Set[str] = set()

    def build_body(rank):
        for read in data.reads[rank::total]:
            for kmer, left, right in _occurrences(data, read):
                if aggregation:
                    yield from graph.upsert_buffered(
                        rank, kmer, make_pair(left, right)
                    )
                else:
                    yield from graph.upsert(rank, kmer, make_pair(left, right))
        if aggregation:
            yield from graph.flush(rank)

    hcl.run_ranks(build_body)

    def traverse_body(rank):
        def find(kmer):
            value, found = yield from graph.find(rank, kmer)
            return value if found else None

        def find_batch(kmers, window=16):
            """Overlapped lookups through HCL's asynchronous futures."""
            out = []
            for start in range(0, len(kmers), window):
                futs = [graph.find_async(rank, k)
                        for k in kmers[start:start + window]]
                for fut in futs:
                    yield fut.wait()
                    value, found = fut.result
                    out.append(value if found else None)
            return out

        contigs = yield from _assemble(
            find, data, _rank_kmers(data, rank, total), find_batch=find_batch
        )
        all_contigs.update(contigs)

    hcl.run_ranks(traverse_body)
    contigs = sorted(all_contigs)
    return ContigResult("hcl", hcl.num_nodes, contigs, hcl.now,
                        _verify(contigs, data),
                        agg_report=graph.aggregation_report() or None)


def _run_bcl(spec: ClusterSpec, data: GenomeData) -> ContigResult:
    bcl = BCL(spec)
    nkmers = sum(max(0, len(r) - data.k + 1) for r in data.reads)
    # Static provisioning at ~0.7 load (distinct k-mers are ~1/3 of the
    # occurrence count for overlapping reads): linear-probe chains cost
    # BCL one extra round trip per probe during the traversal phase.
    capacity = max(256, int(nkmers / 2 / bcl.cluster.num_nodes / 0.7))
    graph = bcl.hashmap(
        "debruijn",
        capacity_per_partition=capacity,
        entry_size=96,
        inflight_slots=64,
        max_probes=capacity,
    )
    total = spec.total_procs
    all_contigs: Set[str] = set()

    def build_body(rank):
        for read in data.reads[rank::total]:
            for kmer, left, right in _occurrences(data, read):
                pair = make_pair(left, right)
                yield from graph.atomic_update(
                    rank, kmer, lambda v, p=pair: (v + p) if v != 0 else p,
                    initial=0,
                )

    bcl.run_ranks(build_body)

    def traverse_body(rank):
        def find(kmer):
            value, found = yield from graph.find(rank, kmer)
            return value if found else None

        def gen():
            contigs = yield from _assemble(
                find, data, _rank_kmers(data, rank, total)
            )
            all_contigs.update(contigs)
        return gen()

    procs = [bcl.cluster.spawn(traverse_body(r), name=f"traverse-{r}")
             for r in range(total)]
    bcl.cluster.run()
    for p in procs:
        p.result
    contigs = sorted(all_contigs)
    return ContigResult("bcl", bcl.cluster.num_nodes, contigs, bcl.sim.now,
                        _verify(contigs, data))
