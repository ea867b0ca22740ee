"""The issue-mode lattice, no-fault slice: one workload, every issue mode.

A workload whose answer the specification fixes must give that answer in
every configuration the specification calls equivalent.  Aggregation
buffer sizes, the read cache, the AIMD windows and the four issue spellings
(synchronous, buffered, pipelined, async) change *when* an op leaves its
node, never what it does, so each point of the lattice below is checked
against one oracle:

* k-mer counting (``upsert`` / ``upsert_buffered`` / ``async_rmw`` / the
  last two mixed × aggregation 0 / 8 / 512 / ``"auto"`` × windows off /
  on × read cache off / on, the last two pruned pairwise): the final
  histogram equals the exact sequential count, so does every read after
  the run, a rank's read before its flush sees its own upserts, and the new values one key's read-modify-writes return
  are distinct counts, all of ``1 .. count`` when every op returns one;
* contig generation (aggregation 0 / 16 × read cache off / on): every
  point assembles the same contig set;
* ISx (aggregation 0 / 8 / 512): every point is verified;
* both queue families (``push`` / ``push_async``, plus ``push_buffered``
  on the priority queue, × ``pop`` / ``pop_async`` / ``pop_many``): the
  popped multiset is the pushed one, and priorities pop in ascending
  order.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from repro.apps import run_contig_generation, run_isx, synthesize_genome
from repro.apps.genome import exact_kmer_counts
from repro.config import ares_like
from repro.core import HCL

SPEC = dict(nodes=2, procs_per_node=2, seed=3)
AGGREGATIONS = (0, 8, 512, "auto")


@pytest.fixture(scope="module")
def genome():
    return synthesize_genome(genome_length=600, num_reads=48,
                             read_length=60, k=15, seed=3)


@pytest.fixture(scope="module")
def contig_reference(genome):
    result = run_contig_generation("hcl", ares_like(**SPEC), genome)
    assert result.verified
    return result.contigs


# -- k-mer counting ------------------------------------------------------------

def _count_kmers(data, aggregation, mode, window, read_cache):
    """Count ``data``'s k-mers through one issue spelling.

    Each rank issues its upserts, then reads its k-mers back before any
    flush: a synchronous read is a sync point, so it sees at least this
    rank's own upserts.  With the read cache on, each rank also reads its
    k-mers first (filling the cache) and once more after every rank is
    done.  Returns the final histogram, the values those last reads saw
    (``None`` with the cache off), and, per k-mer, the new values the
    upserts returned.
    """
    spec = ares_like(**SPEC)
    hcl = HCL(spec, window=window)
    table = hcl.unordered_map("kmers", partitions=hcl.num_nodes,
                              initial_buckets=1024, aggregation=aggregation,
                              read_cache=read_cache)
    total = spec.total_procs
    returned = {}
    seen = {}

    def mine(rank):
        return Counter(kmer for read in data.reads[rank::total]
                       for kmer in data.kmers_of_read(read))

    def count(rank):
        own = mine(rank)
        if read_cache:
            for kmer in own:
                yield from table.find(rank, kmer)
        futures = []
        kmers = [kmer for read in data.reads[rank::total]
                 for kmer in data.kmers_of_read(read)]
        for i, kmer in enumerate(kmers):
            spelling = mode if mode != "mixed" else MIXED[i % 2]
            if spelling == "async_rmw":
                futures.append((kmer, table.async_rmw(rank, kmer, 1)))
            elif spelling == "upsert_buffered":
                yield from table.upsert_buffered(rank, kmer, 1)
            else:
                new = yield from table.upsert(rank, kmer, 1)
                returned.setdefault(kmer, []).append(new)
        if not aggregation:
            # Without a coalescer a pipelined op is a plain async op, and
            # nothing orders a later read behind it: settle them first.
            yield from _settle(futures, returned)
        for kmer, n in own.items():
            value, found = yield from table.find(rank, kmer)
            assert found and value >= n, (rank, kmer, value, n)
        yield from table.flush(rank)
        yield from _settle(futures, returned)

    def read_back(rank):
        for kmer in mine(rank):
            seen[kmer] = yield from table.find(rank, kmer)

    hcl.run_ranks(count)
    if not read_cache:
        return _counts_of(table), None, returned
    hcl.run_ranks(read_back)
    return _counts_of(table), seen, returned


def _counts_of(table):
    """The histogram ``table``'s partitions hold."""
    return {k: v for part in table.partitions
            for k, v in part.structure.items()}


def _settle(futures, returned):
    """Generator: wait each ``(kmer, future)`` and record its value."""
    for kmer, fut in futures:
        if not fut.done:
            yield fut.wait()
        returned.setdefault(kmer, []).append(fut.result)
    futures.clear()


#: ``mixed`` alternates these two spellings, so one buffer holds plain
#: ops and pipelined ops with their futures side by side
MIXED = ("upsert_buffered", "async_rmw")

#: windows × read cache, pruned pairwise: each aggregation size takes two
#: of the four combinations and together they take all four, so every
#: pair of values of any two factors meets at some point
WINDOW_CACHE = {
    0: [(False, False), (True, True)],
    8: [(False, True), (True, False)],
    512: [(False, False), (True, True)],
    "auto": [(False, True), (True, False)],
}

KMER_POINTS = [
    pytest.param(aggregation, mode, window, read_cache,
                 id=f"{aggregation}-{mode}-{'win' if window else 'nowin'}-"
                    f"{'cache' if read_cache else 'nocache'}")
    for aggregation in AGGREGATIONS
    for mode in ("upsert", "upsert_buffered", "async_rmw", "mixed")
    for window, read_cache in WINDOW_CACHE[aggregation]
]


@pytest.mark.parametrize("aggregation,mode,window,read_cache", KMER_POINTS)
def test_kmer_histogram(genome, aggregation, mode, window, read_cache):
    counts, seen, returned = _count_kmers(genome, aggregation, mode, window,
                                          read_cache)
    exact = exact_kmer_counts(genome)
    assert counts == exact
    if read_cache:
        assert seen == {k: (c, True) for k, c in exact.items()}
    # Each read-modify-write saw a distinct predecessor: one key's returned
    # new values are distinct counts up to its final count — all of
    # ``1 .. count`` when every upsert of the key returned one.
    for kmer, values in returned.items():
        assert len(set(values)) == len(values), kmer
        assert set(values) <= set(range(1, exact[kmer] + 1)), kmer
    if mode in ("upsert", "async_rmw"):
        assert returned.keys() == exact.keys()
        assert all(len(returned[k]) == c for k, c in exact.items())


# -- contig generation ---------------------------------------------------------

@pytest.mark.parametrize("read_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("aggregation", [0, 16], ids=str)
def test_contig_set(genome, contig_reference, aggregation, read_cache):
    result = run_contig_generation("hcl", ares_like(**SPEC), genome,
                                   aggregation=aggregation,
                                   read_cache=read_cache)
    assert result.verified
    assert result.contigs == contig_reference


# -- ISx -------------------------------------------------------------------------

@pytest.mark.parametrize("aggregation", [0, 8, 512], ids=str)
def test_isx_verified(aggregation):
    result = run_isx("hcl", ares_like(**SPEC), keys_per_rank=64,
                     aggregation=aggregation)
    assert result.verified
    assert result.total_keys == 64 * SPEC["nodes"] * SPEC["procs_per_node"]


# -- both queue families ---------------------------------------------------------

ITEMS_PER_RANK = 12

QUEUE_POINTS = (
    [("queue", 0, push, pop)
     for push, pop in itertools.product(("push", "push_async"),
                                        ("pop", "pop_async", "pop_many"))]
    + [("priority_queue", aggregation, push, pop)
       for aggregation, push, pop in itertools.product(
           (0, 8), ("push", "push_async", "push_buffered"),
           ("pop", "pop_async", "pop_many"))
       if aggregation == 0 or push == "push_buffered"]
)


def _entry(family, rank, i):
    """Rank ``rank``'s ``i``-th item; priorities collide across ranks."""
    value = rank * 100 + i
    return (value,) if family == "queue" else ((i * 7) % 5, value)


def _popped_entry(family, item):
    return (item,) if family == "queue" else tuple(item)


def _drain(q, rank, pop, family):
    """Generator: pop ``q`` empty from ``rank`` with one pop spelling."""
    out = []
    while True:
        if pop == "pop_many":
            chunk = yield from q.pop_many(rank, 5)
            if not chunk:
                return out
            out.extend(_popped_entry(family, item) for item in chunk)
            continue
        if pop == "pop_async":
            fut = q.pop_async(rank)
            yield fut.wait()
            item, ok = fut.result
        else:
            item, ok = yield from q.pop(rank)
        if not ok:
            return out
        out.append(_popped_entry(family, item))


@pytest.mark.parametrize("family,aggregation,push,pop", QUEUE_POINTS,
                         ids=lambda p: str(p))
def test_queue_multiset(family, aggregation, push, pop):
    spec = ares_like(**SPEC)
    hcl = HCL(spec)
    q = getattr(hcl, family)("q", home_node=1, aggregation=aggregation)
    pushed = []

    def producer(rank):
        futures = []
        for i in range(ITEMS_PER_RANK):
            entry = _entry(family, rank, i)
            pushed.append(entry)
            if push == "push_async":
                futures.append(q.push_async(rank, *entry))
            else:
                ok = yield from getattr(q, push)(rank, *entry)
                assert ok in (True, None)
        yield from q.flush(rank)
        for fut in futures:
            yield fut.wait()
            assert fut.result is True

    hcl.run_ranks(producer)
    popped = []

    def consumer():
        assert (yield from q.size(0)) == len(pushed)
        popped.extend((yield from _drain(q, 0, pop, family)))

    proc = hcl.cluster.spawn(consumer(), name="consumer")
    hcl.cluster.run()
    proc.result
    assert Counter(popped) == Counter(pushed)
    if family == "priority_queue":
        priorities = [priority for priority, _value in popped]
        assert priorities == sorted(priorities)
