"""Distributed breadth-first search — the irregular-application archetype.

The paper's opening sentence: "Applications that include complex data
distribution and irregular control flows are extremely complex to write" —
graph traversal is the canonical example.  This kernel runs a
level-synchronous BFS where:

* the adjacency lists live in a distributed hash map (vertex -> neighbors),
  partitioned by vertex id;
* the visited/distance table is a second hash map, updated with
  ``upsert``-style conditional inserts executed at the owner (HCL) or
  CAS-locked client-side updates (BCL);
* each rank expands its share of the current frontier, batching neighbor
  lookups; a barrier separates levels.

Verification: distances equal ``networkx.single_source_shortest_path_length``
on the same graph, for every reachable vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import networkx as nx

from repro.bcl import BCL
from repro.config import ClusterSpec
from repro.core import HCL, Collectives

__all__ = ["BfsResult", "make_graph", "run_bfs"]


@dataclass
class BfsResult:
    backend: str
    vertices: int
    edges: int
    levels: int
    reached: int
    time_seconds: float
    verified: bool


def make_graph(vertices: int = 200, avg_degree: float = 4.0,
               seed: int = 0) -> nx.Graph:
    """A connected-ish random graph (Erdos-Renyi with a path backbone)."""
    p = min(1.0, avg_degree / max(1, vertices - 1))
    g = nx.gnp_random_graph(vertices, p, seed=seed)
    # Backbone keeps the graph mostly connected so BFS has real depth.
    for u in range(0, vertices - 1, 7):
        g.add_edge(u, u + 1)
    return g


def _reference(graph: nx.Graph, source: int) -> Dict[int, int]:
    return dict(nx.single_source_shortest_path_length(graph, source))


def run_bfs(backend: str, spec: ClusterSpec, graph: nx.Graph,
            source: int = 0, aggregation: int = 0,
            read_cache: bool = False) -> BfsResult:
    """Run level-synchronous BFS.

    HCL-only knobs: ``aggregation`` write-combines the adjacency-load
    phase; ``read_cache`` caches the (read-only after load) adjacency
    lists, so frontier expansions re-reading a vertex skip the wire.
    """
    if backend == "hcl":
        return _run_hcl(spec, graph, source, aggregation, read_cache)
    if backend == "bcl":
        return _run_bcl(spec, graph, source)
    raise ValueError(f"unknown backend {backend!r}")


def _load_phase_items(graph: nx.Graph, rank: int, total: int):
    nodes = sorted(graph.nodes())
    for v in nodes[rank::total]:
        yield v, sorted(graph.neighbors(v))


def _run_hcl(spec: ClusterSpec, graph: nx.Graph, source: int,
             aggregation: int = 0, read_cache: bool = False) -> BfsResult:
    hcl = HCL(spec)
    adj = hcl.unordered_map("bfs.adj", initial_buckets=4096,
                            aggregation=aggregation, read_cache=read_cache)
    dist = hcl.unordered_map("bfs.dist", initial_buckets=4096)
    coll = Collectives(hcl)
    total = spec.total_procs
    levels_box = {"levels": 0}

    def body(rank):
        # Phase 1: load adjacency — through the write buffers when
        # aggregation is on (flushed by the barrier), else batched per
        # partition by the app.
        if aggregation:
            for v, neighbors in _load_phase_items(graph, rank, total):
                yield from adj.insert_buffered(rank, v, neighbors)
        else:
            ops = [("insert", v, neighbors)
                   for v, neighbors in _load_phase_items(graph, rank, total)]
            if ops:
                yield from adj.batch(rank, ops)
        yield from coll.barrier(rank)
        # Phase 2: level-synchronous expansion.
        if rank == 0:
            yield from dist.insert(rank, source, 0)
        frontier = [source]  # every rank sees the same frontier list
        level = 0
        while True:
            mine = frontier[rank::total]  # block-cyclic frontier split
            discovered: List[int] = []
            if mine:
                neighbor_lists = yield from adj.batch(
                    rank, [("find", v) for v in mine]
                )
                candidates = sorted({
                    n
                    for lst, found in neighbor_lists if found
                    for n in lst
                })
                if candidates:
                    settled = yield from dist.batch(
                        rank, [("find", n) for n in candidates]
                    )
                    fresh = [n for n, (_d, found) in zip(candidates, settled)
                             if not found]
                    if fresh:
                        yield from dist.batch(
                            rank,
                            [("insert", n, level + 1) for n in fresh],
                        )
                        discovered = fresh
            merged = yield from coll.all_gather(rank, discovered)
            nxt = sorted({v for chunk in merged for v in chunk})
            if not nxt:
                break
            frontier = nxt
            level += 1
        if rank == 0:
            levels_box["levels"] = level
        yield from coll.barrier(rank)

    hcl.run_ranks(body)
    distances = {
        k: v for part in dist.partitions for k, v in part.structure.items()
    }
    expected = _reference(graph, source)
    return BfsResult(
        "hcl", graph.number_of_nodes(), graph.number_of_edges(),
        levels_box["levels"], len(distances), hcl.now,
        distances == expected,
    )


def _run_bcl(spec: ClusterSpec, graph: nx.Graph, source: int) -> BfsResult:
    bcl = BCL(spec)
    nverts = graph.number_of_nodes()
    adj = bcl.hashmap("bfs.adj", capacity_per_partition=4 * nverts,
                      entry_size=256, inflight_slots=32)
    dist = bcl.hashmap("bfs.dist", capacity_per_partition=4 * nverts,
                       entry_size=64, inflight_slots=32)
    barrier = bcl.barrier()
    total = spec.total_procs
    results: Dict[int, List[int]] = {}

    def body(rank):
        for v, neighbors in _load_phase_items(graph, rank, total):
            yield from adj.insert(rank, v, neighbors)
        yield barrier.wait()
        if rank == 0:
            yield from dist.insert(rank, source, 0)
        yield barrier.wait()
        frontier = [source]
        level = 0
        while True:
            mine = frontier[rank::total]
            discovered: List[int] = []
            for v in mine:
                neighbors, found = yield from adj.find(rank, v)
                if not found:
                    continue
                for n in neighbors:
                    # Client-side conditional insert: CAS-locked RMW keeps
                    # the first writer's distance.
                    value = yield from dist.atomic_update(
                        rank, n,
                        lambda d, lvl=level + 1: d if d is not None else lvl,
                        initial=None,
                    )
                    if value == level + 1:
                        discovered.append(n)
            results[(rank, level)] = discovered
            yield barrier.wait()
            merged = sorted({
                v
                for r in range(total)
                for v in results.get((r, level), [])
            })
            yield barrier.wait()
            if not merged:
                break
            frontier = merged
            level += 1
        return level

    procs = bcl.run_ranks(body)
    levels = max(p.result for p in procs)
    distances = dict(dist.stored_items())
    expected = _reference(graph, source)
    return BfsResult(
        "bcl", graph.number_of_nodes(), graph.number_of_edges(),
        levels, len(distances), bcl.sim.now,
        distances == expected,
    )
