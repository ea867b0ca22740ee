"""Ablations — quantify each design choice DESIGN.md calls out.

Not a paper figure: these isolate the *mechanisms* behind the headline
numbers so the reproduction is explainable rather than just matching.
CI's ``paper-figures`` job runs them next to the figure benches.

1. hybrid local bypass on/off        (drives Fig 5a)
2. request aggregation batch size    (RoR innovation #1)
3. NIC core count sweep              (the offload resource)
4. replication factor 0/1/2          (durability cost)
5. persistence strict/relaxed/off    (DataBox persistency)
6. switch oversubscription           (all-to-all container traffic)
7. concurrency control level         (tunable atomicity)
8. re-balancing to one more partition (BCL limitation (e))
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.conftest import run_once
from repro.config import KB, ares_like
from repro.core import HCL
from repro.harness import Blob, render_table

PROCS = 8
OPS = 64
SIZE = 4 * KB


def _insert_workload(hcl, container, payload=None):
    blob = payload if payload is not None else Blob(SIZE)

    def body(rank):
        for i in range(OPS):
            yield from container.insert(rank, (rank, i), blob)

    hcl.run_ranks(body)
    return hcl.now


@pytest.mark.benchmark(group="ablations")
def test_ablation_hybrid_bypass(benchmark, report):
    """Local ops with the bypass vs the same ops forced through the RPC."""

    def run():
        spec = ares_like(nodes=1, procs_per_node=PROCS)
        hcl = HCL(spec)
        m = hcl.unordered_map("m", partitions=1, nodes=[0],
                              initial_buckets=8 * PROCS * OPS)
        t_bypass = _insert_workload(hcl, m)

        hcl2 = HCL(spec)
        m2 = hcl2.unordered_map("m", partitions=1, nodes=[0],
                                initial_buckets=8 * PROCS * OPS)
        # Force the RPC path for co-located ops.
        original = m2._execute

        def forced(rank, part, op, args, payload_bytes):
            client = hcl2.client(0)
            result = yield from client.call(
                0, f"{m2.name}.{op}", (part.index, *args),
                payload_size=payload_bytes,
            )
            return result

        m2._execute = forced
        t_rpc = _insert_workload(hcl2, m2)
        return t_bypass, t_rpc

    t_bypass, t_rpc = run_once(benchmark, run)
    report(render_table(
        "Ablation 1 — hybrid local bypass",
        ["variant", "time (s)", "speedup"],
        [["shared-memory bypass", t_bypass, t_rpc / t_bypass],
         ["forced RPC loopback", t_rpc, 1.0]],
    ))
    assert t_bypass < 0.5 * t_rpc  # the bypass is the Fig 5a mechanism


@pytest.mark.benchmark(group="ablations")
def test_ablation_request_aggregation(benchmark, report):
    """Batch de-marshalling on the NIC amortizes dispatch overhead."""

    def run_one(batch):
        # Dispatch-bound regime: one NIC core, small ops — where batch
        # de-marshalling pays off (with 4 idle cores and 4KB wire times the
        # dispatch is not the bottleneck and aggregation is a wash).
        spec = ares_like(nodes=2, procs_per_node=PROCS)
        spec = spec.scaled(cost=replace(spec.cost, nic_cores=1))
        hcl = HCL(spec, rpc_batch_size=batch)
        m = hcl.unordered_map("m", partitions=1, nodes=[1],
                              initial_buckets=8 * PROCS * OPS)

        def body(rank):
            futures = [m.insert_async(rank, (rank, i), Blob(256))
                       for i in range(OPS)]
            for fut in futures:
                yield fut.wait()

        hcl.run_ranks(body)
        return hcl.now

    def run():
        return {batch: run_one(batch) for batch in (1, 4, 16)}

    times = run_once(benchmark, run)
    report(render_table(
        "Ablation 2 — request aggregation (async flood workload)",
        ["batch size", "time (s)", "vs batch=1"],
        [[b, t, times[1] / t] for b, t in sorted(times.items())],
    ))
    assert times[16] < times[1]  # aggregation helps under load


@pytest.mark.benchmark(group="ablations")
def test_ablation_nic_cores(benchmark, report):
    """More NIC cores serve the RoR work queue faster — up to other limits."""

    def run_one(cores):
        spec = ares_like(nodes=2, procs_per_node=PROCS)
        spec = spec.scaled(cost=replace(spec.cost, nic_cores=cores))
        hcl = HCL(spec)
        m = hcl.unordered_map("m", partitions=1, nodes=[1],
                              initial_buckets=8 * PROCS * OPS)

        def body(rank):
            futures = [m.insert_async(rank, (rank, i), Blob(SIZE))
                       for i in range(OPS)]
            for fut in futures:
                yield fut.wait()

        hcl.run_ranks(body)
        return hcl.now

    def run():
        return {c: run_one(c) for c in (1, 2, 4, 8)}

    times = run_once(benchmark, run)
    report(render_table(
        "Ablation 3 — NIC core count",
        ["nic cores", "time (s)", "vs 1 core"],
        [[c, t, times[1] / t] for c, t in sorted(times.items())],
    ))
    assert times[4] < times[1]
    # Diminishing returns once another resource (wire) dominates.
    assert times[8] > 0.5 * times[4]


@pytest.mark.benchmark(group="ablations")
def test_ablation_replication(benchmark, report):
    """Asynchronous replication: modest caller cost, real copies."""

    def run_one(replication):
        spec = ares_like(nodes=4, procs_per_node=4)
        hcl = HCL(spec)
        m = hcl.unordered_map("m", partitions=4, replication=replication,
                              initial_buckets=4096)
        t = _insert_workload(hcl, m)
        copies = sum(len(p.structure) for p in m.partitions)
        return t, copies

    def run():
        return {r: run_one(r) for r in (0, 1, 2)}

    results = run_once(benchmark, run)
    base_entries = 4 * 4 * OPS
    report(render_table(
        "Ablation 4 — replication factor",
        ["replicas", "time (s)", "slowdown", "stored copies"],
        [[r, t, t / results[0][0], c] for r, (t, c) in sorted(results.items())],
    ))
    assert results[1][1] >= 2 * base_entries * 0.9  # copies actually exist
    assert results[2][1] > results[1][1]
    # Async replication: overhead well under the 2x of synchronous copies.
    assert results[1][0] < 1.5 * results[0][0]


@pytest.mark.benchmark(group="ablations")
def test_ablation_persistence_modes(benchmark, report, tmp_path):
    def run():
        times = {}
        for mode in ("off", "strict", "relaxed"):
            spec = ares_like(nodes=2, procs_per_node=4)
            hcl = HCL(spec, persist_dir=str(tmp_path / mode))
            m = hcl.unordered_map(
                "m", partitions=2,
                persistence=(mode != "off"),
                relaxed_persistence=(mode == "relaxed"),
                initial_buckets=4096,
            )
            times[mode] = _insert_workload(hcl, m)
            m.close()
        return times

    times = run_once(benchmark, run)
    report(render_table(
        "Ablation 5 — DataBox persistence",
        ["mode", "time (s)", "vs off"],
        [[m, t, t / times["off"]] for m, t in times.items()],
    ))
    assert times["off"] <= times["relaxed"] <= times["strict"]
    assert times["strict"] > 1.02 * times["off"]  # the msync shows up


@pytest.mark.benchmark(group="ablations")
def test_ablation_switch_oversubscription(benchmark, report):
    """Backplane oversubscription degrades all-to-all container traffic."""
    from repro.fabric import Cluster

    def run_one(oversub):
        spec = ares_like(nodes=4, procs_per_node=PROCS)
        cluster = Cluster(spec, oversubscription=oversub)
        hcl = HCL(cluster)
        m = hcl.unordered_map("m", partitions=4,
                              initial_buckets=8 * PROCS * OPS)

        def body(rank):
            for i in range(OPS):
                yield from m.insert(rank, (rank, i), Blob(16 * KB))

        hcl.run_ranks(body)
        return hcl.now

    def run():
        return {o: run_one(o) for o in (1.0, 2.0, 4.0)}

    times = run_once(benchmark, run)
    report(render_table(
        "Ablation 6 — switch oversubscription (4-node all-to-all inserts)",
        ["oversubscription", "time (s)", "vs 1:1"],
        [[o, t, t / times[1.0]] for o, t in sorted(times.items())],
    ))
    assert times[4.0] > times[2.0] >= times[1.0]


@pytest.mark.benchmark(group="ablations")
def test_ablation_concurrency_control(benchmark, report):
    """Atomicity tuning: mutex-per-partition vs lock-free structures."""

    def run_one(concurrency):
        spec = ares_like(nodes=2, procs_per_node=PROCS)
        hcl = HCL(spec)
        m = hcl.unordered_map("m", partitions=1, nodes=[1],
                              concurrency=concurrency,
                              initial_buckets=8 * PROCS * OPS)

        def body(rank):
            futures = [m.insert_async(rank, (rank, i), Blob(1024))
                       for i in range(OPS)]
            for fut in futures:
                yield fut.wait()

        hcl.run_ranks(body)
        return hcl.now

    def run():
        return {c: run_one(c) for c in ("lockfree", "mutex")}

    times = run_once(benchmark, run)
    report(render_table(
        "Ablation 7 — concurrency control (contended async inserts)",
        ["level", "time (s)", "vs lockfree"],
        [[c, t, t / times["lockfree"]] for c, t in times.items()],
    ))
    assert times["mutex"] > times["lockfree"]


@pytest.mark.benchmark(group="ablations")
def test_ablation_rebalancing_cost(benchmark, report):
    """Limitation (e): growing a BCL deployment means agreeing on a new
    static layout and re-inserting *everything* behind a barrier; HCL's
    dynamic partition addition migrates only the keys whose first-level
    hash moved (~1/(n+1) of them), with no global synchronization."""
    from repro.bcl import BCL

    ENTRIES = 256

    def run():
        # --- HCL: add one partition to a live container ----------------
        spec = ares_like(nodes=4, procs_per_node=4)
        hcl = HCL(spec)
        m = hcl.unordered_map("m", partitions=3, initial_buckets=4096)

        def fill(rank):
            for i in range(ENTRIES // spec.total_procs):
                yield from m.insert(rank, (rank, i), Blob(1024))

        hcl.run_ranks(fill)
        t0 = hcl.now

        def grow(rank):
            return (yield from m.add_partition(rank, node_id=3))

        proc = hcl.cluster.spawn(grow(0))
        hcl.cluster.run()
        moved = proc.result
        hcl_time = hcl.now - t0

        # --- BCL: clients agree on a new static layout and re-insert ---
        bcl = BCL(spec)
        old = bcl.hashmap("old", capacity_per_partition=2 * ENTRIES,
                          entry_size=1024, partitions=3, inflight_slots=16)
        new = bcl.hashmap("new", capacity_per_partition=2 * ENTRIES,
                          entry_size=1024, partitions=4, inflight_slots=16)

        def bcl_fill(rank):
            for i in range(ENTRIES // spec.total_procs):
                yield from old.insert(rank, (rank, i), Blob(1024))

        bcl.run_ranks(bcl_fill)
        t0 = bcl.sim.now
        barrier = bcl.barrier()

        def bcl_rehash(rank):
            # All-to-all synchronization, then every client re-inserts its
            # share of the entries into the new layout.
            yield barrier.wait()
            for i in range(ENTRIES // spec.total_procs):
                value, found = yield from old.find(rank, (rank, i))
                assert found
                yield from new.insert(rank, (rank, i), value)
            yield barrier.wait()

        bcl.run_ranks(bcl_rehash)
        bcl_time = bcl.sim.now - t0
        return hcl_time, bcl_time, moved

    hcl_time, bcl_time, moved = run_once(benchmark, run)
    report(render_table(
        "Ablation 8 — re-balancing to one more partition "
        f"({ENTRIES} entries; HCL migrated only {moved})",
        ["approach", "time (s)", "entries moved"],
        [["HCL add_partition (localized)", hcl_time, moved],
         ["BCL re-layout (all-to-all + full reinsert)", bcl_time, ENTRIES]],
    ))
    assert moved < ENTRIES / 2  # only the rehashed fraction moves
    assert hcl_time < bcl_time
