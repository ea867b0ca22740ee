"""Chaos soak: paper workloads under a seeded fault plan, with an
acked-write ledger.

The harness drives scaled-down versions of the Fig-7 application kernels
(ISx-style keyed inserts + contig-gen-style k-mer counting) against
replicated HCL maps while a :class:`~repro.fabric.faults.FaultInjector`
drops, delays and duplicates messages, crashes nodes and partitions the
switch.  Every write a rank process sees *acknowledged* is recorded; after
the storm the injector heals the cluster, queued write replays drain, and a
verification pass reads every acked key back from the (restored) primaries.

The invariant under test is the reliability contract of the RPC retry +
failover stack: **no acknowledged write is ever lost, and no retried or
duplicated mutation is applied twice** (counts stay exact up to operations
whose ack was lost, which are tracked separately as *indeterminate*).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.config import RetryPolicy, ares_like
from repro.core.runtime import HCL
from repro.fabric.faults import PLAN_NAMES, make_plan
from repro.fabric.topology import Cluster
from repro.harness.driver import Harness, flag, positive_float, run_rows
from repro.obs.registry import percentile_summary, registry_of

__all__ = ["run_chaos_soak", "SOAK_PLANS"]

#: plans the CI fault matrix runs (``calm`` is excluded: it injects nothing
#: by design, so the nonzero-faults assertion would reject it)
SOAK_PLANS = tuple(p for p in PLAN_NAMES if p != "calm")


def _soak_retry_policy() -> RetryPolicy:
    """A deliberately *modest* budget: enough retransmissions to ride out
    packet loss and short partitions, small enough that a crashed primary
    exhausts it and exercises the write-failover path."""
    return RetryPolicy(
        timeout=50e-6,
        max_retries=5,
        backoff_base=10e-6,
        backoff_factor=2.0,
        backoff_max=120e-6,
    )


def run_chaos_soak(
    plan: str = "mixed",
    seed: int = 0,
    nodes: int = 3,
    procs_per_node: int = 2,
    keys_per_rank: int = 24,
    kmers_per_rank: int = 16,
    horizon: float = 2e-3,
    retry: Optional[RetryPolicy] = None,
    aggregation: int = 0,
    instrument=None,
    windows=None,
) -> Dict:
    """Run one seeded chaos soak; returns the metrics/verdict report dict.

    ``report["ok"]`` is True iff no acked write was lost, no mutation was
    double-applied, every server was quiescent after the drain (no
    response slot held, no request in flight), and the injector actually
    injected something.

    ``aggregation`` > 0 routes the upsert phase through the transparent
    write-combining buffers (flushed at phase end) and enables the
    epoch-validated read cache on the counts map.  The ack ledger then
    tracks whole flushes: a clean flush acks every buffered increment, a
    flush that exhausts failover moves everything still unsettled to
    *indeterminate* (conservative — the verification ceiling absorbs it).
    The verification pass additionally re-reads every k-mer through the
    cache and cross-checks each result against the authoritative partition
    state, asserting that no cached read is ever stale.

    ``instrument`` is invoked with the :class:`HCL` runtime after the
    containers are built but before the storm — the attach point for
    :class:`~repro.obs.Instruments` (tracer, flight recorder, metrics).

    A truthy ``windows`` arms per-(node, partition) AIMD congestion
    windows (:mod:`repro.rpc.window`) on every client.  Under a fault
    storm the windows must *shrink* (multiplicative decrease on failures),
    never deadlock — the floor of 1 guarantees progress — and the
    exactly-once ledger checks are unchanged: no acked write may be lost.
    """
    import random

    spec = ares_like(nodes=nodes, procs_per_node=procs_per_node, seed=seed)
    spec = spec.scaled(
        cost=replace(spec.cost, retry=retry or _soak_retry_policy())
    )
    cluster = Cluster(spec)
    injector = cluster.install_faults(make_plan(plan, nodes, horizon=horizon))
    h = HCL(cluster, window=windows)
    keys = h.unordered_map("soak_keys", replication=1, write_failover=True)
    counts = h.unordered_map(
        "soak_counts", replication=1, write_failover=True,
        aggregation=aggregation, read_cache=bool(aggregation),
    )
    if instrument is not None:
        instrument(h)

    nranks = spec.total_procs
    #: (rank, i) -> bucket value, recorded only after the insert's ack
    acked_inserts: Dict = {}
    failed_writes = [0]
    #: kmer -> number of *acknowledged* upserts
    acked_counts: Dict[str, int] = {}
    #: kmer -> upserts whose ack was lost (may or may not have applied)
    indeterminate: Dict[str, int] = {}
    kmer_space = max(8, nranks * kmers_per_rank // 4)  # force collisions

    def rank_body(rank: int):
        rng = random.Random((seed << 16) ^ rank)
        # -- phase 1: ISx-style keyed inserts (idempotent payloads) --------
        for i in range(keys_per_rank):
            bucket = rng.randrange(1 << 20)
            try:
                yield from keys.insert(rank, (rank, i), bucket)
            except ConnectionError:
                failed_writes[0] += 1
                continue
            acked_inserts[(rank, i)] = bucket
        # -- phase 2: contig-gen-style k-mer counting (upserts) ------------
        pending: Dict[str, int] = {}

        def settle(ok: bool) -> None:
            ledger = acked_counts if ok else indeterminate
            for k, n in pending.items():
                ledger[k] = ledger.get(k, 0) + n
            pending.clear()

        for _ in range(kmers_per_rank):
            kmer = f"k{rng.randrange(kmer_space)}"
            if aggregation:
                # Buffered increments stay *pending* until their flush is
                # acknowledged; the commutative delta makes the batched
                # apply order irrelevant.
                yield from counts.upsert_buffered(rank, kmer, 1)
                pending[kmer] = pending.get(kmer, 0) + 1
                continue
            try:
                yield from counts.upsert(rank, kmer, 1)
            except ConnectionError:
                # The ack was lost: the increment may or may not have
                # landed.  Exactly-once is only claimed for *acked* writes.
                indeterminate[kmer] = indeterminate.get(kmer, 0) + 1
                failed_writes[0] += 1
                continue
            acked_counts[kmer] = acked_counts.get(kmer, 0) + 1
        if aggregation:
            # Drain the buffers.  A failed flush batch may or may not have
            # applied (it can ack at the primary and lose the reply, or
            # land on a replica mid-failover) — conservatively demote every
            # unsettled increment to indeterminate and keep draining the
            # remaining in-flight flushes.
            for _attempt in range(8):
                try:
                    yield from counts.flush(rank)
                except ConnectionError:
                    failed_writes[0] += 1
                    settle(False)
                    continue
                settle(True)
                break
            else:
                settle(False)

    h.run_ranks(rank_body, ranks=range(nranks))
    storm_time = h.now

    # After the storm: restore every node (firing replay hooks) and let the
    # queued write replays drain onto the restarted primaries.
    injector.heal()
    cluster.run()
    # Every invocation has settled, so no server may still hold a response
    # slot or a request in flight.
    quiescent = all(server.idle() for server in h._servers.values())

    # -- verification pass: read every acked key back from the primary -----
    lost = []
    overcounted = []
    verified = [0]
    stale_reads = []

    def authoritative(kmer):
        """Ground truth straight out of the owning partition's structure."""
        value, found, _stats = counts.partition_for(kmer).structure.find(kmer)
        return (value if found else None, bool(found))

    def verify_body(rank: int):
        for key, expect in sorted(acked_inserts.items()):
            value, found = yield from keys.find(rank, key)
            if not found or value != expect:
                lost.append(["insert", list(key), expect,
                             value if found else None])
            verified[0] += 1
        for kmer in sorted(set(acked_counts) | set(indeterminate)):
            value, found = yield from counts.find(rank, kmer)
            have = value if found else 0
            floor = acked_counts.get(kmer, 0)
            ceiling = floor + indeterminate.get(kmer, 0)
            if have < floor:
                lost.append(["upsert", kmer, floor, have])
            elif have > ceiling:
                overcounted.append(["upsert", kmer, ceiling, have])
            verified[0] += 1
            if counts._cache is not None:
                # Never-stale contract: the first find above primed the
                # epoch-validated cache; a repeat read (cache-hit eligible)
                # must still agree with the partition's own state.
                again = yield from counts.find(rank, kmer)
                truth = authoritative(kmer)
                if again != truth:
                    stale_reads.append([kmer, list(again), list(truth)])

    h.run_ranks(verify_body, ranks=range(1))

    # The per-client / per-server counters all live in the simulator's
    # metrics registry now; the fleet rollups below are registry sums, so
    # the report sees exactly what any other observability consumer sees.
    metrics = registry_of(h.sim)
    acked_total = len(acked_inserts) + sum(acked_counts.values())
    cwnd_final = {}
    if windows:
        for client in h._clients.values():
            if client.windows is not None:
                cwnd_final.update(client.windows.snapshot())
    report = {
        "plan": plan,
        "seed": seed,
        "nodes": nodes,
        "procs_per_node": procs_per_node,
        "windows": bool(windows),
        "window_stalls": int(metrics.counter("rpc/window_stalls").value),
        "window_sheds": int(metrics.counter("rpc/window_sheds").value),
        "cwnd_final": cwnd_final,
        "cwnd_min_final": min(cwnd_final.values()) if cwnd_final else None,
        "sim_time_storm": storm_time,
        "sim_time_total": h.now,
        "injected": injector.counters(),
        "injected_total": injector.injected_total(),
        "rpc": {
            "invocations": int(metrics.sum_matching("/invocations", "rpcc")),
            "retries": int(metrics.sum_matching("/retries", "rpcc")),
            "timeouts": int(metrics.sum_matching("/timeouts", "rpcc")),
            "exhausted": int(metrics.sum_matching("/exhausted", "rpcc")),
            "duplicates_suppressed": int(
                metrics.sum_matching("/dups_suppressed", "rpc")
            ),
            # Cluster-wide client latency distribution: the per-node
            # rpcc*/latency fleet folded through the shared quantile path.
            "latency": percentile_summary(
                metrics.merged_histogram("/latency", "rpcc")
            ),
        },
        "failover": {
            "reads": int(keys.failover_reads.value
                         + counts.failover_reads.value),
            "writes": int(keys.failover_writes.value
                          + counts.failover_writes.value),
            "replayed": int(keys.replayed_writes.value
                            + counts.replayed_writes.value),
        },
        "acked_writes": acked_total,
        "failed_writes": failed_writes[0],
        "indeterminate_writes": int(sum(indeterminate.values())),
        "verified_reads": verified[0],
        "lost_acked_writes": len(lost),
        "duplicate_mutations": len(overcounted),
        "lost_detail": lost[:16],
        "overcount_detail": overcounted[:16],
        "aggregation": counts.aggregation_report() if aggregation else None,
        "stale_cached_reads": len(stale_reads),
        "stale_detail": stale_reads[:16],
        # Deterministic registry snapshot: every hidden counter the soak
        # touched (fault injections, per-node RPC fleets, per-container
        # failover/replay/coalescer activity, switch transits).
        "metrics": metrics.snapshot(
            prefixes=("faults", "rpc", "soak_counts", "soak_keys", "switch")
        ),
    }
    report["ok"] = (
        not lost
        and not overcounted
        and not stale_reads
        and quiescent
        and acked_total > 0
        # the calm plan is the armed-but-quiet control: zero injections is
        # its expected outcome, not a failed experiment
        and (plan == "calm" or report["injected_total"] > 0)
    )
    h.close()
    return report


def render_report(report: Dict) -> str:
    """One-paragraph human summary of a soak report."""
    inj = report["injected"]
    lines = [
        f"chaos-soak plan={report['plan']} seed={report['seed']} "
        f"nodes={report['nodes']}x{report['procs_per_node']}",
        f"  injected: {report['injected_total']} "
        f"(drops={inj['drops']} dups={inj['dups']} delays={inj['delays']} "
        f"crashes={inj['crashes']} partition_drops={inj['partition_drops']})",
        f"  rpc: {report['rpc']['invocations']} invocations, "
        f"{report['rpc']['retries']} retries, "
        f"{report['rpc']['exhausted']} exhausted, "
        f"{report['rpc']['duplicates_suppressed']} duplicates suppressed",
        f"  failover: {report['failover']['writes']} writes, "
        f"{report['failover']['reads']} reads, "
        f"{report['failover']['replayed']} replayed",
        f"  writes: {report['acked_writes']} acked, "
        f"{report['failed_writes']} failed, "
        f"{report['indeterminate_writes']} indeterminate",
        f"  verdict: lost_acked={report['lost_acked_writes']} "
        f"double_applied={report['duplicate_mutations']} "
        f"stale_cached={report.get('stale_cached_reads', 0)} "
        f"=> {'OK' if report['ok'] else 'FAIL'}",
    ]
    agg = report.get("aggregation")
    if agg:
        lines.insert(-1, (
            f"  aggregation: {agg['aggregation']['flushes']} flushes, "
            f"{agg['aggregation']['flushed_ops']} ops coalesced, "
            f"cache hits={agg['read_cache']['hits']}"
        ))
    metrics = report.get("metrics")
    if metrics:
        lines.insert(-1, (
            f"  registry: {len(metrics)} series "
            f"(switch transits={int(metrics.get('switch/transits', 0))}, "
            f"node restarts={int(metrics.get('faults/restarts', 0))})"
        ))
    return "\n".join(lines)


HARNESS = Harness(
    name="chaos-soak",
    help="fault-injection soak: paper workloads under a chaos plan, "
         "asserting no acked write is lost",
    stem="chaos",
    shared=dict(nodes=3, procs=2, emit="chaos_soak.json"),
    flags=(
        flag("--plans", nargs="+", choices=list(PLAN_NAMES),
             default=["mixed"], help="fault plans to run"),
        flag("--seed", type=int, default=0),
        flag("--keys", type=int, default=24,
             help="ISx-style inserts per rank"),
        flag("--kmers", type=int, default=16, help="k-mer upserts per rank"),
        flag("--horizon", type=positive_float, default=2e-3,
             help="sim-time horizon the fault windows scale to (s)"),
        flag("--aggregation", type=int, default=0,
             help="run upserts through N-op write-combining buffers and "
                  "the read cache, asserting never-stale reads"),
        flag("--windows", action="store_true",
             help="arm per-(node, partition) AIMD congestion windows on "
                  "every client; the report asserts they shrink under "
                  "faults without losing acked writes"),
    ),
    # one row per fault plan, labelled by it
    run=lambda a, instrument: run_rows(
        [(plan, plan) for plan in a.plans],
        lambda plan, hook: run_chaos_soak(
            plan=plan, seed=a.seed, nodes=a.nodes, procs_per_node=a.procs,
            keys_per_rank=a.keys, kmers_per_rank=a.kmers, horizon=a.horizon,
            aggregation=a.aggregation, windows=a.windows, instrument=hook),
        instrument,
    ),
    render=lambda reports, a: "\n".join(map(render_report, reports)),
    emit=lambda reports: {r["plan"]: r for r in reports},
    # The verdict is the point of a soak: enforced without a --check flag.
    check=lambda reports, a: [
        f"plan {r['plan']}: lost_acked={r['lost_acked_writes']} "
        f"double_applied={r['duplicate_mutations']} "
        f"stale_cached={r['stale_cached_reads']} "
        f"injected={r['injected_total']}"
        for r in reports if not r["ok"]],
    gate=(),
    flight_interval=1e-4,
    flight_select=("faults/", "rpc/", "/ops", "rpcc*"),
    pid_stride=0,   # every plan's Chrome trace keeps its node-id pids
)
