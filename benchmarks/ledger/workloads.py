"""The six ledger workloads.

Each workload is a fixed list of *rows*; a row builds its cluster and
containers, runs one deterministic simulation through a public entry
point and checks its own output.  Every workload-shape parameter is
passed explicitly; implementation switches (``scheduler=``, ``pooling=``,
``batch_charge=``, ``sim_only=``) stay at their defaults so a later change
may delete them without touching this file.

Sizes are chosen so a row takes 0.1-1 s of host time on the reference
box: a run then holds many calibrated repetitions, which is what keeps
the medians steady (README, "Sizes").
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.harness.serving as serving
from repro.apps import (
    run_contig_generation,
    run_isx,
    run_kmer_counting,
    synthesize_genome,
)
from repro.bcl import BCL
from repro.config import KB, ares_like
from repro.core import HCL
from repro.harness import Blob, key_stream
from repro.simnet import Simulator

from benchmarks.ledger.stats import nearest_rank

__all__ = ["RowResult", "Workload", "WORKLOADS", "PAPER_INSERT_RATIO",
           "PAPER_FIND_RATIO"]

#: Fig 6a of the paper: BCL::unordered_map is 9.1x slower than
#: HCL::unordered_map on inserts and 4.5x on finds (EXPERIMENTS.md).
PAPER_INSERT_RATIO = 9.1
PAPER_FIND_RATIO = 4.5

Attach = Callable[[Any], None]


@dataclass
class RowResult:
    """What one row of one repetition did."""

    ops: int  # application operations attempted
    sim_s: float  # simulated seconds the row took
    failed: int = 0  # verification failures + errors
    refused: int = 0  # operations shed by admission control
    facts: Dict[str, Any] = field(default_factory=dict)
    #: client-visible latency samples (simulated s); rows that cannot
    #: list them leave None and the runner fills in the captured ones
    latency_s: Optional[List[float]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int], Any]  # seed -> inputs (counted as set-up)
    rows: Tuple[Tuple[str, Callable[[Any, Attach], RowResult]], ...]
    #: rows (with latency samples) -> this workload's simulated metrics
    summarize: Callable[[Dict[str, RowResult]], Dict[str, float]]
    #: histogram the client-visible latency samples are captured from
    latency_source: str = "rpcc"
    #: rows -> ops that fail a check spanning several rows
    cross_check: Callable[[Dict[str, RowResult]], int] = lambda rows: 0
    #: (metric, thunk) pairs timed from outside, once per run
    probes: Tuple[Tuple[str, Callable[[], Any]], ...] = ()


def _latency_metrics(samples: List[float]) -> Dict[str, float]:
    return {
        "sim_p50_us": nearest_rank(samples, 0.50) * 1e6,
        "sim_p99_us": nearest_rank(samples, 0.99) * 1e6,
        "sim_latency_samples": float(len(samples)),
    }


def _pooled_latency(rows: Dict[str, RowResult], names) -> List[float]:
    return [s for name in names for s in (rows[name].latency_s or [])]


def _throughput(rows: Dict[str, RowResult]) -> float:
    """Total ops over total simulated seconds across the rows."""
    return (sum(r.ops for r in rows.values())
            / sum(r.sim_s for r in rows.values()))


# -- kernel_timeouts ----------------------------------------------------------

KERNEL_PROCS = 500
KERNEL_TIMEOUTS = 1000


def _kernel_inputs(seed: int) -> List[float]:
    # Per-process periods just above 1 us.  Equal periods would keep every
    # event in the kernel's near lane and never reach the far-lane
    # scheduler (calendar refills: 0), which no real workload does.
    rng = random.Random(seed)
    return [1e-6 * (1.0 + 0.1 * rng.random()) for _ in range(KERNEL_PROCS)]


def _row_kernel(delays: List[float], attach: Attach) -> RowResult:
    sim = Simulator()
    attach(sim)

    def worker(delay):
        timeout = sim.timeout
        for _ in range(KERNEL_TIMEOUTS):
            yield timeout(delay)

    procs = [sim.process(worker(delay)) for delay in delays]
    sim.run()
    events = sim.kernel_stats()["events_processed"]
    # Each process retires its start event, its timeouts and its own
    # completion event.
    expected = KERNEL_PROCS * (KERNEL_TIMEOUTS + 2)
    unfinished = sum(1 for p in procs if not p.done)
    return RowResult(
        ops=events, sim_s=sim.now,
        failed=abs(events - expected) + unfinished,
        latency_s=list(delays),  # every timeout of a process waits the same
    )


def _sum_kernel(rows: Dict[str, RowResult]) -> Dict[str, float]:
    row = rows["kernel"]
    return {"sim_ops_per_s": row.ops / row.sim_s,
            **_latency_metrics(row.latency_s)}


# -- fig6_bulk_64k ------------------------------------------------------------

FIG6_NODES = 8
FIG6_PROCS = 6
FIG6_PARTITIONS = 8
FIG6_OPS = 48  # inserts, then finds, per rank
FIG6_BYTES = 64 * KB


def _fig6_inputs(seed: int) -> Dict[str, Any]:
    spec = ares_like(nodes=FIG6_NODES, procs_per_node=FIG6_PROCS, seed=seed)
    keys = [list(key_stream(rank, FIG6_OPS, seed=seed))
            for rank in range(spec.total_procs)]
    return {"spec": spec, "keys": keys, "blob": Blob(FIG6_BYTES)}


def _fig6_bodies(container, keys, blob, wrong: List[int]):
    def insert_body(rank):
        for key in keys[rank]:
            yield from container.insert(rank, key, blob)

    def find_body(rank):
        for key in keys[rank]:
            value, found = yield from container.find(rank, key)
            if not found or value != blob:
                wrong[0] += 1

    return insert_body, find_body


def _row_fig6_hcl(ordered: bool):
    def row(inputs, attach: Attach) -> RowResult:
        spec, keys, blob = inputs["spec"], inputs["keys"], inputs["blob"]
        hcl = HCL(spec)
        if ordered:
            container = hcl.map(
                "c", partitions=FIG6_PARTITIONS,
                partitioner=lambda k, n: k * n // (1 << 30))
        else:
            container = hcl.unordered_map(
                "c", partitions=FIG6_PARTITIONS,
                initial_buckets=8 * FIG6_PROCS * FIG6_OPS)
        attach(hcl)
        wrong = [0]
        insert_body, find_body = _fig6_bodies(container, keys, blob, wrong)
        hcl.run_ranks(insert_body)
        t_insert = hcl.now
        hcl.run_ranks(find_body)
        per_phase = spec.total_procs * FIG6_OPS
        return RowResult(
            ops=2 * per_phase, sim_s=hcl.now, failed=wrong[0],
            facts={"t_insert": t_insert, "t_find": hcl.now - t_insert,
                   "ops_per_phase": per_phase})
    return row


def _row_fig6_bcl(inputs, attach: Attach) -> RowResult:
    spec, keys, blob = inputs["spec"], inputs["keys"], inputs["blob"]
    bcl = BCL(spec)
    # Static sizing at ~0.75 load factor, the operating point of a loaded
    # BCL table (benchmarks/test_fig6_scaling.py).
    capacity = int(spec.total_procs * FIG6_OPS / FIG6_PARTITIONS / 0.75) + 2
    table = bcl.hashmap("c", capacity_per_partition=capacity,
                        entry_size=FIG6_BYTES, partitions=FIG6_PARTITIONS,
                        inflight_slots=64, max_probes=capacity)
    attach(bcl)
    wrong = [0]
    insert_body, find_body = _fig6_bodies(table, keys, blob, wrong)
    _run_bcl_ranks(bcl, insert_body)
    t_insert = bcl.sim.now
    _run_bcl_ranks(bcl, find_body)
    per_phase = spec.total_procs * FIG6_OPS
    return RowResult(
        ops=2 * per_phase, sim_s=bcl.sim.now, failed=wrong[0],
        facts={"t_insert": t_insert, "t_find": bcl.sim.now - t_insert,
               "ops_per_phase": per_phase})


def _run_bcl_ranks(bcl: BCL, body):
    procs = bcl.cluster.spawn_ranks(body)
    bcl.cluster.run()
    for proc in procs:
        proc.result  # re-raises a failed rank (e.g. no free bucket)


def _sum_fig6(rows: Dict[str, RowResult]) -> Dict[str, float]:
    hcl, bcl = rows["hcl_umap"].facts, rows["bcl_umap"].facts
    insert_ratio = bcl["t_insert"] / hcl["t_insert"]
    find_ratio = bcl["t_find"] / hcl["t_find"]
    return {
        "sim_ops_per_s": hcl["ops_per_phase"] / hcl["t_insert"],
        "hcl_vs_bcl_sim_speedup": insert_ratio,
        "paper_ratio_err": 0.5 * (
            abs(insert_ratio - PAPER_INSERT_RATIO) / PAPER_INSERT_RATIO
            + abs(find_ratio - PAPER_FIND_RATIO) / PAPER_FIND_RATIO),
        **_latency_metrics(_pooled_latency(rows, ("hcl_umap", "hcl_map"))),
    }


# -- smallops_rpc / smallops_agg -----------------------------------------------

APP_NODES = 4
APP_PROCS = 3
READ_LENGTH = 100
KMER_K = 15
#: (genome length, reads) per app.  smallops_agg counts 8x the k-mer reads
#: of smallops_rpc, so that its three coalesced rows (core-bound) outweigh
#: the contig row (still one RPC per cache miss, simnet-bound).  Its contig
#: input has 16x coverage because the cached, coalesced traversal of a
#: gappy assembly swings 28 % in simulated time from seed to seed (6 % at
#: this coverage).
RPC_KMER_SHAPE = (1200, 96)
RPC_CONTIG_SHAPE = (600, 48)
AGG_KMER_SHAPE = (9600, 768)
AGG_CONTIG_SHAPE = (800, 128)
AGG_THRESHOLD = 512


def _app_inputs(kmer_shape, contig_shape):
    def prepare(seed: int) -> Dict[str, Any]:
        def genome(shape):
            return synthesize_genome(
                genome_length=shape[0], num_reads=shape[1],
                read_length=READ_LENGTH, k=KMER_K, error_rate=0.0, seed=seed)
        return {
            "spec": ares_like(nodes=APP_NODES, procs_per_node=APP_PROCS,
                              seed=seed),
            "kmer": genome(kmer_shape),
            "contig": genome(contig_shape),
        }
    return prepare


def _occurrences(data) -> int:
    return sum(len(read) - data.k + 1 for read in data.reads)


def _row_kmer(aggregation, async_api: bool = False, window=None):
    def row(inputs, attach: Attach) -> RowResult:
        res = run_kmer_counting(
            "hcl", inputs["spec"], inputs["kmer"], min_count=1,
            aggregation=aggregation, instrument=attach,
            async_api=async_api, window=window)
        ops = _occurrences(inputs["kmer"])
        ok = res.verified and res.total_kmers == ops
        return RowResult(ops=ops, sim_s=res.time_seconds,
                         failed=0 if ok else ops,
                         facts={"digest": res.digest})
    return row


def _row_contig(aggregation: int, read_cache: bool):
    def row(inputs, attach: Attach) -> RowResult:
        res = run_contig_generation(
            "hcl", inputs["spec"], inputs["contig"],
            aggregation=aggregation, read_cache=read_cache,
            instrument=attach)
        # One op per k-mer occurrence assembled: the input size, equal
        # for every variant of the kernel.
        ops = _occurrences(inputs["contig"])
        return RowResult(ops=ops, sim_s=res.time_seconds,
                         failed=0 if res.verified else ops)
    return row


def _sum_apps(rows: Dict[str, RowResult]) -> Dict[str, float]:
    return {"sim_ops_per_s": _throughput(rows),
            **_latency_metrics(_pooled_latency(rows, rows))}


def _sum_agg(rows: Dict[str, RowResult]) -> Dict[str, float]:
    out = _sum_apps(rows)
    out["rpc.auto_vs_static_sim"] = (rows["agg_kmer_async512"].sim_s
                                     / rows["agg_kmer_auto"].sim_s)
    return out


def _check_kmer_digests(rows: Dict[str, RowResult]) -> int:
    """Sync, async and auto coalescing must count the same histogram."""
    kmer = [r for name, r in rows.items() if name.startswith("agg_kmer_")]
    if len({r.facts["digest"] for r in kmer}) == 1:
        return 0
    return sum(r.ops for r in kmer)


# -- isx_sort -----------------------------------------------------------------

ISX_SMALL = 192  # keys per rank: coalescing loses here
ISX_LARGE = 576  # ... and wins here
ISX_BATCH = 32


def _isx_inputs(seed: int) -> Dict[str, Any]:
    return {"spec": ares_like(nodes=APP_NODES, procs_per_node=APP_PROCS,
                              seed=seed),
            "seed": seed}


def _row_isx(keys_per_rank: int, aggregation: int):
    def row(inputs, attach: Attach) -> RowResult:
        res = run_isx("hcl", inputs["spec"], keys_per_rank=keys_per_rank,
                      batch=ISX_BATCH, seed=inputs["seed"],
                      aggregation=aggregation, instrument=attach)
        ops = keys_per_rank * inputs["spec"].total_procs
        ok = res.verified and res.total_keys == ops
        return RowResult(ops=ops, sim_s=res.time_seconds,
                         failed=0 if ok else ops)
    return row


def _sum_isx(rows: Dict[str, RowResult]) -> Dict[str, float]:
    out = _sum_apps(rows)
    out["agg_sim_speedup_min"] = min(
        rows["isx_small_off"].sim_s / rows["isx_small_512"].sim_s,
        rows["isx_large_off"].sim_s / rows["isx_large_512"].sim_s)
    return out


# -- serving_zipf -------------------------------------------------------------

SERVING_BOUND = 16


@contextmanager
def _capture_hcl(attach: Attach):
    """``run_serving`` has no ``instrument=`` hook: bind a subclass over
    the name it constructs its runtime from, for the duration of a call."""
    original = serving.HCL

    class CapturedHCL(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            attach(self)

    serving.HCL = CapturedHCL
    try:
        yield
    finally:
        serving.HCL = original


def _row_serving(bound: Optional[int]):
    def row(seed: int, attach: Attach) -> RowResult:
        with _capture_hcl(attach):
            report = serving.run_serving(
                nodes=4, procs_per_node=4, clients=500, tenants=4,
                theta=0.99, keys=512, mix=(0.70, 0.20, 0.10),
                queue_frac=0.5, queue_home="packed", rate=4800.0,
                ops_per_client=15, seed=seed, bounds=(bound,),
                shed_retries=0, retry_backoff=1e-3, rpc_batch_size=1)
        cfg = report["configs"][0]
        accounted = cfg["completed"] + cfg["shed_gaveup"] + cfg["errors"]
        return RowResult(
            ops=cfg["issued"], sim_s=cfg["sim_seconds"],
            failed=cfg["errors"] + abs(cfg["issued"] - accounted),
            refused=cfg["shed_gaveup"],
            facts={"completed": cfg["completed"]})
    return row


def _sum_serving(rows: Dict[str, RowResult]) -> Dict[str, float]:
    bounded, unbounded = rows["srv_bound16"], rows["srv_unbounded"]
    out = {"sim_ops_per_s": bounded.facts["completed"] / bounded.sim_s,
           **_latency_metrics(bounded.latency_s)}
    out["cliff_p99_ratio"] = (nearest_rank(unbounded.latency_s, 0.99) * 1e6
                              / out["sim_p99_us"])
    return out


def _build_zipf_tables():
    """The ``BENCH_serving.json`` shape: 8 tenants x 16 384 keys."""
    return [serving.ZipfKeyGenerator(16_384, 0.99, seed=7, tenant=t)
            for t in range(8)]


# -- the table ----------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "kernel_timeouts",
        "500 processes x 1000 timeouts: only simnet runs, so a fabric, rpc "
        "or core change predicts no move here and a kernel change moves "
        "this most",
        _kernel_inputs, (("kernel", _row_kernel),), _sum_kernel),
    Workload(
        "fig6_bulk_64k",
        "Fig 6a, 64 KB inserts then finds on HCL unordered_map, HCL map and "
        "BCL hashmap: one RPC or three verbs per op, simnet and fabric "
        "dominate; carries the paper's HCL-vs-BCL ratio",
        _fig6_inputs,
        (("hcl_umap", _row_fig6_hcl(ordered=False)),
         ("hcl_map", _row_fig6_hcl(ordered=True)),
         ("bcl_umap", _row_fig6_bcl)),
        _sum_fig6),
    Workload(
        "smallops_rpc",
        "k-mer counting (upserts) and contig generation (finds), "
        "aggregation off: one RPC per ~30 B op, the per-op dispatch path "
        "through simnet, fabric, rpc and core",
        _app_inputs(RPC_KMER_SHAPE, RPC_CONTIG_SHAPE),
        (("rpc_kmer", _row_kmer(aggregation=0)),
         ("rpc_contig", _row_contig(aggregation=0, read_cache=False))),
        _sum_apps),
    Workload(
        "smallops_agg",
        "the same two apps through the coalescer, async futures, windows "
        "and the read cache: core leads and simnet shrinks to a fifth, so "
        "a coalescer gain shows here and not on smallops_rpc",
        _app_inputs(AGG_KMER_SHAPE, AGG_CONTIG_SHAPE),
        (("agg_kmer_sync512", _row_kmer(aggregation=AGG_THRESHOLD)),
         ("agg_kmer_async512", _row_kmer(aggregation=AGG_THRESHOLD,
                                         async_api=True, window=True)),
         ("agg_kmer_auto", _row_kmer(aggregation="auto", async_api=True,
                                     window=True)),
         ("agg_contig_cache", _row_contig(aggregation=AGG_THRESHOLD,
                                          read_cache=True))),
        _sum_agg, cross_check=_check_kmer_digests),
    Workload(
        "isx_sort",
        "ISx into the priority queue at two sizes, aggregation off and "
        "512: the MDList is ~85% of host time, the only workload where a "
        "data-structure change is visible",
        _isx_inputs,
        (("isx_small_off", _row_isx(ISX_SMALL, 0)),
         ("isx_small_512", _row_isx(ISX_SMALL, AGG_THRESHOLD)),
         ("isx_large_off", _row_isx(ISX_LARGE, 0)),
         ("isx_large_512", _row_isx(ISX_LARGE, AGG_THRESHOLD))),
        _sum_isx),
    Workload(
        "serving_zipf",
        "open loop, Poisson arrivals in simulated time, Zipf keys, "
        "read/write/RMW/queue mix, unbounded vs bound-16 server queues: "
        "async futures, admission control and the overload cliff",
        lambda seed: seed,
        (("srv_unbounded", _row_serving(None)),
         ("srv_bound16", _row_serving(SERVING_BOUND))),
        _sum_serving, latency_source="serving",
        probes=(("harness.zipf_build_s", _build_zipf_tables),)),
)}
