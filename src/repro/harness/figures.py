"""The paper's Figures 1, 4, 5, 6 and 7, as functions of their scale.

Each figure is one plain function that builds the scaled experiment, runs
it and returns its series (simulated seconds or throughput per sweep
point) — the single definition behind ``python -m repro.cli fig*``, the
asserted benches in ``benchmarks/test_fig*.py`` (which add the paper's
quotes and the shape assertions) and ``cli trace``.
Whatever a figure verifies (app outputs, inserts stored, finds that hit,
probes that answered) comes back beside the series as a list of failure
strings, which the records' always-on ``check`` turns into
``CHECK FAILED`` + exit 1.

Two pieces are shared: :func:`run_phases` (bulk-synchronous phases over
``HCL.run_ranks`` / ``BCL.run_ranks``) and :func:`run_app` (one Fig 7
kernel on one backend, input built by :func:`app_input` from a row of
:data:`FIG7_SHAPES` or :data:`AGG_SHAPES`).  Scale factors relative to the
paper are listed in EXPERIMENTS.md.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.bcl import BCL
from repro.config import KB, MB, ClusterSpec, ares_like
from repro.core import HCL
from repro.core.costs import charge
from repro.fabric import Cluster
from repro.harness.driver import Harness, flag
from repro.harness.report import render_series, render_table
from repro.harness.workload import Blob, key_stream
from repro.obs.series import FlightRecorder
from repro.rpc import RpcClient, RpcServer
from repro.simnet.resources import Resource
from repro.structures.stats import OpStats

__all__ = [
    "AGG_SHAPES", "FIG7_APPS", "FIG7_SHAPES", "FIGURES", "app_input", "fig1",
    "fig4", "fig5", "fig6_maps", "fig6_queues", "fig6_sets", "fig7", "run_app",
    "run_phases", "size_label",
]

Series = Dict[str, List[float]]


def run_phases(runtime, *bodies: Callable, ranks=None) -> List[float]:
    """Run each ``body(rank)`` as one bulk-synchronous phase on ``runtime``
    (an ``HCL`` or a ``BCL``); returns the simulated seconds of each."""
    seconds = []
    for body in bodies:
        start = runtime.sim.now
        runtime.run_ranks(body, ranks=ranks)
        seconds.append(runtime.sim.now - start)
    return seconds


def _scaled(n: float, scale: float) -> int:
    return max(1, round(n * scale))


# -- Figure 1: the motivating test case ----------------------------------------
FIG1_CLIENTS = 40  # as in the paper — contention level drives the CAS cost
FIG1_OPS = 256     # per client; the paper runs 8192
FIG1_SIZE = 4096

#: Cost of one *contended* CAS executed by a NIC core: the cache line is
#: shared by every concurrent handler, so the CASes serialize behind the
#: same memory region (cheaper than a remote CAS, but not free).
CAS_LOCKED_COST = 0.5e-6


def _fig1_bcl() -> Tuple[float, Dict[str, float]]:
    """Strategy 1: client-side CAS protocol, with per-stage timing."""
    cluster = Cluster(ares_like(nodes=2, procs_per_node=FIG1_CLIENTS))
    cluster.node(1).register_region("part", 1 << 30)
    stages = {"reserve": 0.0, "write": 0.0, "ready": 0.0}

    def client(rank):
        qp = cluster.qp(0)
        for i in range(FIG1_OPS):
            off = (rank * FIG1_OPS + i) * 8
            t0 = cluster.sim.now
            yield from qp.cas(1, "part", off, 0, 1)
            t1 = cluster.sim.now
            yield from qp.rdma_write(1, "part", off + 1, Blob(FIG1_SIZE),
                                     FIG1_SIZE)
            t2 = cluster.sim.now
            yield from qp.cas(1, "part", off, 1, 2)
            t3 = cluster.sim.now
            stages["reserve"] += t1 - t0
            stages["write"] += t2 - t1
            stages["ready"] += t3 - t2

    cluster.run_ranks(client, ranks=range(FIG1_CLIENTS))
    return cluster.sim.now, {k: v / FIG1_CLIENTS for k, v in stages.items()}


def _fig1_rpc(lock_free: bool) -> Tuple[float, int]:
    """Strategies 2/3: one RPC per insert; CAS (or not) executed locally.
    Returns (simulated seconds, inserts the server stored)."""
    cluster = Cluster(ares_like(nodes=2, procs_per_node=FIG1_CLIENTS))
    servers = {i: RpcServer(cluster.node(i)) for i in range(2)}
    client = RpcClient(cluster, 0, servers)
    store = {}
    bucket_lock = Resource(cluster.sim, 1, name="bucket-line")

    def handler(ctx, key, value):
        if not lock_free:
            # reserve + ready CAS, serialized on the shared bucket line.
            yield bucket_lock.claim()
            try:
                yield 2 * CAS_LOCKED_COST
            finally:
                bucket_lock.release_slot()
        yield from charge(ctx.node, OpStats(local_ops=2, writes=1),
                          FIG1_SIZE, cpu_factor=ctx.cost.nic_compute_factor)
        store[key] = value
        return True

    servers[1].bind("insert", handler)

    def body(rank):
        for i in range(FIG1_OPS):
            yield from client.call(1, "insert", ((rank, i), Blob(FIG1_SIZE)),
                                   payload_size=FIG1_SIZE)

    cluster.run_ranks(body, ranks=range(FIG1_CLIENTS))
    return cluster.sim.now, len(store)


def fig1() -> Tuple[Dict, List[str]]:
    """40 clients insert 4 KB values into one remote partition, three ways:
    BCL's client-side CAS protocol, one RPC with the CASes local, one RPC on
    a lock-free structure.  Series: simulated seconds per strategy, BCL's
    per-client stage split and ``paper_scale`` (the paper's op count over
    ours, for extrapolating the times)."""
    t_bcl, stages = _fig1_bcl()
    series = {"bcl": t_bcl, "stages": stages,
              "paper_scale": 8192 / FIG1_OPS}
    failures = []
    for name, lock_free in (("rpc_cas", False), ("rpc_lockfree", True)):
        series[name], stored = _fig1_rpc(lock_free)
        if stored != FIG1_CLIENTS * FIG1_OPS:
            failures.append(f"{name}: server stored {stored} of "
                            f"{FIG1_CLIENTS * FIG1_OPS} inserts")
    return series, failures


# -- Figure 4: RPC-over-RDMA profiling (PAT-style time series) -------------------
FIG4_CLIENTS = 16  # on node 0; the paper runs 40
FIG4_OPS = 384     # per client at scale 1.0; the paper runs 8192
FIG4_SIZE = 4096
#: sampling cadence in sim-seconds at scale 1.0, the same for both backends
#: as PAT's fixed 1 s was: HCL's run spans ~14 samples, BCL's longer run more
FIG4_INTERVAL = 1.25e-3
FIG4_SERIES = ("nic_util", "mem", "packets")


def _fig4_profile(runtime, insert, ops: int, interval: float,
                  failures: List[str], what: str) -> Dict:
    """Every client inserts its ``ops`` values into the one partition on
    node 1 while a flight recorder samples that node's NIC-core
    utilization % and memory bytes and the cluster's packets/s."""
    cluster = runtime.cluster
    target = cluster.node(1)
    recorder = FlightRecorder(cluster.sim, interval).install(cluster)
    recorder.add_probe("nic_util", target.nic.utilization_probe())
    recorder.add_probe("mem", lambda: target.memory_used.value)
    recorder.add_probe("packets", cluster.packets_probe())
    recorder.tick()  # the t = 0 point: what is allocated before any op

    def body(rank):
        for i in range(ops):
            yield from insert(rank, (rank, i), Blob(FIG4_SIZE))

    cluster.run_ranks(body, ranks=range(FIG4_CLIENTS))
    if recorder.probe_errors:
        failures.append(f"{what}: {recorder.probe_errors} probe error(s)")
    return {"elapsed": cluster.sim.now,
            "times": list(recorder.series["mem"].times),
            **{name: list(recorder.series[name].values)
               for name in FIG4_SERIES}}


def fig4(scale: float = 1.0) -> Tuple[Dict, List[str]]:
    """16 clients on one node insert 4 KB values into one partition on the
    other, BCL (static segment, CAS + WRITE + CAS) then HCL (one RPC, a
    map that starts small and grows); each is run once and sampled at the
    same absolute cadence, which stretches with ``scale`` so the sample
    count does not.  Per backend: ``elapsed`` simulated seconds, the sample
    ``times`` (the first is t = 0) and the ``nic_util`` / ``mem`` /
    ``packets`` series."""
    ops, interval = _scaled(FIG4_OPS, scale), FIG4_INTERVAL * scale
    spec = ares_like(nodes=2, procs_per_node=FIG4_CLIENTS)
    failures: List[str] = []
    bcl = BCL(spec)
    bmap = bcl.hashmap("part", capacity_per_partition=4 * FIG4_CLIENTS * ops,
                       entry_size=FIG4_SIZE, partitions=1)
    bmap._partition_nodes = [1]
    hcl = HCL(spec)
    hmap = hcl.unordered_map("part", partitions=1, nodes=[1],
                             initial_buckets=128)  # starts small, grows
    return {
        "interval": interval,
        "bcl": _fig4_profile(bcl, bmap.insert, ops, interval, failures,
                             "bcl"),
        "hcl": _fig4_profile(hcl, hmap.insert, ops, interval, failures,
                             "hcl"),
    }, failures


# -- Figure 5: hybrid data access model ----------------------------------------
FIG5_SIZES = (4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB, 8 * MB)
FIG5_CLIENTS = 8
FIG5_OPS = 48  # per client and size point; the paper runs 8192


def fig5(sizes: Sequence[int] = FIG5_SIZES, local: bool = True) -> Series:
    """Insert then find ``sizes``-byte values in one partition that is
    co-located with the clients (``local``) or on another node; bandwidth
    in MB/s per size, HCL unordered_map vs BCL hashmap."""
    series: Series = {"hcl_insert": [], "hcl_find": [],
                      "bcl_insert": [], "bcl_find": []}
    for size in sizes:
        spec = ares_like(nodes=1 if local else 2,
                         procs_per_node=FIG5_CLIENTS)
        hcl = HCL(spec)
        hmap = hcl.unordered_map("m", partitions=1,
                                 nodes=[0 if local else 1],
                                 initial_buckets=8 * FIG5_CLIENTS * FIG5_OPS)
        bcl = BCL(spec)
        bmap = bcl.hashmap("m",
                           capacity_per_partition=4 * FIG5_CLIENTS * FIG5_OPS,
                           entry_size=size, partitions=1, inflight_slots=64)
        if not local:
            bmap._partition_nodes = [1]
        for name, runtime, m in (("hcl", hcl, hmap), ("bcl", bcl, bmap)):
            def insert_body(rank):
                for i in range(FIG5_OPS):
                    yield from m.insert(rank, (rank, i), Blob(size))

            def find_body(rank):
                for i in range(FIG5_OPS):
                    yield from m.find(rank, (rank, i))

            nbytes = FIG5_CLIENTS * FIG5_OPS * size
            for op, seconds in zip(("insert", "find"), run_phases(
                    runtime, insert_body, find_body)):
                series[f"{name}_{op}"].append(
                    nbytes / seconds / MB if seconds > 0 else 0.0)
    return series


# -- Figure 6: scaling the distributed data structures ---------------------------
FIG6_NODES = 8       # fixed client cluster, mirroring the paper's 64 nodes
FIG6_PROCS = 6       # 48 clients for the paper's fixed 2560 ranks
FIG6_OPS = 24        # per rank at scale 1.0; the paper runs 8192
FIG6_QOPS = 16       # queue ops per client at scale 1.0
FIG6_SIZE = 64 * KB  # the paper's Fig 6 operation size
FIG6_PARTITIONS = (1, 2, 4, 8)
FIG6_CLIENTS = (8, 16, 32, 64)


def _insert_find(runtime, ops: int, insert, find, found,
                 failures: List[str], what: str) -> Tuple[float, float]:
    """Every rank inserts its ``ops`` keys, then finds them again; returns
    (insert op/s, find op/s).  ``found(result)`` says whether one find hit;
    a miss is a failure, named ``what``."""
    misses = 0

    def insert_body(rank):
        for key in key_stream(rank, ops, seed=3):
            yield from insert(rank, key)

    def find_body(rank):
        nonlocal misses
        for key in key_stream(rank, ops, seed=3):
            if not found((yield from find(rank, key))):
                misses += 1

    t_ins, t_fnd = run_phases(runtime, insert_body, find_body)
    if misses:
        failures.append(f"{what}: {misses} find(s) missed an inserted key")
    total = runtime.cluster.total_procs * ops
    return total / t_ins, total / t_fnd


def _fig6_hcl_map(partitions: int, ordered: bool, ops: int, failures):
    hcl = HCL(ares_like(nodes=FIG6_NODES, procs_per_node=FIG6_PROCS))
    if ordered:
        c = hcl.map("c", partitions=partitions,
                    partitioner=lambda k, n: k * n // (1 << 30))
    else:
        c = hcl.unordered_map("c", partitions=partitions,
                              initial_buckets=8 * FIG6_PROCS * ops)
    blob = Blob(FIG6_SIZE)
    return _insert_find(
        hcl, ops, lambda rank, key: c.insert(rank, key, blob), c.find,
        lambda hit: hit[1], failures,
        f"hcl {'map' if ordered else 'unordered_map'} partitions={partitions}")


def _fig6_hcl_set(partitions: int, ordered: bool, ops: int, failures):
    hcl = HCL(ares_like(nodes=FIG6_NODES, procs_per_node=FIG6_PROCS))
    if ordered:
        c = hcl.set("c", partitions=partitions,
                    partitioner=lambda k, n: k.tag * n // (1 << 30),
                    less=lambda a, b: a.tag < b.tag)
    else:
        c = hcl.unordered_set("c", partitions=partitions,
                              initial_buckets=8 * FIG6_PROCS * ops)
    # Set elements are the full-size keys themselves: the 7-14% gap to
    # maps comes from dropping the value/bucket overhead, not the payload.
    return _insert_find(
        hcl, ops,
        lambda rank, key: c.insert(rank, Blob(FIG6_SIZE, tag=key)),
        lambda rank, key: c.find(rank, Blob(FIG6_SIZE, tag=key)),
        bool, failures,
        f"hcl {'set' if ordered else 'unordered_set'} partitions={partitions}")


def _fig6_bcl_map(partitions: int, ops: int, failures):
    bcl = BCL(ares_like(nodes=FIG6_NODES, procs_per_node=FIG6_PROCS))
    # Static sizing at ~0.75 load factor (the operating point a loaded
    # BCL table runs at): linear-probe chains on finds read whole
    # fixed-size buckets — BCL's find penalty in Fig 6a.
    capacity = int(FIG6_NODES * FIG6_PROCS * ops / partitions / 0.75) + 2
    m = bcl.hashmap("c", capacity_per_partition=capacity,
                    entry_size=FIG6_SIZE, partitions=partitions,
                    inflight_slots=64, max_probes=capacity)
    blob = Blob(FIG6_SIZE)
    return _insert_find(
        bcl, ops, lambda rank, key: m.insert(rank, key, blob), m.find,
        lambda hit: hit[1], failures, f"bcl hashmap partitions={partitions}")


def _sweep_pairs(points: Sequence[int], runs: Mapping[str, Callable],
                 suffixes: Tuple[str, str]) -> Series:
    """``runs[name](point) -> (a, b)`` at every sweep point, as the series
    ``<name>_<suffixes[0]>`` and ``<name>_<suffixes[1]>``."""
    series: Series = {f"{name}_{suffix}": []
                      for name in runs for suffix in suffixes}
    for point in points:
        for name, run in runs.items():
            for suffix, value in zip(suffixes, run(point)):
                series[f"{name}_{suffix}"].append(value)
    return series


def fig6_maps(sweep: Sequence[int] = FIG6_PARTITIONS,
              scale: float = 1.0) -> Tuple[Series, List[str]]:
    """Fig 6a: 48 clients insert then find 64 KB values; throughput in op/s
    per partition count, HCL unordered_map and map vs BCL hashmap."""
    ops, failures = _scaled(FIG6_OPS, scale), []
    return _sweep_pairs(sweep, {
        "hcl_umap": lambda p: _fig6_hcl_map(p, False, ops, failures),
        "hcl_map": lambda p: _fig6_hcl_map(p, True, ops, failures),
        "bcl_umap": lambda p: _fig6_bcl_map(p, ops, failures),
    }, ("ins", "find")), failures


def fig6_sets(sweep: Sequence[int] = FIG6_PARTITIONS,
              scale: float = 1.0) -> Tuple[Series, List[str]]:
    """Fig 6b: the Fig 6a sweep over HCL's unordered_set and set (BCL has
    no sets), plus the unordered_map's insert series they are compared to."""
    ops, failures = _scaled(FIG6_OPS, scale), []
    series = _sweep_pairs(sweep, {
        "uset": lambda p: _fig6_hcl_set(p, False, ops, failures),
        "oset": lambda p: _fig6_hcl_set(p, True, ops, failures),
        "umap": lambda p: _fig6_hcl_map(p, False, ops, failures),
    }, ("ins", "find"))
    del series["umap_find"]  # Fig 6b compares insert throughput only
    return series, failures


def _fig6_queue(clients: int, kind: str, qops: int) -> Tuple[float, float]:
    nodes = max(2, clients // 16 + 1)
    spec = ares_like(nodes=nodes, procs_per_node=-(-clients // nodes))
    if kind == "bcl":
        runtime = BCL(spec)
        q = runtime.queue("q", capacity=4 * clients * qops,
                          entry_size=FIG6_SIZE, home_node=0,
                          inflight_slots=16)
        blob = Blob(FIG6_SIZE)

        def push(rank, i):
            return q.push(rank, blob)
    elif kind == "fifo":
        runtime = HCL(spec)
        q = runtime.queue("q", home_node=0)

        def push(rank, i):
            return q.push(rank, Blob(FIG6_SIZE))
    else:
        runtime = HCL(spec)
        q = runtime.priority_queue("q", home_node=0, dims=8, base=16)

        def push(rank, i):
            return q.push(rank, rank * qops + i, Blob(FIG6_SIZE))

    def push_body(rank):
        for i in range(qops):
            yield from push(rank, i)

    def pop_body(rank):
        for _ in range(qops):
            yield from q.pop(rank)

    t_push, t_pop = run_phases(runtime, push_body, pop_body,
                               ranks=range(clients))
    total = clients * qops
    return total / t_push, total / t_pop


def fig6_queues(sweep: Sequence[int] = FIG6_CLIENTS,
                scale: float = 1.0) -> Series:
    """Fig 6c: ``sweep`` clients push then pop 64 KB entries on one
    single-partition queue; throughput in op/s for HCL's FIFO and priority
    queue vs BCL's circular queue."""
    qops = _scaled(FIG6_QOPS, scale)
    return _sweep_pairs(sweep, {
        "fifo": lambda c: _fig6_queue(c, "fifo", qops),
        "prio": lambda c: _fig6_queue(c, "priority", qops),
        "bcl": lambda c: _fig6_queue(c, "bcl", qops),
    }, ("push", "pop"))


# -- Figure 7: the application kernels --------------------------------------------
#: per-app input at scale 1.0 — ISx: keys per rank; the Meraculous kernels:
#: genome length ``base + per_node * nodes``, reads per node, read length,
#: k, and the genome seed's offset from the node count.
FIG7_SHAPES: Dict[str, Dict] = {  # what benchmarks/test_fig7_* asserts on
    "isx": dict(keys=48),
    "contig": dict(genome=(0, 300), reads=24, read_length=60, k=15, seed=0),
    "kmer": dict(genome=(400, 120), reads=20, read_length=50, k=13, seed=10),
}
#: the larger inputs of the op-coalescing A/B: ``cli trace``, the
#: coalescing ablation in ``benchmarks/test_ablations.py`` and the
#: ``run_app`` figure golden run these
AGG_SHAPES: Dict[str, Dict] = {
    "isx": dict(keys=192),
    "contig": dict(genome=(0, 600), reads=48, read_length=60, k=15, seed=0),
    "kmer": dict(genome=(0, 600), reads=48, read_length=60, k=15, seed=0),
}
FIG7_APPS = ("isx", "kmer", "contig")


def app_input(app: str, shape: Mapping, nodes: int, scale: float):
    """The weak-scaled input of one app run: ISx's keys per rank, or the
    synthetic genome (genome and reads grow together with the node count so
    coverage, and thus contig length, stays constant)."""
    if app == "isx":
        return _scaled(shape["keys"], scale)
    from repro.apps import synthesize_genome

    base, per_node = shape["genome"]
    return synthesize_genome(
        genome_length=_scaled(base + per_node * nodes, scale),
        num_reads=_scaled(shape["reads"] * nodes, scale),
        read_length=shape["read_length"], k=shape["k"],
        seed=nodes + shape["seed"],
    )


def run_app(app: str, backend: str, spec: ClusterSpec, shape: Mapping,
            scale: float = 1.0, aggregation=0, instrument=None):
    """Run one Fig 7 kernel once on ``backend`` ("hcl" or "bcl") over the
    input :func:`app_input` builds from ``shape``; returns ``(app-level
    ops, the app's result)``.  ``aggregation`` and ``instrument`` are
    HCL-side; the apps ignore them on BCL, which has no coalescer."""
    from repro.apps import run_contig_generation, run_isx, run_kmer_counting

    data = app_input(app, shape, spec.nodes, scale)
    if app == "isx":
        res = run_isx(backend, spec, keys_per_rank=data,
                      aggregation=aggregation, instrument=instrument)
        return res.total_keys, res
    if app == "kmer":
        res = run_kmer_counting(backend, spec, data, aggregation=aggregation,
                                instrument=instrument)
        return res.total_kmers, res
    if app == "contig":
        res = run_contig_generation(
            backend, spec, data, aggregation=aggregation,
            read_cache=bool(aggregation), instrument=instrument)
        return sum(max(0, len(r) - data.k + 1) for r in data.reads), res
    raise ValueError(f"unknown app {app!r}")


def fig7(app: str, nodes_sweep: Sequence[int] = (2, 4, 8), procs: int = 3,
         scale: float = 1.0, aggregation: int = 0, hcl_only: bool = False,
         shape: Mapping = None) -> Tuple[Series, List[str]]:
    """Fig 7a/b/c: one kernel weak-scaled over ``nodes_sweep``, HCL vs BCL
    over identical input (``shape``, by default the app's row of
    :data:`FIG7_SHAPES`); simulated seconds per node count.  ``hcl_only``
    skips the BCL runs (``bcl_s`` stays empty).  Every run verifies its
    output (sortedness, exact histogram, genome-substring contigs)."""
    shape = shape or FIG7_SHAPES[app]
    series: Series = {"bcl_s": [], "hcl_s": []}
    failures = []
    for nodes in nodes_sweep:
        results = {}
        for backend in ("hcl",) if hcl_only else ("hcl", "bcl"):
            spec = ares_like(nodes=nodes, procs_per_node=procs)
            _ops, res = run_app(app, backend, spec, shape, scale, aggregation)
            results[backend] = res
            series[f"{backend}_s"].append(res.time_seconds)
            if not res.verified:
                failures.append(f"{app} ({backend}) nodes={nodes}: "
                                "verification failed")
        if app == "contig" and not hcl_only and (
                results["hcl"].contigs != results["bcl"].contigs):
            failures.append(f"contig nodes={nodes}: hcl and bcl contigs differ")
    return series, failures


# -- the repro.cli records ---------------------------------------------------------
#: a figure subcommand: no instruments, one report, and the verification
#: failures it carries (``report["failures"]``) always enforced;
#: ``check=None`` on the records that verify nothing
_figure = partial(Harness, flags=(), instruments=(), gate=(),
                  emit=lambda report: {"": report},
                  check=lambda report, a: report["failures"])


def _run_fig1(a, _instrument) -> Dict:
    series, failures = fig1()
    return {**series, "failures": failures}


def _render_fig1(report: Dict, a) -> str:
    t_bcl, x = report["bcl"], report["paper_scale"]
    return render_table(
        "Fig 1 — motivating test",
        ["approach", "sim (s)", "extrapolated (s)", "speedup"],
        [[label, report[key], report[key] * x, t_bcl / report[key]]
         for label, key in (("BCL", "bcl"), ("RPC with CAS", "rpc_cas"),
                            ("RPC lock-free", "rpc_lockfree"))])


def _run_fig4(a, _instrument) -> Dict:
    series, failures = fig4(a.scale)
    return {**series, "failures": failures}


def _render_fig4(report: Dict, a) -> str:
    bcl, hcl = report["bcl"], report["hcl"]
    xs = [f"{t * 1e3:.3g}" for t in max(bcl["times"], hcl["times"], key=len)]
    return "\n\n".join(
        render_series(f"Fig 4{panel} — {what}", "t (ms)", xs,
                      {"bcl": bcl[name], "hcl": hcl[name]})
        for panel, name, what in (
            ("a", "nic_util", "target NIC-core utilization %"),
            ("b", "mem", "target-node memory (bytes)"),
            ("c", "packets", "cluster packet rate (pkt/s)"))
    ) + (f"\n\nelapsed: BCL {bcl['elapsed']:.4f}s vs HCL "
         f"{hcl['elapsed']:.4f}s ({bcl['elapsed'] / hcl['elapsed']:.2f}x)")


def size_label(size: int) -> str:
    return f"{size // KB}KB" if size < MB else f"{size // MB}MB"


def _render_fig5(report: Dict, a) -> str:
    labels = [size_label(s) for s in report["sizes"]]
    return "\n".join(
        render_series(f"Fig 5 {where} bandwidth MB/s", "op size", labels,
                      report[where]) + "\n"
        for where in ("intra-node", "inter-node"))


def _run_fig6(a, _instrument) -> Dict:
    series, failures = fig6_maps(a.partitions, a.scale)
    return {"partitions": list(a.partitions), "series": series,
            "failures": failures}


def _render_fig6(report: Dict, a) -> str:
    return "\n\n".join(
        render_series(f"Fig 6a — {op} throughput op/s", "partitions",
                      report["partitions"],
                      {name: ys for name, ys in report["series"].items()
                       if name.endswith(suffix)})
        for op, suffix in (("insert", "_ins"), ("find", "_find")))


def _run_fig7(a, _instrument) -> Dict:
    report = {"nodes": list(a.nodes), "procs": a.procs, "scale": a.scale,
              "aggregation": a.aggregation, "apps": {}, "failures": []}
    for app in a.apps:
        shape = dict(FIG7_SHAPES[app], keys=a.ops) if app == "isx" else None
        series, failures = fig7(app, a.nodes, a.procs, a.scale,
                                a.aggregation, a.hcl_only, shape)
        report["apps"][app] = series
        report["failures"] += failures
    return report


def _render_fig7(report: Dict, a) -> str:
    tables = []
    for app, series in report["apps"].items():
        rows = [[nodes, "-", h, "-"]
                for nodes, h in zip(report["nodes"], series["hcl_s"])]
        for row, b in zip(rows, series["bcl_s"]):
            row[1], row[3] = b, b / row[2]
        tables.append(render_table(
            f"Fig 7 — {app} weak scaling",
            ["nodes", "bcl (s)", "hcl (s)", "speedup"], rows) + "\n")
    return "\n".join(tables)


FIGURES = (
    _figure(
        name="fig1", help="motivating test", stem="fig1",
        shared=dict(emit="BENCH_fig1.json"),
        run=_run_fig1, render=_render_fig1),
    _figure(
        name="fig4", help="RPC-over-RDMA profiling time series", stem="fig4",
        shared=dict(scale=1.0, emit="BENCH_fig4.json"),
        run=_run_fig4, render=_render_fig4),
    _figure(
        name="fig5", help="hybrid access bandwidth sweep", stem="fig5",
        shared=dict(emit="BENCH_fig5.json"),
        flags=(flag("--sizes", nargs="+", type=int,
                    default=list(FIG5_SIZES)),),
        run=lambda a, _instrument: {
            "sizes": list(a.sizes), "intra-node": fig5(a.sizes, local=True),
            "inter-node": fig5(a.sizes, local=False)},
        render=_render_fig5, check=None),
    _figure(
        name="fig6", help="container scaling", stem="fig6",
        shared=dict(scale=1.0, emit="BENCH_fig6.json"),
        flags=(flag("--partitions", nargs="+", type=int,
                    default=list(FIG6_PARTITIONS)),),
        run=_run_fig6, render=_render_fig6),
    _figure(
        name="fig7", help="application kernels", stem="fig7",
        shared=dict(procs=3, scale=1.0, emit="BENCH_fig7.json"),
        flags=(
            flag("--apps", nargs="+", choices=list(FIG7_APPS),
                 default=list(FIG7_APPS)),
            flag("--nodes", nargs="+", type=int, default=[2, 4, 8]),
            flag("--ops", type=int, default=FIG7_SHAPES["isx"]["keys"],
                 help="ISx keys per rank"),
            flag("--aggregation", type=int, default=0,
                 help="HCL write-combining buffer size (0 = off)"),
            flag("--hcl-only", action="store_true",
                 help="skip the BCL comparison runs (full-paper-scale "
                      "sweeps where the client-driven baseline is "
                      "prohibitive)"),
        ),
        run=_run_fig7, render=_render_fig7),
)
