"""Every metric the ledger reports: name, unit, direction, bound, clock.

Two clocks, named on every number.  ``sim`` metrics are what the modelled
cluster takes; with a fixed seed they repeat exactly, so their same-seed
bound is 0.1 % and they double as the "simulated results unchanged" guard
for host-only changes.  ``host`` metrics are what the Python process
takes, in reference-box seconds (``calib.py``).

``BENCHMARK.json`` is the subset of this table the driver's contract can
carry (``driver_tables``); ``tests/test_contract.py`` keeps the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from benchmarks.ledger.attribution import LAYERS

__all__ = ["Metric", "END_TO_END", "PER_LAYER", "ROWS", "DRIVER_BOUNDS",
           "metric_table", "driver_tables"]

#: the 16 rows of the six workloads, in run order
ROWS = (
    "kernel", "hcl_umap", "hcl_map", "bcl_umap", "rpc_kmer", "rpc_contig",
    "agg_kmer_sync512", "agg_kmer_async512", "agg_kmer_auto",
    "agg_contig_cache", "isx_small_off", "isx_small_512", "isx_large_off",
    "isx_large_512", "srv_unbounded", "srv_bound16",
)

SIM_BOUND = 0.001  # same-seed runs of one commit repeat exactly
HOST_BOUND = 0.10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    clock: str  # "host" | "sim" | "count"
    what: str
    #: share of the baseline median by which the metric may worsen before
    #: ``agree`` calls it a regression; None = per-layer, never gated
    bound: Optional[float] = None
    #: absolute slack in the metric's unit, for values near zero
    floor: float = 0.0
    #: workloads that report it (None = all)
    on: Optional[Tuple[str, ...]] = None
    #: the end-to-end metric a per-layer metric should move
    moves: str = ""


_LATENCY_ON = ("fig6_bulk_64k", "smallops_rpc", "serving_zipf")

END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host",
           "build cluster, containers and inputs up to the first "
           "Simulator.run (reference-box seconds)",
           bound=HOST_BOUND, floor=0.02),
    Metric("host_us_per_op", "us/op", "lower", "host",
           "steady-state host cost per application op (per event on "
           "kernel_timeouts): the simulator's speed", bound=HOST_BOUND),
    Metric("peak_rss_mb", "MiB", "lower", "host",
           "ru_maxrss of the workload's process", bound=HOST_BOUND),
    Metric("ops_failed_share", "fraction", "lower", "count",
           "(verification failures + errors + shed give-ups) / ops "
           "attempted", bound=0.0),
    Metric("sim_ops_per_s", "ops/s", "higher", "sim",
           "fig6: HCL unordered_map inserts; apps: total ops / total "
           "simulated s; serving: goodput of the bound-16 config; kernel: "
           "events / simulated s", bound=SIM_BOUND),
    Metric("sim_p50_us", "us", "lower", "sim",
           "exact nearest-rank median of client-visible op latency",
           bound=SIM_BOUND, on=_LATENCY_ON),
    Metric("sim_p99_us", "us", "lower", "sim",
           "exact nearest-rank p99 of client-visible op latency",
           bound=SIM_BOUND, on=_LATENCY_ON),
    Metric("hcl_vs_bcl_sim_speedup", "x", "higher", "sim",
           "BCL / HCL simulated insert time (paper: 9.1x)",
           bound=SIM_BOUND, on=("fig6_bulk_64k",)),
    Metric("paper_ratio_err", "fraction", "lower", "sim",
           "mean |measured - paper| / paper over the insert (9.1x) and "
           "find (4.5x) ratios", bound=SIM_BOUND, on=("fig6_bulk_64k",)),
    Metric("agg_sim_speedup_min", "x", "higher", "sim",
           "min over the two ISx sizes of simulated time off / at 512",
           bound=SIM_BOUND, on=("isx_sort",)),
    Metric("cliff_p99_ratio", "x", "higher", "sim",
           "exact p99 unbounded / exact p99 bound-16",
           bound=SIM_BOUND, on=("serving_zipf",)),
)

#: what ``BENCHMARK.json`` can carry: metrics every workload reports and
#: that are never 0, with bounds wide enough for the driver's protocol
#: (ten runs on ten *different* seeds, so simulated values spread too)
DRIVER_BOUNDS: Dict[str, float] = {
    "setup_s": 0.25,
    "host_us_per_op": 0.20,
    "peak_rss_mb": 0.10,
    "sim_ops_per_s": 0.25,
}


def _per_layer() -> Tuple[Metric, ...]:
    out: List[Metric] = []

    def add(name, unit, better, clock, what, moves, on=None):
        out.append(Metric(name, unit, better, clock, what, moves=moves,
                          on=on))

    for layer in LAYERS:
        add(f"{layer}.host_share", "fraction", "lower", "host",
            f"share of profiled self time owed to repro/{layer}/",
            "host_us_per_op")
        add(f"{layer}.calls_per_op", "calls/op", "lower", "count",
            f"Python calls into repro/{layer}/ per op", "host_us_per_op")
    add("other.host_share", "fraction", "lower", "host",
        "profiled self time with no repro caller", "host_us_per_op")
    add("simnet.events_per_op", "events/op", "lower", "count",
        "kernel events retired per op", "host_us_per_op")
    add("simnet.events_per_host_s", "events/s", "higher", "host",
        "kernel events per steady reference-box second", "host_us_per_op")
    add("fabric.packets_per_op", "packets/op", "lower", "count",
        "egress packets per op", "sim_ops_per_s")
    add("fabric.bytes_per_op", "bytes/op", "lower", "count",
        "egress bytes per op", "sim_ops_per_s")
    add("fabric.switch_transits_per_op", "transits/op", "lower", "count",
        "switch crossings per op", "sim_ops_per_s")
    add("rpc.invocations_per_op", "rpcs/op", "lower", "count",
        "client RPC invocations per op", "sim_ops_per_s")
    add("rpc.ops_per_flush", "ops/flush", "higher", "count",
        "ops carried per coalescer flush", "agg_sim_speedup_min")
    add("rpc.retries", "count", "lower", "count", "client retransmissions",
        "sim_ops_per_s")
    add("rpc.timeouts", "count", "lower", "count", "client timeouts",
        "sim_ops_per_s")
    add("rpc.shed", "count", "lower", "count",
        "requests shed by server admission control", "ops_failed_share")
    add("rpc.window_stalls", "count", "lower", "count",
        "issues stalled on a congestion window", "sim_ops_per_s")
    add("rpc.auto_threshold", "ops", "higher", "count",
        "threshold the self-tuning coalescer settled on", "sim_ops_per_s")
    add("rpc.auto_vs_static_sim", "x", "higher", "sim",
        "simulated s at async-512 / at auto", "sim_ops_per_s",
        on=("smallops_agg",))
    add("rpc.sim_queue_wait_p99_us", "us", "lower", "sim",
        "exact p99 of server receive-queue wait", "sim_p99_us")
    add("core.local_share", "fraction", "higher", "count",
        "container ops served by the local bypass", "sim_ops_per_s")
    add("core.read_cache_hit_rate", "fraction", "higher", "count",
        "read-cache hits / lookups", "sim_ops_per_s")
    add("core.table_L_per_op", "L/op", "lower", "count",
        "Table I local-op symbols charged per op", "sim_ops_per_s")
    add("structures.cas_fail_share", "fraction", "lower", "count",
        "failed / attempted NIC compare-and-swaps",
        "hcl_vs_bcl_sim_speedup")
    add("memory.sim_peak_mb", "MiB", "lower", "sim",
        "peak simulated node memory, largest row", "sim_ops_per_s")
    add("bcl.verbs_per_op", "verbs/op", "lower", "count",
        "NIC verbs per op on the BCL row", "hcl_vs_bcl_sim_speedup")
    for name, what in (
            ("rpc.sim_marshal_us", "client marshal"),
            ("rpc.sim_send_us", "client send"),
            ("rpc.sim_queue_us", "server receive queue"),
            ("rpc.sim_execute_us", "server handler"),
            ("fabric.sim_transport_us", "network delivery and return"),
            ("rpc.sim_pull_us", "client response pull"),
            ("rpc.sim_settle_us", "client settle")):
        add(name, "us", "lower", "sim",
            f"mean simulated us per RPC in the {what} stage", "sim_p50_us")
    add("rpc.sim_tiling_residual", "us", "lower", "sim",
        "worst |latency - sum of the seven stages| (must be 0)",
        "sim_p50_us")
    add("rpc.traced_rpcs", "count", "higher", "count",
        "RPCs behind the stage means", "sim_p50_us")
    for row in ROWS:
        add(f"row.{row}.sim_s", "s", "lower", "sim",
            f"simulated seconds of row {row}", "sim_ops_per_s")
        add(f"row.{row}.host_us_per_op", "us/op", "lower", "host",
            f"steady host cost per op of row {row}", "host_us_per_op")
    add("harness.import_s", "s", "lower", "host",
        "importing repro and the ledger", "setup_s")
    add("harness.verify_s", "s", "lower", "host",
        "host time of a repetition outside set-up and the event loop",
        "setup_s")
    add("harness.zipf_build_s", "s", "lower", "host",
        "ZipfKeyGenerator for 8 tenants x 16384 keys", "setup_s",
        on=("serving_zipf",))
    add("harness.calib_s", "s", "lower", "host",
        "process seconds spent in the calibration loop (raw)", "setup_s")
    add("harness.raw_wall_s", "s", "lower", "host",
        "wall seconds of the whole process (raw)", "setup_s")
    add("obs.profile_overhead_x", "x", "lower", "host",
        "host_us_per_op under cProfile / untraced", "")
    add("obs.tracer_overhead_x", "x", "lower", "host",
        "host_us_per_op with the span tracer / untraced", "")
    add("sim_latency_samples", "count", "higher", "count",
        "samples behind sim_p50_us / sim_p99_us", "sim_p99_us",
        on=_LATENCY_ON)
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _per_layer()


def metric_table() -> Dict[str, Metric]:
    return {m.name: m for m in END_TO_END + PER_LAYER}


def driver_tables() -> Dict[str, List[Dict]]:
    """The ``end_to_end`` and ``per_layer`` lists of ``BENCHMARK.json``.

    The contract wants every workload to report every listed metric and
    end-to-end metrics that are never 0, so the workload-specific ratios
    and ``ops_failed_share`` (0 on a correct run) travel in ``per_layer``.
    """
    table = metric_table()
    end_to_end = [
        {"name": name, "unit": table[name].unit,
         "better": table[name].better, "bound": bound}
        for name, bound in DRIVER_BOUNDS.items()
    ]
    per_layer = [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in END_TO_END + PER_LAYER if m.name not in DRIVER_BOUNDS
    ]
    return {"end_to_end": end_to_end, "per_layer": per_layer}
