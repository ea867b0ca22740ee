"""Wall-clock A/B benchmark of the transparent op-coalescing buffers.

The DES spends wall time in proportion to the kernel events it retires,
and every remote invocation costs a fixed event cascade (request timeout,
resource grants, response timeout).  Destination-coalescing therefore
shows up directly as wall-clock speedup: N buffered ops ride ONE batch
invocation instead of N.  This harness runs the Fig-7 application kernels
(k-mer counting, contig generation, ISx) with aggregation off and across
a sweep of buffer sizes, and records wall time, sim time, app-ops/sec and
the coalescer/cache counters into ``BENCH_agg.json``.

Used by ``python -m repro.cli aggbench`` and the CI benchmark smoke job
(which asserts that the aggregated contig run beats the unaggregated one
at ``--scale 0.25``).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import ClusterSpec, ares_like

__all__ = [
    "AggBenchRow",
    "AggBenchReport",
    "run_agg_bench",
    "emit_agg_json",
    "AGG_SWEEP",
    "BENCH_APPS",
]

#: Buffer sizes swept against the unaggregated (0) baseline.
AGG_SWEEP: Tuple[int, ...] = (0, 8, 64, 512)

#: Apps benchmarked, in run order.
BENCH_APPS: Tuple[str, ...] = ("kmer", "contig", "isx")


@dataclass
class AggBenchRow:
    """One (app, buffer-size) measurement."""

    app: str
    aggregation: int
    read_cache: bool
    ops: int  # app-level operations (k-mers merged / keys scattered)
    sim_seconds: float
    wall_seconds: Optional[float]  # None in --sim-only mode
    ops_per_sec: Optional[float]   # app ops per wall second
    verified: bool
    agg: Optional[Dict] = None     # coalescer/cache counters (aggregated runs)


@dataclass
class AggBenchReport:
    scale: float
    nodes: int
    procs_per_node: int
    sweep: List[int]
    sim_only: bool
    rows: List[AggBenchRow] = field(default_factory=list)

    def baseline(self, app: str) -> Optional[AggBenchRow]:
        for row in self.rows:
            if row.app == app and row.aggregation == 0:
                return row
        return None

    def best_aggregated(self, app: str) -> Optional[AggBenchRow]:
        """The aggregated row with the lowest time (wall, or sim in
        ``sim_only`` mode) for ``app``."""
        agg_rows = [r for r in self.rows
                    if r.app == app and r.aggregation > 0]
        if not agg_rows:
            return None
        key = ((lambda r: r.sim_seconds) if self.sim_only
               else (lambda r: r.wall_seconds))
        return min(agg_rows, key=key)

    def speedups(self) -> Dict[str, Dict[str, float]]:
        """Per-app best-aggregated-vs-baseline speedups."""
        out: Dict[str, Dict[str, float]] = {}
        for app in dict.fromkeys(r.app for r in self.rows):
            base, best = self.baseline(app), self.best_aggregated(app)
            if base is None or best is None:
                continue
            entry = {
                "aggregation": best.aggregation,
                "sim_speedup": base.sim_seconds / best.sim_seconds,
            }
            if not self.sim_only:
                entry["wall_speedup"] = base.wall_seconds / best.wall_seconds
            out[app] = entry
        return out

    def table_rows(self) -> List[List]:
        out: List[List] = []
        for row in self.rows:
            agg = (row.agg or {}).get("aggregation", {})
            cache = (row.agg or {}).get("read_cache", {})
            out.append([
                row.app,
                row.aggregation or "off",
                f"{row.sim_seconds:.6f}",
                "-" if row.wall_seconds is None else f"{row.wall_seconds:.3f}",
                "-" if row.ops_per_sec is None else f"{row.ops_per_sec:,.0f}",
                f"{agg.get('ops_per_flush', 0):.1f}" if agg else "-",
                f"{cache.get('hit_rate', 0):.2f}" if cache else "-",
            ])
        return out

    def check(self, apps: Sequence[str] = ("contig", "kmer"),
              min_speedup: float = 1.0) -> List[str]:
        """Failures (empty when every checked app cleared ``min_speedup``).

        The comparison metric is wall time (sim time in ``sim_only`` mode):
        the acceptance bar for this optimization is real elapsed time, not
        just the modeled timeline.
        """
        failures: List[str] = []
        speedups = self.speedups()
        metric = "sim_speedup" if self.sim_only else "wall_speedup"
        for app in apps:
            entry = speedups.get(app)
            if entry is None:
                failures.append(f"{app}: no measurement")
                continue
            if entry[metric] < min_speedup:
                failures.append(
                    f"{app}: {metric}={entry[metric]:.2f}x "
                    f"< required {min_speedup:.2f}x"
                )
        for row in self.rows:
            if not row.verified:
                failures.append(
                    f"{row.app} agg={row.aggregation}: verification failed"
                )
        return failures


def _run_app(app: str, spec: ClusterSpec, scale: float, aggregation: int,
             instrument=None, container_sim_only: bool = False):
    """Run one HCL app once; returns (ops, sim_seconds, verified, agg).

    ``container_sim_only`` threads the containers' timing-only mode through
    to the apps.  Contig never gets it (its traversal reads stored values
    back), so sim-only sweeps keep it on real data.
    """
    from repro.apps import (
        run_contig_generation, run_isx, run_kmer_counting, synthesize_genome,
    )

    def sc(n: float) -> int:
        return max(1, round(n * scale))

    if app == "isx":
        res = run_isx("hcl", spec, keys_per_rank=sc(192),
                      aggregation=aggregation, instrument=instrument,
                      sim_only=container_sim_only)
        return res.total_keys, res.time_seconds, res.verified, res.agg_report
    data = synthesize_genome(
        genome_length=sc(600 * spec.nodes), num_reads=sc(48 * spec.nodes),
        read_length=60, k=15, seed=spec.nodes,
    )
    if app == "kmer":
        res = run_kmer_counting("hcl", spec, data, aggregation=aggregation,
                                instrument=instrument,
                                sim_only=container_sim_only)
        return res.total_kmers, res.time_seconds, res.verified, res.agg_report
    if app == "contig":
        res = run_contig_generation(
            "hcl", spec, data, aggregation=aggregation,
            read_cache=bool(aggregation), instrument=instrument,
        )
        ops = sum(max(0, len(r) - data.k + 1) for r in data.reads)
        return ops, res.time_seconds, res.verified, res.agg_report
    raise ValueError(f"unknown app {app!r}")


def run_agg_bench(
    scale: float = 1.0,
    nodes: int = 4,
    procs_per_node: int = 3,
    sweep: Sequence[int] = AGG_SWEEP,
    apps: Sequence[str] = BENCH_APPS,
    repeats: int = 2,
    sim_only: bool = False,
    trace: bool = False,
    collector: Optional[List[Tuple[str, object]]] = None,
    container_sim_only: bool = False,
) -> AggBenchReport:
    """Sweep aggregation buffer sizes over the Fig-7 apps.

    Wall time takes the best of ``repeats`` runs (wall clock is noisy; sim
    time and the coalescer counters are deterministic and identical across
    repeats).  ``sim_only`` drops the wall-clock fields entirely so the
    emitted JSON is bit-reproducible for the CI determinism diff.

    ``container_sim_only`` runs isx/kmer in the containers' timing-only
    mode (stubbed opaque payloads, cheap invariant verification) — the
    simulated timelines are bit-identical to full-data runs, so the flag
    is not recorded in the report: a ``container_sim_only`` sweep must
    byte-diff clean against a full-data sweep in ``sim_only`` JSON mode.

    Observability: pass a list as ``collector`` to receive one
    ``(label, sim)`` pair per (app, aggregation) combination — the CLI
    exports span logs and metrics snapshots from those simulators.
    ``trace=True`` additionally installs a span tracer on each collected
    run.  Both leave the report's content untouched: traced and untraced
    sweeps emit bit-identical ``BENCH_agg.json`` in ``sim_only`` mode.
    """
    report = AggBenchReport(scale, nodes, procs_per_node, list(sweep),
                            sim_only)
    for app in apps:
        for aggregation in sweep:
            best_wall: Optional[float] = None
            collected = False
            for _ in range(max(1, repeats) if not sim_only else 1):
                spec = ares_like(nodes=nodes, procs_per_node=procs_per_node)
                instrument = None
                if collector is not None and not collected:
                    sim_box: Dict[str, object] = {}

                    def instrument(hcl, box=sim_box):
                        box["sim"] = hcl.sim
                        if trace:
                            from repro.obs import install_tracer

                            install_tracer(hcl.sim)
                t0 = time.perf_counter()
                ops, sim_s, verified, agg = _run_app(
                    app, spec, scale, aggregation, instrument,
                    container_sim_only=container_sim_only,
                )
                wall = time.perf_counter() - t0
                if instrument is not None and "sim" in sim_box:
                    collector.append(
                        (f"{app}-agg{aggregation}", sim_box["sim"])
                    )
                    collected = True
                if best_wall is None or wall < best_wall:
                    best_wall = wall
            report.rows.append(AggBenchRow(
                app=app,
                aggregation=aggregation,
                read_cache=bool(aggregation) and app == "contig",
                ops=ops,
                sim_seconds=sim_s,
                wall_seconds=None if sim_only else best_wall,
                ops_per_sec=None if sim_only else ops / best_wall,
                verified=verified,
                agg=agg,
            ))
    return report


def emit_agg_json(report: AggBenchReport, path: str = "BENCH_agg.json") -> str:
    """Write the sweep + speedup summary next to the repo for CI diffing."""
    payload = {
        "benchmark": "aggregation_sweep",
        "speedups": report.speedups(),
        **asdict(report),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
