"""A/B benchmark of the transparent op-coalescing buffers.

Every remote invocation costs a fixed cascade (request, resource grants,
response); with destination-coalescing N buffered ops ride ONE batch
invocation instead of N.  This harness runs the Fig-7 application kernels
(k-mer counting, contig generation, ISx) with aggregation off and across
a sweep of buffer sizes, and records simulated time and the
coalescer/cache counters into ``BENCH_agg.json``.  Every field is
simulated, so same-argv runs emit the same bytes; what the coalescer buys
in host time is the ledger's ``smallops_rpc`` vs ``smallops_agg`` rows.

Used by ``python -m repro.cli aggbench`` and the CI benchmark smoke job
(which asserts that the aggregated contig run beats the unaggregated one
at ``--scale 0.25``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import ares_like
from repro.harness.driver import Harness, flag, positive_float, run_rows
from repro.harness.figures import AGG_SHAPES, run_app
from repro.harness.report import render_table

__all__ = [
    "AggBenchRow",
    "AggBenchReport",
    "run_agg_bench",
    "AGG_SWEEP",
    "BENCH_APPS",
]

#: Buffer sizes swept against the unaggregated (0) baseline.
AGG_SWEEP: Tuple[int, ...] = (0, 8, 64, 512)

#: Apps benchmarked, in run order.
BENCH_APPS: Tuple[str, ...] = ("kmer", "contig", "isx")

#: Apps whose best aggregated run ``--check`` holds to ``--min-speedup``.
CHECKED_APPS: Tuple[str, ...] = ("contig", "kmer")


@dataclass
class AggBenchRow:
    """One (app, buffer-size) measurement."""

    app: str
    aggregation: int
    read_cache: bool
    ops: int  # app-level operations (k-mers merged / keys scattered)
    sim_seconds: float
    verified: bool
    agg: Optional[Dict] = None     # coalescer/cache counters (aggregated runs)


@dataclass
class AggBenchReport:
    scale: float
    nodes: int
    procs_per_node: int
    sweep: List[int]
    rows: List[AggBenchRow] = field(default_factory=list)

    def baseline(self, app: str) -> Optional[AggBenchRow]:
        for row in self.rows:
            if row.app == app and row.aggregation == 0:
                return row
        return None

    def best_aggregated(self, app: str) -> Optional[AggBenchRow]:
        """The aggregated row with the lowest simulated time for ``app``."""
        agg_rows = [r for r in self.rows
                    if r.app == app and r.aggregation > 0]
        if not agg_rows:
            return None
        return min(agg_rows, key=lambda r: r.sim_seconds)

    def speedups(self) -> Dict[str, Dict[str, float]]:
        """Per-app best-aggregated-vs-baseline speedups."""
        out: Dict[str, Dict[str, float]] = {}
        for app in dict.fromkeys(r.app for r in self.rows):
            base, best = self.baseline(app), self.best_aggregated(app)
            if base is None or best is None:
                continue
            out[app] = {
                "aggregation": best.aggregation,
                "sim_speedup": base.sim_seconds / best.sim_seconds,
            }
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
                f"{agg.get('ops_per_flush', 0):.1f}" if agg else "-",
                f"{cache.get('hit_rate', 0):.2f}" if cache else "-",
            ])
        return out

    def check(self, min_speedup: float = 1.0) -> List[str]:
        """Failures (empty when each of :data:`CHECKED_APPS`' simulated
        speedups cleared ``min_speedup``)."""
        failures: List[str] = []
        speedups = self.speedups()
        for app in CHECKED_APPS:
            entry = speedups.get(app)
            if entry is None:
                failures.append(f"{app}: no measurement")
                continue
            if entry["sim_speedup"] < min_speedup:
                failures.append(
                    f"{app}: sim_speedup={entry['sim_speedup']:.2f}x "
                    f"< required {min_speedup:.2f}x"
                )
        for row in self.rows:
            if not row.verified:
                failures.append(
                    f"{row.app} agg={row.aggregation}: verification failed"
                )
        return failures


def run_agg_bench(
    scale: float = 1.0,
    nodes: int = 4,
    procs_per_node: int = 3,
    sweep: Sequence[int] = AGG_SWEEP,
    apps: Sequence[str] = BENCH_APPS,
    instrument=None,
) -> AggBenchReport:
    """Sweep aggregation buffer sizes over the Fig-7 apps.

    ``instrument`` is handed to every (app, buffer) row, labelled
    ``<app>-agg<N>``; it never changes the report — instrumented and
    plain sweeps emit bit-identical ``BENCH_agg.json``.
    """
    def run_row(row, hook):
        app, aggregation = row
        spec = ares_like(nodes=nodes, procs_per_node=procs_per_node)
        return run_app(app, "hcl", spec, AGG_SHAPES[app], scale, aggregation,
                       hook)

    rows = [(f"{app}-agg{aggregation}", (app, aggregation))
            for app in apps for aggregation in sweep]
    results = run_rows(rows, run_row, instrument)
    report = AggBenchReport(scale, nodes, procs_per_node, list(sweep))
    for (_label, (app, aggregation)), (ops, res) in zip(rows, results):
        report.rows.append(AggBenchRow(
            app=app,
            aggregation=aggregation,
            read_cache=bool(aggregation) and app == "contig",
            ops=ops,
            sim_seconds=res.time_seconds,
            verified=res.verified,
            agg=res.agg_report,
        ))
    return report


def _payload(report: AggBenchReport) -> Dict:
    return {
        "benchmark": "aggregation_sweep",
        "speedups": report.speedups(),
        **asdict(report),
    }


def _render(report: AggBenchReport, args) -> str:
    lines = [render_table(
        f"Aggregation sweep (scale={report.scale}, "
        f"{report.nodes}x{report.procs_per_node} ranks)",
        ["app", "buffer", "sim (s)", "ops/flush", "hit rate"],
        report.table_rows(),
    )]
    for app, entry in sorted(report.speedups().items()):
        lines.append(f"  {app}: best sim speedup "
                     f"{entry['sim_speedup']:.2f}x "
                     f"(buffer={entry['aggregation']})")
    return "\n".join(lines)


HARNESS = Harness(
    name="aggbench",
    help="A/B the op-coalescing buffers over the Fig-7 apps",
    stem="agg",
    shared=dict(scale=1.0, nodes=4, procs=3, emit="BENCH_agg.json"),
    flags=(
        flag("--sweep", nargs="+", type=int, default=list(AGG_SWEEP),
             help="aggregation buffer sizes (0 = off baseline)"),
        flag("--apps", nargs="+", choices=list(BENCH_APPS),
             default=list(BENCH_APPS)),
        flag("--min-speedup", type=positive_float, default=1.0,
             help="--check fails unless contig+kmer clear this simulated "
                  "speedup (default 1.0)"),
    ),
    run=lambda a, instrument: run_agg_bench(
        scale=a.scale, nodes=a.nodes, procs_per_node=a.procs, sweep=a.sweep,
        apps=a.apps, instrument=instrument),
    render=_render,
    emit=lambda report: {"": _payload(report)},
    check=lambda report, a: report.check(min_speedup=a.min_speedup),
    flight_interval=1e-5,
    flight_select=("rpc/", "/ops", "coalesce/", "rpcc*"),
)
