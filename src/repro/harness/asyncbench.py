"""A/B benchmark of the pipelined async-futures client.

``aggbench`` measures what destination-coalescing buys over one-op-per-
invocation; this harness measures what the *pipelined programming model*
buys on top of the best aggregated configuration.  The k-mer storm is run
three ways over identical input:

* **sync baseline** — ``BENCH_agg``'s buffer-512 k-mer row: generator-based
  ``upsert_buffered`` at the hand-tuned static threshold the ledger's
  aggregated rows also run at.
* **async static sweep** — the ``async_rmw`` futures API over the same
  static thresholds, with AIMD congestion windows armed.  Per-op futures
  ride the write combiner (including same-node partitions), so a rank
  issues its whole storm without yielding per op.
* **async auto** — the same async run with ``aggregation="auto"``: the
  self-tuning coalescer derives the flush threshold from observed flush
  efficiency and the Table-I overhead model, no knob set.

Every row records the application-result digest; the bench *asserts* all
digests are equal (the async pipeline reorders work, never results) and
that every run verified.  Alongside simulated time the rows capture the
serving SLO the windows protect — the p99 of the servers' receive-queue
wait — and the adaptive-state counters (``rpc/window_stalls``,
``auto_threshold``).  Every field is simulated, so same-argv runs emit a
byte-identical ``BENCH_async.json``; the host-time side of the same A/B
is the ledger's ``smallops_agg`` rows (``agg_kmer_sync512`` vs
``agg_kmer_auto``).

Used by ``python -m repro.cli asyncbench`` and the CI async-smoke job.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import ares_like
from repro.harness.driver import Harness, flag, positive_float, run_rows
from repro.harness.figures import AGG_SHAPES, app_input
from repro.harness.report import render_table
from repro.obs.registry import registry_of

__all__ = [
    "AsyncBenchRow",
    "AsyncBenchReport",
    "run_async_bench",
    "ASYNC_STATIC_SWEEP",
    "SYNC_BASELINE_AGG",
]

#: static thresholds swept through the async API (windows armed)
ASYNC_STATIC_SWEEP: Tuple[int, ...] = (64, 512)

#: the sync baseline's hand-tuned threshold (BENCH_agg's largest buffer)
SYNC_BASELINE_AGG: int = 512

#: how much slower than the best static run the auto-tuned one may be
AUTO_TOLERANCE = 0.10


@dataclass
class AsyncBenchRow:
    """One (mode, threshold) measurement of the k-mer storm."""

    mode: str                      # "sync" | "async"
    aggregation: str               # "512", "64", ..., or "auto"
    windows: bool
    ops: int                       # k-mers counted
    sim_seconds: float
    verified: bool
    digest: str                    # crc32 of the final histogram
    queue_wait_p99: float          # p99 server receive-queue wait (sim s)
    window_stalls: int             # ops queued behind a full cwnd
    auto_threshold: Optional[int]  # final self-tuned threshold (auto rows)
    agg: Optional[Dict] = None     # coalescer counters


@dataclass
class AsyncBenchReport:
    scale: float
    nodes: int
    procs_per_node: int
    rows: List[AsyncBenchRow] = field(default_factory=list)

    def baseline(self) -> Optional[AsyncBenchRow]:
        for row in self.rows:
            if row.mode == "sync":
                return row
        return None

    def auto_row(self) -> Optional[AsyncBenchRow]:
        for row in self.rows:
            if row.mode == "async" and row.aggregation == "auto":
                return row
        return None

    def best_static_async(self) -> Optional[AsyncBenchRow]:
        static = [r for r in self.rows
                  if r.mode == "async" and r.aggregation != "auto"]
        if not static:
            return None
        return min(static, key=lambda r: r.sim_seconds)

    def summary(self) -> Dict[str, float]:
        """Headline simulated-time ratios: async-auto over the sync
        baseline, and the self-tuned threshold against the best hand-tuned
        static one."""
        out: Dict[str, float] = {}
        base, auto, static = (self.baseline(), self.auto_row(),
                              self.best_static_async())
        if base and auto:
            out["async_sim_speedup"] = base.sim_seconds / auto.sim_seconds
            out["queue_wait_p99_async"] = auto.queue_wait_p99
            out["queue_wait_p99_sync"] = base.queue_wait_p99
        if auto and static:
            # <= 1 + tolerance means self-tuning matched the hand-tuned knob
            out["auto_vs_best_static"] = auto.sim_seconds / static.sim_seconds
            out["best_static_aggregation"] = int(static.aggregation)
        return out

    def table_rows(self) -> List[List]:
        out: List[List] = []
        for row in self.rows:
            out.append([
                row.mode,
                row.aggregation,
                "on" if row.windows else "off",
                f"{row.sim_seconds:.6f}",
                f"{row.queue_wait_p99 * 1e6:.2f}",
                row.window_stalls,
                row.auto_threshold if row.auto_threshold is not None else "-",
                row.digest,
            ])
        return out

    def check(self, min_speedup: float = 1.0) -> List[str]:
        """Failures (empty = pass).

        * every row verified, all digests identical (results, not just
          timings, must survive the reordering pipeline);
        * async-auto beats the sync baseline by ``min_speedup`` in
          simulated time (by default the pipeline must at least not
          regress the modeled timeline);
        * the self-tuned threshold lands within :data:`AUTO_TOLERANCE` of the
          best hand-tuned static run.
        """
        failures: List[str] = []
        for row in self.rows:
            if not row.verified:
                failures.append(
                    f"{row.mode} agg={row.aggregation}: verification failed"
                )
        digests = {r.digest for r in self.rows}
        if len(digests) > 1:
            failures.append(
                f"application results diverged across modes: {sorted(digests)}"
            )
        base, auto = self.baseline(), self.auto_row()
        if base is None or auto is None:
            failures.append("missing sync baseline or async-auto row")
            return failures
        summary = self.summary()
        speedup = summary["async_sim_speedup"]
        if speedup < min_speedup:
            failures.append(
                f"async sim_speedup={speedup:.2f}x "
                f"< required {min_speedup:.2f}x"
            )
        ratio = summary.get("auto_vs_best_static")
        if ratio is not None and ratio > 1.0 + AUTO_TOLERANCE:
            failures.append(
                f"auto-tuned threshold {ratio:.2f}x slower than best "
                f"static (allowed {1.0 + AUTO_TOLERANCE:.2f}x)"
            )
        return failures


def _run_once(spec, data, aggregation, async_api: bool, window,
              instrument=None):
    """One k-mer run; returns (result, p99, stalls, auto_thr)."""
    from repro.apps import run_kmer_counting

    box: Dict[str, object] = {}

    def hook(hcl):
        box["sim"] = hcl.sim
        if instrument is not None:
            instrument(hcl)

    res = run_kmer_counting(
        "hcl", spec, data, aggregation=aggregation,
        async_api=async_api, window=window, instrument=hook,
    )
    metrics = registry_of(box["sim"])
    qw = metrics.merged_histogram("/queue_wait", "rpc")
    p99 = qw.quantile(0.99) if qw.n else 0.0
    stalls = int(metrics.counter("rpc/window_stalls").value)
    auto_thr = None
    agg = (res.agg_report or {}).get("aggregation") or {}
    if agg.get("auto"):
        auto_thr = int(agg["auto_threshold"])
    return res, p99, stalls, auto_thr


def run_async_bench(
    scale: float = 1.0,
    nodes: int = 4,
    procs_per_node: int = 3,
    instrument=None,
) -> AsyncBenchReport:
    """A/B the pipelined async client against the aggregated sync path.

    All rows run the exact workload ``aggbench`` uses (the same
    ``AGG_SHAPES`` genome, same topology), so the sync baseline's
    ``sim_seconds`` must match the committed ``BENCH_agg.json`` row
    bit-for-bit — drift there means a behavior change, not noise.

    ``instrument`` is handed to each row, labelled ``<mode>-<aggregation>``
    (``sync-512``, ``async-auto``, ...).  It never changes the report.
    """
    data = app_input("kmer", AGG_SHAPES["kmer"], nodes, scale)

    def run_row(row, hook):
        _mode, aggregation, async_api, window = row
        spec = ares_like(nodes=nodes, procs_per_node=procs_per_node)
        return _run_once(spec, data, aggregation, async_api, window, hook)

    #: (mode, aggregation, async_api, window)
    plan = [("sync", SYNC_BASELINE_AGG, False, None)]
    plan += [("async", agg, True, True) for agg in ASYNC_STATIC_SWEEP]
    plan += [("async", "auto", True, True)]
    rows = [(f"{row[0]}-{row[1]}", row) for row in plan]
    results = run_rows(rows, run_row, instrument)
    report = AsyncBenchReport(scale, nodes, procs_per_node)
    for (mode, aggregation, _api, window), (res, p99, stalls, auto_thr) in zip(
            plan, results):
        report.rows.append(AsyncBenchRow(
            mode=mode,
            aggregation=str(aggregation),
            windows=bool(window),
            ops=res.total_kmers,
            sim_seconds=res.time_seconds,
            verified=res.verified,
            digest=res.digest,
            queue_wait_p99=p99,
            window_stalls=stalls,
            auto_threshold=auto_thr,
            agg=(res.agg_report or {}).get("aggregation"),
        ))
    return report


def _payload(report: AsyncBenchReport) -> Dict:
    return {
        "benchmark": "async_pipeline",
        "summary": report.summary(),
        **asdict(report),
    }


def _render(report: AsyncBenchReport, args) -> str:
    lines = [render_table(
        f"Async pipeline A/B (scale={report.scale}, "
        f"{report.nodes}x{report.procs_per_node} ranks)",
        ["mode", "buffer", "windows", "sim (s)",
         "qw p99 (us)", "stalls", "auto_thr", "digest"],
        report.table_rows(),
    )]
    summary = report.summary()
    speedup = summary.get("async_sim_speedup")
    if speedup is not None:
        lines.append(f"  async-auto over sync baseline: {speedup:.2f}x sim")
    ratio = summary.get("auto_vs_best_static")
    if ratio is not None:
        lines.append(f"  auto vs best static (buffer="
                     f"{summary['best_static_aggregation']}): {ratio:.2f}x")
    return "\n".join(lines)


HARNESS = Harness(
    name="asyncbench",
    help="A/B the pipelined async-futures client (AIMD windows + "
         "self-tuning coalescer) against the aggregated sync path",
    stem="async",
    shared=dict(scale=1.0, nodes=4, procs=3, emit="BENCH_async.json"),
    flags=(
        flag("--min-speedup", type=positive_float, default=1.0,
             help="--check fails unless async-auto clears this simulated "
                  "speedup with identical digests and matches the best "
                  "static threshold within 10%% (default 1.0)"),
    ),
    run=lambda a, instrument: run_async_bench(
        scale=a.scale, nodes=a.nodes, procs_per_node=a.procs,
        instrument=instrument),
    render=_render,
    emit=lambda report: {"": _payload(report)},
    check=lambda report, a: report.check(min_speedup=a.min_speedup),
    flight_interval=1e-5,
    flight_select=("rpc/", "/ops", "coalesce/", "rpcc*"),
)
