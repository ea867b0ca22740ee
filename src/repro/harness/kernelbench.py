"""Wall-clock throughput microbenchmark of the DES kernel itself.

Every figure in the reproduction is bounded by how many simulation events
the kernel can retire per wall-clock second — the fabric, RPC, and
container models all reduce to timeouts, resource grants, and process
resumes.  This module measures that number on a fixed reference workload
(100 processes each yielding 2000 short timeouts, the shape of a busy
rank charging fabric costs) so the perf trajectory is tracked from PR to
PR in ``BENCH_kernel.json``.

Used by ``python -m repro.cli kernelbench`` and
``benchmarks/test_kernel_throughput.py``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict

from repro.harness.driver import Harness, flag, run_rows
from repro.harness.report import render_table
from repro.obs.exporters import write_json
from repro.simnet.core import Simulator

__all__ = [
    "KernelBenchReport",
    "run_kernel_bench",
    "kernel_events_per_sec",
    "emit_bench_json",
    "SEED_BASELINE_EVENTS_PER_SEC",
    "REFERENCE_PROCS",
    "REFERENCE_TIMEOUTS",
]

# The seed kernel measured on the reference workload before this
# optimization pass (200,200 events in 0.52 s — see docs/PERFORMANCE.md).
SEED_BASELINE_EVENTS_PER_SEC = 384_000

REFERENCE_PROCS = 100
REFERENCE_TIMEOUTS = 2000


@dataclass
class KernelBenchReport:
    """One measurement of kernel event throughput."""

    procs: int
    timeouts_per_proc: int
    events_processed: int
    events_recycled: int
    wall_seconds: float
    events_per_sec: float
    sim_seconds: float
    speedup_vs_seed: float

    def rows(self):
        return [
            ["workload", f"{self.procs} procs x {self.timeouts_per_proc} timeouts"],
            ["events processed", f"{self.events_processed:,}"],
            ["events recycled", f"{self.events_recycled:,}"],
            ["wall time", f"{self.wall_seconds:.3f} s"],
            ["throughput", f"{self.events_per_sec:,.0f} events/s"],
            ["vs seed baseline (~384k)", f"{self.speedup_vs_seed:.2f}x"],
        ]


def run_kernel_bench(
    procs: int = REFERENCE_PROCS,
    timeouts_per_proc: int = REFERENCE_TIMEOUTS,
    delay: float = 1e-6,
    instrument=None,
) -> KernelBenchReport:
    """Run the reference workload once and report wall-clock throughput.

    The workload is deliberately kernel-bound: each process charges
    ``timeouts_per_proc`` short timeouts back to back, which exercises the
    near-future lane, the timeout pool, and the inlined resume loop — the
    same three paths every fabric charge rides.

    There is no cluster here, so ``instrument`` is handed the bare
    :class:`Simulator` (before the clock starts).
    """
    sim = Simulator()
    if instrument is not None:
        instrument(sim)

    def worker():
        timeout = sim.timeout
        for _ in range(timeouts_per_proc):
            yield timeout(delay)

    t0 = time.perf_counter()
    for _ in range(procs):
        sim.process(worker())
    sim.run()
    wall = time.perf_counter() - t0

    stats = sim.kernel_stats()
    events = stats["events_processed"]
    evps = events / wall if wall > 0 else float("inf")
    return KernelBenchReport(
        procs=procs,
        timeouts_per_proc=timeouts_per_proc,
        events_processed=events,
        events_recycled=stats["events_recycled"],
        wall_seconds=wall,
        events_per_sec=evps,
        sim_seconds=sim.now,
        speedup_vs_seed=evps / SEED_BASELINE_EVENTS_PER_SEC,
    )


def kernel_events_per_sec(repeats: int = 3, instrument=None,
                          **kwargs) -> KernelBenchReport:
    """Best-of-``repeats`` measurement (wall clock is noisy; sim is not)."""
    [(best, _wall)] = run_rows(
        [("kernel", None)],
        lambda _row, hook: run_kernel_bench(instrument=hook, **kwargs),
        instrument, repeats,
    )
    return best


def _payload(report: KernelBenchReport) -> Dict:
    return {
        "benchmark": "kernel_events_per_sec",
        "seed_baseline_events_per_sec": SEED_BASELINE_EVENTS_PER_SEC,
        **asdict(report),
    }


def emit_bench_json(report: KernelBenchReport, path: str = "BENCH_kernel.json") -> str:
    """Write the measurement next to the repo so CI and future PRs can diff it."""
    return write_json(_payload(report), path)


HARNESS = Harness(
    name="kernelbench",
    help="DES kernel event-throughput microbenchmark",
    stem="kernel",
    # --emit is opt-in: the committed BENCH_kernel.json carries the
    # reference machine's wall numbers, so it only changes when asked to.
    shared=dict(procs=REFERENCE_PROCS, repeats=3, emit="BENCH_kernel.json"),
    flags=(
        flag("--timeouts", type=int, default=REFERENCE_TIMEOUTS,
             help="timeouts per process"),
    ),
    run=lambda a, instrument: kernel_events_per_sec(
        repeats=a.repeats, instrument=instrument, procs=a.procs,
        timeouts_per_proc=a.timeouts),
    render=lambda report, a: render_table(
        f"DES kernel throughput (wall clock; best of {a.repeats} runs)",
        ["metric", "value"], report.rows()),
    emit=lambda report: {"": _payload(report)},
    # no cluster to record and no RPC to trace
    instruments=("metrics", "profile"),
)
