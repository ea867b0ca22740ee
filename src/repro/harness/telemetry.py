"""Fig-4-style telemetry: NIC utilization, memory, packet rate over time.

Figure 4 of the paper argues HCL's case with time-series hardware
telemetry (Intel PAT on the real testbed).  This harness reproduces those
three series for the simulated cluster: a
:class:`~repro.simnet.trace.Sampler` records

* ``nic_utilization`` — windowed NIC-core busy %, averaged over nodes
  (Fig 4a),
* ``memory_utilization`` — cluster memory in use as % of capacity
  (Fig 4b),
* ``packet_rate`` — cluster-wide packets per simulated second (Fig 4c),

while an application kernel runs; ``repro.cli telemetry --emit`` writes
the series to ``BENCH_telemetry.json``.

Sampling is **two-pass** so it cannot perturb the measured run: a dry run
learns the workload's simulated duration, then an identical second run
arms samples (``Sampler.arm``) at evenly spaced absolute times across
that duration and routes ``cluster.run`` through ``Sampler.pump``.  The
pump takes each sample at its exact armed time while real events are
pending, but only ever advances the clock by processing real events or
by crossing idle gaps the untraced run would cross anyway — so armed
samples pause at phase boundaries (a multi-phase app's intermediate
``run()`` calls drain early) and lapse when the workload truly ends.
The sampled run's event timeline, results and final sim time are
therefore *identical* to the dry run; simulator-scheduled sample events
would instead stretch any phase whose events drain before the last
sample time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.config import ares_like
from repro.harness.driver import Harness, flag, run_rows
from repro.harness.figures import AGG_SHAPES, FIG7_APPS, run_app
from repro.harness.report import render_table
from repro.obs.registry import percentile_summary

__all__ = [
    "TELEMETRY_APPS",
    "FIG4_SERIES",
    "run_telemetry",
    "check_telemetry",
]

#: the Fig-4 kernels: one ISx and one contig-generation run (ISSUE floor)
TELEMETRY_APPS: Tuple[str, ...] = ("isx", "contig")

#: the three Fig-4 series, in figure order
FIG4_SERIES = ("nic_utilization", "memory_utilization", "packet_rate")


def _attach_probes(cluster, sampler) -> None:
    nic_probes = [node.nic.utilization_probe() for node in cluster.nodes]
    sampler.add_probe(
        "nic_utilization",
        lambda probes=tuple(nic_probes): sum(p() for p in probes) / len(probes),
    )
    sampler.add_probe("memory_utilization", cluster.memory_probe())
    sampler.add_probe("packet_rate", cluster.packets_probe())


def run_telemetry(
    scale: float = 1.0,
    nodes: int = 4,
    procs_per_node: int = 3,
    samples: int = 32,
    aggregation: int = 8,
    apps: Sequence[str] = TELEMETRY_APPS,
    instrument=None,
) -> Dict:
    """Run the Fig-4 apps with telemetry sampling; returns the report dict.

    ``instrument`` is called on each app's *sampled* run (labelled by the
    app) after the sampler has taken over ``cluster.run`` — so a second
    pump (a flight recorder) is refused rather than starving the sampler.
    """
    if samples < 2:
        raise ValueError("telemetry needs at least 2 samples")

    def run_row(app, hook):
        # Pass 1: dry run — learn the workload's simulated duration.
        spec = ares_like(nodes=nodes, procs_per_node=procs_per_node)
        _ops, dry = run_app(app, "hcl", spec, AGG_SHAPES[app], scale,
                            aggregation)
        duration = dry.time_seconds
        # Pass 2: identical run, with samples armed across the learned
        # duration and the cluster's run loop driven by the sampler pump.
        spec = ares_like(nodes=nodes, procs_per_node=procs_per_node)
        box: Dict = {}

        def arm(hcl):
            cluster = hcl.cluster
            sampler = cluster.sampler()
            _attach_probes(cluster, sampler)
            sampler.arm(
                (i + 1) * duration / samples for i in range(samples)
            )
            cluster.run = sampler.pump  # zero-perturbation sample driver
            box["sampler"] = sampler
            if hook is not None:
                hook(hcl)

        ops, res = run_app(app, "hcl", spec, AGG_SHAPES[app], scale,
                           aggregation, arm)
        sampler = box["sampler"]
        # Summary stats ride the shared obs quantile path; ``mean``/``max``
        # keep their historical spellings alongside the summary block.
        series = {
            name: {
                "times": list(ts.times),
                "values": list(ts.values),
                "mean": ts.mean(),
                "max": ts.max(),
                "summary": percentile_summary(list(ts.values)),
            }
            for name, ts in sampler.series.items()
        }
        return {
            "app": app,
            "ops": ops,
            "sim_seconds": res.time_seconds,
            "dry_run_seconds": duration,
            "verified": res.verified,
            "samples": len(sampler.series[FIG4_SERIES[0]]),
            "probe_errors": sampler.probe_errors,
            "series": series,
        }

    runs = run_rows([(app, app) for app in apps], run_row, instrument)
    return {
        "benchmark": "telemetry_fig4",
        "scale": scale,
        "nodes": nodes,
        "procs_per_node": procs_per_node,
        "aggregation": aggregation,
        "samples": samples,
        "series_names": list(FIG4_SERIES),
        "runs": runs,
    }


def check_telemetry(report: Dict) -> List[str]:
    """Sanity failures for CI: every run has all three non-empty series."""
    failures: List[str] = []
    for run in report["runs"]:
        for name in FIG4_SERIES:
            ts = run["series"].get(name)
            if not ts or not ts["values"]:
                failures.append(f"{run['app']}: series {name!r} is empty")
        if not run["verified"]:
            failures.append(f"{run['app']}: workload verification failed")
        if run["probe_errors"]:
            failures.append(
                f"{run['app']}: {run['probe_errors']} probe error(s)"
            )
    return failures


def _render(report: Dict, args) -> str:
    tables = []
    for run in report["runs"]:
        rows = [[name, len(ts["values"]), f"{ts['mean']:.4g}",
                 f"{ts['max']:.4g}"]
                for name, ts in sorted(run["series"].items())]
        tables.append(render_table(
            f"Fig 4 telemetry — {run['app']} "
            f"({run['ops']} ops in {run['sim_seconds']:.6f}s sim)",
            ["series", "samples", "mean", "max"], rows,
        ) + "\n")
    return "\n".join(tables)


HARNESS = Harness(
    name="telemetry",
    help="Fig-4-style time series: NIC %%, memory %%, packet rate",
    stem="telemetry",
    shared=dict(scale=1.0, nodes=4, procs=3, emit="BENCH_telemetry.json"),
    flags=(
        flag("--samples", type=int, default=32,
             help="sample points across the run (default 32)"),
        flag("--aggregation", type=int, default=8,
             help="write-combining buffer size (0 = off)"),
        flag("--apps", nargs="+", choices=list(FIG7_APPS),
             default=list(TELEMETRY_APPS),
             help="apps to sample (default: isx contig)"),
    ),
    run=lambda a, instrument: run_telemetry(
        scale=a.scale, nodes=a.nodes, procs_per_node=a.procs,
        samples=a.samples, aggregation=a.aggregation, apps=a.apps,
        instrument=instrument),
    render=_render,
    emit=lambda report: {"": report},
    check=lambda report, a: check_telemetry(report),
    # the armed Sampler already owns cluster.run: no flight recorder
    instruments=("trace", "metrics", "profile"),
)
