"""Fig-4-style telemetry: NIC utilization, memory, packet rate over time.

Figure 4 of the paper argues HCL's case with time-series hardware
telemetry (Intel PAT on the real testbed).  This harness reproduces those
three series for the simulated cluster: three probes on the run's
:class:`~repro.obs.FlightRecorder` record

* ``nic_utilization`` — windowed NIC-core busy %, averaged over nodes
  (Fig 4a),
* ``memory_utilization`` — cluster memory in use as % of capacity
  (Fig 4b),
* ``packet_rate`` — cluster-wide packets per simulated second (Fig 4c),

at the recorder's fixed cadence while an application kernel runs;
``repro.cli telemetry --emit`` writes the series to
``BENCH_telemetry.json``.

Each app is simulated **once**.  The recorder is the one the run's
``instrument`` installed (``--flight-recorder``: its flight file then
carries the Fig-4 series beside the registry's), or one this harness
installs itself.  Either way its pump takes each sample at
its exact time while real events are pending and only ever advances the
clock by processing real events or by crossing idle gaps the unsampled
run would cross anyway — so the cadence pauses at phase boundaries (a
multi-phase app's intermediate ``run()`` calls drain early) and lapses
when the workload ends, and the run's event timeline, results and final
sim time are *identical* to an unsampled run's.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.config import ares_like
from repro.harness.driver import Harness, flag, run_rows
from repro.harness.figures import AGG_SHAPES, FIG7_APPS, run_app
from repro.harness.report import render_table
from repro.obs.registry import percentile_summary
from repro.obs.series import FlightRecorder, recorder_of

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

#: default sampling cadence in sim-seconds: 19 samples over ISx and 135
#: over contig generation at the committed shape
INTERVAL = 1e-4


def _attach_probes(cluster, recorder) -> None:
    nic_probes = [node.nic.utilization_probe() for node in cluster.nodes]
    recorder.add_probe(
        "nic_utilization",
        lambda probes=tuple(nic_probes): sum(p() for p in probes) / len(probes),
    )
    recorder.add_probe("memory_utilization", cluster.memory_probe())
    recorder.add_probe("packet_rate", cluster.packets_probe())


def run_telemetry(
    scale: float = 1.0,
    nodes: int = 4,
    procs_per_node: int = 3,
    interval: float = INTERVAL,
    aggregation: int = 8,
    apps: Sequence[str] = TELEMETRY_APPS,
    instrument=None,
) -> Dict:
    """Run the Fig-4 apps with telemetry sampling; returns the report dict.

    ``instrument`` is called on each app's run (labelled by the app).  If
    it installed a flight recorder the Fig-4 probes hang on that one, at
    its cadence; otherwise the run gets a recorder sampling every
    ``interval`` sim-seconds.
    """

    def run_row(app, hook):
        spec = ares_like(nodes=nodes, procs_per_node=procs_per_node)
        box: Dict = {}

        def arm(hcl):
            if hook is not None:
                hook(hcl)
            recorder = recorder_of(hcl.cluster) or FlightRecorder(
                hcl.sim, interval).install(hcl.cluster)
            _attach_probes(hcl.cluster, recorder)
            box["recorder"] = recorder

        ops, res = run_app(app, "hcl", spec, AGG_SHAPES[app], scale,
                           aggregation, arm)
        recorder = box["recorder"]
        # Summary stats ride the shared obs quantile path; ``mean``/``max``
        # keep their historical spellings alongside the summary block.
        series = {}
        for name in FIG4_SERIES:
            ts = recorder.series[name]
            series[name] = {
                "times": list(ts.times),
                "values": list(ts.values),
                "mean": ts.mean(),
                "max": ts.max(),
                "summary": percentile_summary(list(ts.values)),
            }
        return {
            "app": app,
            "ops": ops,
            "sim_seconds": res.time_seconds,
            "verified": res.verified,
            "interval": recorder.interval,
            "samples": len(recorder.series[FIG4_SERIES[0]]),
            "probe_errors": recorder.probe_errors,
            "series": series,
        }

    runs = run_rows([(app, app) for app in apps], run_row, instrument)
    return {
        "benchmark": "telemetry_fig4",
        "scale": scale,
        "nodes": nodes,
        "procs_per_node": procs_per_node,
        "aggregation": aggregation,
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
        flag("--aggregation", type=int, default=8,
             help="write-combining buffer size (0 = off)"),
        flag("--apps", nargs="+", choices=list(FIG7_APPS),
             default=list(TELEMETRY_APPS),
             help="apps to sample (default: isx contig)"),
    ),
    run=lambda a, instrument: run_telemetry(
        scale=a.scale, nodes=a.nodes, procs_per_node=a.procs,
        interval=a.flight_interval, aggregation=a.aggregation, apps=a.apps,
        instrument=instrument),
    render=_render,
    emit=lambda report: {"": report},
    check=lambda report, a: check_telemetry(report),
    flight_interval=INTERVAL,
    # beside the probes, what aggbench / asyncbench watch on these apps
    flight_select=("rpc/", "/ops", "coalesce/", "rpcc*"),
)
