"""Command-line interface: run reproduction experiments without pytest.

::

    python -m repro.cli list                 # what can I run?
    python -m repro.cli fig1                 # the motivating test case
    python -m repro.cli fig4 --scale 0.5     # BCL vs HCL, PAT-style series
    python -m repro.cli fig5 --sizes 4096 1048576
    python -m repro.cli fig7 --apps isx kmer --nodes 2 4

Each command builds the same scaled experiment as the corresponding bench
in ``benchmarks/`` and prints the paper-style table — both call the one
definition of the figure in :mod:`repro.harness.figures`, the bench with
the sweep it asserts on, the CLI with its flags.  The pytest benches remain
the canonical, asserted versions; the CLI is for interactive exploration
(changing sizes, node counts, providers) without editing code, and runs
from any directory with only ``src`` on the path.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.config import ares_like
from repro.harness import Harness, render_table, run_bench
from repro.harness import chaos, figures, microbench, serving
from repro.harness.driver import positive_float as _positive_float

#: the bench subcommands: one declared record each, all run by run_bench
BENCHES = (chaos.HARNESS, serving.HARNESS)

#: the paper-figure and fabric subcommands: records too, with no
#: instruments and their verification always enforced
FIGURES = figures.FIGURES + (microbench.HARNESS,)


def _invalid(path: str, errors: List[str], generated: bool = False) -> bool:
    """Report a validator's ``errors`` on ``path`` — the verdict line (on
    stderr, as "generated but INVALID", for a file this command just
    wrote) and the first 20 errors; True when there are any."""
    if errors:
        print(f"{path}: {'generated but ' if generated else ''}INVALID "
              f"({len(errors)} error(s))",
              file=sys.stderr if generated else sys.stdout)
        for err in errors[:20]:
            print(f"  {err}", file=sys.stderr)
    return bool(errors)


def _cmd_trace(args) -> int:
    from repro.obs import validate_chrome_trace, validate_span_log

    if args.validate:
        worst = 0
        for path in args.validate:
            validator = (validate_span_log if path.endswith(".jsonl")
                         else validate_chrome_trace)
            if _invalid(path, validator(path)):
                worst = 1
            else:
                print(f"{path}: OK")
        return worst

    # Demo mode: one traced app run, stage breakdown + tiling check.
    from repro.obs import Instruments, critpath_analyze, tracer_of

    instrument = Instruments(trace=args.emit or True)
    spec = ares_like(nodes=args.nodes, procs_per_node=args.procs)
    ops, res = figures.run_app(
        args.app, "hcl", spec, figures.AGG_SHAPES[args.app], args.scale,
        args.aggregation, instrument
    )
    tracer = tracer_of(instrument.runs[0].sim)
    rows = [[name, int(row["n"]), f"{row['total'] * 1e6:.1f}",
             f"{row['mean'] * 1e9:.0f}"]
            for name, row in sorted(tracer.stage_breakdown().items())]
    print(render_table(
        f"traced {args.app} (scale={args.scale}, "
        f"{args.nodes}x{args.procs} ranks, agg={args.aggregation})",
        ["span", "n", "total (us)", "mean (ns)"], rows,
    ))
    tiling = critpath_analyze(tracer)
    rpcs = tiling["traces"] + tiling["skipped"]  # skipped: no stage spans
    worst = tiling["tiling_max_residual"]
    print(f"  {len(tracer)} spans over {rpcs} rpcs; "
          f"sim time {res.time_seconds:.6f}s, {ops} app ops, "
          f"verified={res.verified}")
    print(f"  stage tiling: max |sum(stages) - e2e| = {worst:.3g}s")
    for line in instrument.write():
        print(line)
    return 0 if (res.verified and worst < 1e-9
                 and not tiling["skipped"]) else 1


def _cmd_obs_report(args) -> int:
    import json

    from repro.obs import (
        critpath_analyze, load_spans, validate_dashboard, write_dashboard,
    )

    if args.validate:
        if _invalid(args.validate, validate_dashboard(args.validate)):
            return 1
        print(f"{args.validate}: OK")
        return 0

    if not (args.flight or args.spans or args.metrics):
        print("obs-report: need at least one of --flight/--spans/--metrics "
              "(or --validate PATH)", file=sys.stderr)
        return 2

    flight = None
    if args.flight:
        with open(args.flight, encoding="utf-8") as fh:
            flight = json.load(fh)
    critpath = None
    if args.spans:
        critpath = critpath_analyze(load_spans(args.spans))
    metrics = None
    if args.metrics:
        with open(args.metrics, encoding="utf-8") as fh:
            metrics = json.load(fh)

    size = write_dashboard(args.out, flight=flight, critpath=critpath,
                           metrics=metrics, title=args.title)
    if _invalid(args.out, validate_dashboard(args.out), generated=True):
        return 1
    print(f"wrote {args.out} ({size} bytes, valid)")

    if critpath and critpath.get("traces"):
        overall = critpath["overall"]
        rows = [[s["stage"], f"{s['total'] * 1e6:.1f}",
                 f"{100 * s['share']:.1f}%"]
                for s in overall["stages"]]
        print(render_table(
            f"Critical path — {overall['n']} traces, "
            f"{overall['e2e_total'] * 1e6:.1f}us total e2e",
            ["stage", "total (us)", "share"], rows,
        ))
        slow = critpath.get("slow")
        if slow and slow.get("n"):
            dominant = max(slow["stages"], key=lambda s: s["total"])
            print(f"  p{100 * slow['quantile']:g} tail ({slow['n']} traces "
                  f">= {slow['threshold'] * 1e6:.1f}us): dominated by "
                  f"{dominant['stage']} "
                  f"({100 * dominant['share']:.1f}% of tail e2e)")
    if flight:
        skew = flight.get("skew")
        if skew:
            print(f"  skew: imbalance {skew['imbalance']:.2f}, "
                  f"cv {skew['cv']:.2f}, "
                  f"{skew['hot_events']} hot-partition event(s)")
        slo = flight.get("slo")
        if slo:
            print(f"  slo: {slo['alerts']} alert(s) "
                  f"over {slo['ticks']} ticks")
    return 0


def _cmd_obs_diff(args) -> int:
    from repro.obs import diff_paths, render_diff, write_json

    try:
        diff = diff_paths(args.a, args.b)
    except (OSError, ValueError) as exc:
        print(f"obs-diff: {exc}", file=sys.stderr)
        return 2
    print(render_diff(diff))
    if args.json:
        print(f"wrote {write_json(diff, args.json)}")
    if args.md:
        with open(args.md, "w", encoding="utf-8") as fh:
            fh.write(render_diff(diff))
        print(f"wrote {args.md}")
    if args.fail_on_significant and diff["significant"]:
        print("obs-diff: significant differences found "
              f"({diff['fingerprint']['label']})", file=sys.stderr)
        return 1
    return 0


def _cmd_list(args) -> int:
    print("commands: " + " ".join(args.commands))
    print("full asserted reproduction: pytest benchmarks/ --benchmark-only -s")
    return 0


def _cluster_flags(p, shared) -> None:
    """Cluster shape: ``--nodes`` / ``--procs`` / ``--scale``."""
    if "nodes" in shared:
        p.add_argument("--nodes", type=int, default=shared["nodes"])
    if "procs" in shared:
        p.add_argument("--procs", type=int, default=shared["procs"],
                       help="processes (per node, on the cluster benches)")
    if "scale" in shared:
        p.add_argument("--scale", type=_positive_float,
                       default=shared["scale"],
                       help="work multiplier (default %(default)s)")


def _output_flags(p, harness: Harness) -> None:
    """Report output: ``--emit`` / ``--check``."""
    default = harness.shared["emit"]
    p.add_argument("--emit", nargs="?", const=default, default=None,
                   metavar="PATH",
                   help=f"write the report as JSON (default {default}; "
                        "PATH_<row> per row when the bench emits several)")
    if "check" in harness.gate:
        p.add_argument("--check", action="store_true",
                       help="exit 1, printing CHECK FAILED lines, unless "
                            "the bench's own checks pass")


def _instrument_flags(p, harness: Harness) -> None:
    """The instrument family — each flag only where the harness declares
    the instrument.  Artifacts are per row (``PATH_<row>``) unless the
    bench has a single row; none of them changes a simulated result."""
    stem, have = harness.stem, harness.instruments
    if "trace" in have:
        p.add_argument("--trace", nargs="?", const=f"{stem}_trace",
                       default=None, metavar="PREFIX",
                       help="trace every RPC of each row; "
                            "write PREFIX.jsonl + PREFIX_chrome.json")
    if "metrics" in have:
        p.add_argument("--metrics-out", nargs="?",
                       const=f"{stem}_metrics.json", default=None,
                       metavar="PATH",
                       help="write the metrics-registry snapshot "
                            "(scheduler/queue_depth included) as JSON")
    if "flight" in have:
        p.add_argument("--flight-recorder", nargs="?",
                       const=f"{stem}_flight.json", default=None,
                       metavar="PATH",
                       help="record registry series at a fixed sim-time "
                            "cadence; write the flight JSON")
        p.add_argument("--flight-interval", type=_positive_float,
                       default=harness.flight_interval,
                       help="flight-recorder cadence in sim seconds "
                            "(default %(default)s)")


def _add_bench(sub, harness: Harness) -> None:
    """One bench subcommand: the three shared flag groups + its own flags."""
    p = sub.add_parser(harness.name, help=harness.help)
    _cluster_flags(p, harness.shared)
    _output_flags(p, harness)
    _instrument_flags(p, harness)
    for flag, kwargs in harness.flags:
        p.add_argument(flag, **kwargs)
    p.set_defaults(fn=lambda args: run_bench(harness, args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="HCL reproduction experiments (CLUSTER 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for harness in FIGURES + BENCHES:
        _add_bench(sub, harness)

    pt = sub.add_parser(
        "trace",
        help="span tracing: validate exported traces, or run a traced demo",
    )
    pt.add_argument("--validate", nargs="+", default=None, metavar="PATH",
                    help="validate span logs (.jsonl) / Chrome traces "
                         "(.json) instead of running a demo")
    pt.add_argument("--app", choices=figures.FIG7_APPS,
                    default="isx", help="demo app to trace")
    pt.add_argument("--scale", type=_positive_float, default=0.25,
                    help="work multiplier for the demo run")
    pt.add_argument("--nodes", type=int, default=2)
    pt.add_argument("--procs", type=int, default=2,
                    help="rank processes per node")
    pt.add_argument("--aggregation", type=int, default=0,
                    help="buffer size for the demo (adds coalesce spans)")
    pt.add_argument("--emit", nargs="?", const="trace_demo",
                    default=None, metavar="PREFIX",
                    help="write the demo's PREFIX.jsonl + PREFIX_chrome.json")
    pt.set_defaults(fn=_cmd_trace)

    pO = sub.add_parser(
        "obs-report",
        help="render a self-contained HTML dashboard from flight-recorder "
             "JSON, span JSONL, and/or metrics snapshots",
    )
    pO.add_argument("--flight", default=None, metavar="PATH",
                    help="flight-recorder JSON (serving --flight-recorder "
                         "output; includes skew + SLO sections)")
    pO.add_argument("--spans", default=None, metavar="PATH",
                    help="span JSONL (trace --export output) for the "
                         "critical-path analysis")
    pO.add_argument("--metrics", default=None, metavar="PATH",
                    help="metrics snapshot JSON (--metrics-out output)")
    pO.add_argument("-o", "--out", default="obs_report.html", metavar="PATH",
                    help="dashboard output path (default obs_report.html)")
    pO.add_argument("--title", default="Observability report")
    pO.add_argument("--validate", default=None, metavar="PATH",
                    help="validate an existing dashboard instead of "
                         "rendering one (CI mode)")
    pO.set_defaults(fn=_cmd_obs_report)

    pD = sub.add_parser(
        "obs-diff",
        help="differential run forensics: diff two JSON reports "
             "(--emit) or metrics snapshots (--metrics-out) and "
             "fingerprint the dominant cause",
    )
    pD.add_argument("a", metavar="A", help="reference run (baseline)")
    pD.add_argument("b", metavar="B", help="candidate run (fresh)")
    pD.add_argument("--json", nargs="?", const="run_diff.json",
                    default=None, metavar="PATH",
                    help="write the structured RunDiff as JSON")
    pD.add_argument("--md", nargs="?", const="run_diff.md",
                    default=None, metavar="PATH",
                    help="write the markdown forensics report")
    pD.add_argument("--fail-on-significant", action="store_true",
                    help="exit 1 when significant differences are found "
                         "(CI self-diff mode)")
    pD.set_defaults(fn=_cmd_obs_diff)

    sub.add_parser("list", help="list commands").set_defaults(
        fn=_cmd_list, commands=tuple(sub.choices))
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
