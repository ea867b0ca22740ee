"""Command-line interface: run reproduction experiments without pytest.

::

    python -m repro.cli list                 # what can I run?
    python -m repro.cli fig1                 # the motivating test case
    python -m repro.cli fig5 --sizes 4096 1048576
    python -m repro.cli fig7 --apps isx kmer --nodes 2 4
    python -m repro.cli sweep --nodes 2 4 8 --ops 64 --size 65536

Each command builds the same scaled experiment as the corresponding bench
in ``benchmarks/`` and prints the paper-style table.  The pytest benches
remain the canonical, asserted versions; the CLI is for interactive
exploration (changing sizes, node counts, providers) without editing code.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.config import KB, MB, ares_like
from repro.harness import Harness, render_series, render_table, run_bench
from repro.harness import aggbench, asyncbench, chaos, serving, telemetry
from repro.harness.driver import positive_float as _positive_float

#: the bench subcommands: one declared record each, all run by run_bench
BENCHES = (aggbench.HARNESS, asyncbench.HARNESS, chaos.HARNESS,
           telemetry.HARNESS, serving.HARNESS)


def _cmd_fig1(args) -> int:
    from benchmarks.test_fig1_motivation import _run_rpc, run_bcl, SCALE

    t_bcl, stages = run_bcl()
    t_cas = _run_rpc(lock_free=False)
    t_lf = _run_rpc(lock_free=True)
    print(render_table(
        "Fig 1 — motivating test",
        ["approach", "sim (s)", "extrapolated (s)", "speedup"],
        [["BCL", t_bcl, t_bcl * SCALE, 1.0],
         ["RPC with CAS", t_cas, t_cas * SCALE, t_bcl / t_cas],
         ["RPC lock-free", t_lf, t_lf * SCALE, t_bcl / t_lf]],
    ))
    return 0


def _cmd_fig5(args) -> int:
    from benchmarks import test_fig5_hybrid as f5

    sizes = args.sizes or f5.SIZES
    saved = f5.SIZES
    f5.SIZES = sizes
    try:
        for local, label in ((True, "intra-node"), (False, "inter-node")):
            sweep = f5._sweep(local=local)
            labels = [f"{s // KB}KB" if s < MB else f"{s // MB}MB"
                      for s in sizes]
            print(render_series(f"Fig 5 {label} bandwidth MB/s", "op size",
                                labels, sweep))
            print()
    finally:
        f5.SIZES = saved
    return 0


def _cmd_fig6(args) -> int:
    from benchmarks import conftest as bench_conf
    from benchmarks import test_fig6_scaling as f6

    series = {"hcl_umap_ins": [], "hcl_map_ins": [], "bcl_umap_ins": []}
    parts = args.partitions or f6.PART_SWEEP
    saved = bench_conf.get_scale()
    bench_conf.set_scale(args.scale)
    try:
        for p in parts:
            ui, _uf = f6._hcl_map_run(p, ordered=False)
            oi, _of = f6._hcl_map_run(p, ordered=True)
            bi, _bf = f6._bcl_map_run(p)
            series["hcl_umap_ins"].append(ui)
            series["hcl_map_ins"].append(oi)
            series["bcl_umap_ins"].append(bi)
    finally:
        bench_conf.set_scale(saved)
    print(render_series("Fig 6a — insert throughput op/s", "partitions",
                        parts, series))
    if args.emit:
        from repro.obs import write_json

        write_json({"partitions": list(parts), "series": series}, args.emit)
        print(f"wrote {args.emit}")
    return 0


def _cmd_fig7(args) -> int:
    from repro.apps import (
        run_contig_generation, run_isx, run_kmer_counting, synthesize_genome,
    )

    def sc(n: int) -> int:
        return max(1, round(n * args.scale))

    apps = args.apps or ["isx", "kmer", "contig"]
    nodes_sweep = args.nodes or [2, 4, 8]
    hcl_only = args.hcl_only
    for app in apps:
        rows = []
        for nodes in nodes_sweep:
            spec = ares_like(nodes=nodes, procs_per_node=args.procs)
            b = None
            if app == "isx":
                h = run_isx("hcl", spec, keys_per_rank=sc(args.ops),
                            aggregation=args.aggregation)
                if not hcl_only:
                    b = run_isx("bcl", spec, keys_per_rank=sc(args.ops))
            else:
                data = synthesize_genome(
                    genome_length=sc(300 * nodes), num_reads=sc(24 * nodes),
                    read_length=60, k=15, seed=nodes,
                )
                if app == "kmer":
                    h = run_kmer_counting(
                        "hcl", spec, data, aggregation=args.aggregation)
                    if not hcl_only:
                        b = run_kmer_counting("bcl", spec, data)
                else:
                    h = run_contig_generation(
                        "hcl", spec, data, aggregation=args.aggregation,
                        read_cache=bool(args.aggregation),
                    )
                    if not hcl_only:
                        b = run_contig_generation("bcl", spec, data)
            assert h.verified, f"{app} (hcl) failed verification"
            if b is None:
                rows.append([nodes, "-", h.time_seconds, "-"])
            else:
                assert b.verified, f"{app} (bcl) failed verification"
                rows.append([nodes, b.time_seconds, h.time_seconds,
                             b.time_seconds / h.time_seconds])
        print(render_table(
            f"Fig 7 — {app} weak scaling",
            ["nodes", "bcl (s)", "hcl (s)", "speedup"], rows,
        ))
        print()
    return 0


def _cmd_sweep(args) -> int:
    """Free-form insert-throughput sweep over nodes/ops/size/provider."""
    from repro.core import HCL
    from repro.harness import Blob

    rows = []
    for nodes in args.nodes:
        spec = ares_like(nodes=nodes, procs_per_node=args.procs)
        hcl = HCL(spec, provider=args.provider)
        m = hcl.unordered_map("m", partitions=nodes,
                              initial_buckets=8 * args.procs * args.ops)

        def body(rank):
            for i in range(args.ops):
                yield from m.insert(rank, (rank, i), Blob(args.size))

        hcl.run_ranks(body)
        total = spec.total_procs * args.ops
        rows.append([nodes, spec.total_procs, hcl.now,
                     total / hcl.now,
                     total * args.size / hcl.now / MB])
    print(render_table(
        f"unordered_map insert sweep ({args.size} B ops, "
        f"provider={args.provider})",
        ["nodes", "clients", "sim time (s)", "op/s", "MB/s"], rows,
    ))
    return 0


def _cmd_microbench(args) -> int:
    from repro.harness.microbench import run_microbench

    report = run_microbench(
        ares_like(nodes=2, procs_per_node=4), provider=args.provider
    )
    print(render_table(
        f"Simulated fabric microbenchmarks (provider={args.provider}; "
        "paper calibration: OSU ~4.5 GB/s, STREAM ~65 GB/s)",
        ["metric", "value"], report.rows(),
    ))
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import validate_chrome_trace, validate_span_log

    if args.validate:
        worst = 0
        for path in args.validate:
            validator = (validate_span_log if path.endswith(".jsonl")
                         else validate_chrome_trace)
            errors = validator(path)
            if errors:
                worst = 1
                print(f"{path}: INVALID ({len(errors)} error(s))")
                for err in errors[:20]:
                    print(f"  {err}", file=sys.stderr)
            else:
                print(f"{path}: OK")
        return worst

    # Demo mode: one traced app run, stage breakdown + tiling check.
    from repro.harness.aggbench import _run_app
    from repro.obs import STAGE_NAMES, Instruments, tracer_of

    instrument = Instruments(trace=args.emit or True)
    spec = ares_like(nodes=args.nodes, procs_per_node=args.procs)
    ops, sim_s, verified, _agg = _run_app(
        args.app, spec, args.scale, args.aggregation, instrument
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
    rpcs = [s for s in tracer.spans
            if s.name.startswith("rpc.") and s.name not in STAGE_NAMES]
    worst = max((abs(sum(c.duration for c in tracer.stage_children(r))
                     - r.duration) for r in rpcs), default=0.0)
    print(f"  {len(tracer)} spans over {len(rpcs)} rpcs; "
          f"sim time {sim_s:.6f}s, {ops} app ops, verified={verified}")
    print(f"  stage tiling: max |sum(stages) - e2e| = {worst:.3g}s")
    for line in instrument.write():
        print(line)
    return 0 if (verified and worst < 1e-9) else 1


def _cmd_obs_report(args) -> int:
    import json

    from repro.obs import (
        critpath_analyze, load_spans, validate_dashboard, write_dashboard,
    )

    if args.validate:
        errors = validate_dashboard(args.validate)
        if errors:
            print(f"{args.validate}: INVALID ({len(errors)} error(s))")
            for err in errors[:20]:
                print(f"  {err}", file=sys.stderr)
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
    compare = None
    diff = None
    if args.compare:
        if flight is None:
            print("obs-report: --compare needs --flight (run A)",
                  file=sys.stderr)
            return 2
        from repro.obs import diff_runs

        with open(args.compare, encoding="utf-8") as fh:
            compare = json.load(fh)
        diff = diff_runs(flight, compare, a_name=args.flight,
                         b_name=args.compare)
    critpath = None
    if args.spans:
        critpath = critpath_analyze(load_spans(args.spans),
                                    top_n=args.top_traces)
    metrics = None
    if args.metrics:
        with open(args.metrics, encoding="utf-8") as fh:
            metrics = json.load(fh)

    size = write_dashboard(args.out, flight=flight, critpath=critpath,
                           metrics=metrics, compare=compare, diff=diff,
                           title=args.title)
    errors = validate_dashboard(args.out)
    if errors:
        print(f"{args.out}: generated but INVALID "
              f"({len(errors)} error(s))", file=sys.stderr)
        for err in errors[:20]:
            print(f"  {err}", file=sys.stderr)
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
    from repro.obs import diff_paths, load_artifact, render_diff, \
        write_diff_json

    diff = diff_paths(args.a, args.b, rel_threshold=args.threshold,
                      top=args.top)
    print(render_diff(diff, max_rows=args.max_rows))
    if args.json:
        print(f"wrote {write_diff_json(diff, args.json)}")
    if args.md:
        with open(args.md, "w", encoding="utf-8") as fh:
            fh.write(render_diff(diff, max_rows=args.max_rows))
        print(f"wrote {args.md}")
    if args.html:
        from repro.obs import validate_dashboard, write_dashboard

        kind_a, doc_a = load_artifact(args.a)
        kind_b, doc_b = load_artifact(args.b)
        flight = doc_a if kind_a == "flight" else None
        compare = doc_b if (flight is not None and kind_b == "flight") \
            else None
        size = write_dashboard(
            args.html, flight=flight, compare=compare, diff=diff,
            title=f"A/B: {args.a} vs {args.b}",
        )
        errors = validate_dashboard(args.html)
        if errors:
            print(f"{args.html}: generated but INVALID "
                  f"({len(errors)} error(s))", file=sys.stderr)
            for err in errors[:20]:
                print(f"  {err}", file=sys.stderr)
            return 1
        print(f"wrote {args.html} ({size} bytes, valid)")
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
                            "(scheduler/* gauges included) as JSON")
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
    if "profile" in have:
        p.add_argument("--profile", action="store_true",
                       help="profile the bench run's wall time (cProfile) "
                            "and print per-subsystem shares + top functions")
        p.add_argument("--profile-out", nargs="?",
                       const=f"{stem}_profile.json", default=None,
                       metavar="PATH",
                       help="write the wall-profile JSON (implies --profile)")
        p.add_argument("--profile-folded", nargs="?",
                       const=f"{stem}_profile.folded", default=None,
                       metavar="PATH",
                       help="write folded stacks for flame-graph tools "
                            "(implies --profile)")


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

    sub.add_parser("fig1", help="motivating test").set_defaults(fn=_cmd_fig1)

    p5 = sub.add_parser("fig5", help="hybrid access bandwidth sweep")
    p5.add_argument("--sizes", nargs="+", type=int, default=None)
    p5.set_defaults(fn=_cmd_fig5)

    p6 = sub.add_parser("fig6", help="container scaling")
    p6.add_argument("--partitions", nargs="+", type=int, default=None)
    p6.add_argument("--scale", type=_positive_float, default=1.0,
                    help="work multiplier (ops per rank; default 1.0)")
    p6.add_argument("--emit", nargs="?", const="BENCH_fig6.json",
                    default=None, metavar="PATH",
                    help="write the series as JSON (default BENCH_fig6.json)")
    p6.set_defaults(fn=_cmd_fig6)

    p7 = sub.add_parser("fig7", help="application kernels")
    p7.add_argument("--apps", nargs="+",
                    choices=["isx", "kmer", "contig"], default=None)
    p7.add_argument("--nodes", nargs="+", type=int, default=None)
    p7.add_argument("--procs", type=int, default=3)
    p7.add_argument("--ops", type=int, default=48,
                    help="ISx keys per rank")
    p7.add_argument("--scale", type=_positive_float, default=1.0,
                    help="work multiplier (keys/reads; default 1.0)")
    p7.add_argument("--aggregation", type=int, default=0,
                    help="HCL write-combining buffer size (0 = off)")
    p7.add_argument("--hcl-only", action="store_true",
                    help="skip the BCL comparison runs (full-paper-scale "
                         "sweeps where the client-driven baseline is "
                         "prohibitive)")
    p7.set_defaults(fn=_cmd_fig7)

    ps = sub.add_parser("sweep", help="free-form throughput sweep")
    ps.add_argument("--nodes", nargs="+", type=int, default=[2, 4, 8])
    ps.add_argument("--procs", type=int, default=6)
    ps.add_argument("--ops", type=int, default=32)
    ps.add_argument("--size", type=int, default=4 * KB)
    ps.add_argument("--provider", default="roce",
                    choices=["roce", "verbs", "tcp"])
    ps.set_defaults(fn=_cmd_sweep)
    pm = sub.add_parser("microbench", help="OSU-style fabric microbenchmarks")
    pm.add_argument("--provider", default="roce",
                    choices=["roce", "verbs", "tcp"])
    pm.set_defaults(fn=_cmd_microbench)

    for harness in BENCHES:
        _add_bench(sub, harness)

    pt = sub.add_parser(
        "trace",
        help="span tracing: validate exported traces, or run a traced demo",
    )
    pt.add_argument("--validate", nargs="+", default=None, metavar="PATH",
                    help="validate span logs (.jsonl) / Chrome traces "
                         "(.json) instead of running a demo")
    pt.add_argument("--app", choices=["isx", "kmer", "contig"],
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
    pO.add_argument("--top-traces", type=int, default=5,
                    help="slowest traces listed in the critical-path table")
    pO.add_argument("--compare", default=None, metavar="PATH",
                    help="second flight-recorder JSON: render the A/B "
                         "comparison dashboard (overlaid sparklines + "
                         "delta tables; --flight is run A)")
    pO.add_argument("--validate", default=None, metavar="PATH",
                    help="validate an existing dashboard instead of "
                         "rendering one (CI mode)")
    pO.set_defaults(fn=_cmd_obs_report)

    pD = sub.add_parser(
        "obs-diff",
        help="differential run forensics: diff two runs (BENCH JSON, "
             "flight JSON, span JSONL, metrics, profiles) and fingerprint "
             "the dominant cause",
    )
    pD.add_argument("a", metavar="A", help="reference run (baseline)")
    pD.add_argument("b", metavar="B", help="candidate run (fresh)")
    pD.add_argument("--threshold", type=_positive_float, default=0.10,
                    help="relative-change significance threshold "
                         "(default 0.10; wall-clock metrics use at least "
                         "0.50)")
    pD.add_argument("--top", type=int, default=40,
                    help="rows kept per delta section (default 40)")
    pD.add_argument("--max-rows", type=int, default=20,
                    help="rows printed per section in the report")
    pD.add_argument("--json", nargs="?", const="run_diff.json",
                    default=None, metavar="PATH",
                    help="write the structured RunDiff as JSON")
    pD.add_argument("--md", nargs="?", const="run_diff.md",
                    default=None, metavar="PATH",
                    help="write the markdown forensics report")
    pD.add_argument("--html", nargs="?", const="run_diff.html",
                    default=None, metavar="PATH",
                    help="render the A/B dashboard (overlaid sparklines "
                         "when both runs are flight recordings)")
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
