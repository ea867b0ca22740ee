#!/usr/bin/env python3
"""Measure one ledger workload: the ``BENCHMARK.json`` command.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, then, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` -- every end-to-end metric of ``BENCHMARK.json``
with ``--trace 0``, every per-layer metric with ``--trace 1``.  Exits
non-zero when an output is incorrect, when the workload's op count drifted
from its pin, or when the system under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: seed the workload-drift pins in ``pins.json`` were recorded at
PIN_SEED = 7
PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="stop timed repetitions after this long")
    parser.add_argument("--reps", type=int, default=None,
                        help="stop after this many timed repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full result record here")
    parser.add_argument("--spans-dir", default=None,
                        help="with --trace 1: write span logs here")
    parser.add_argument("--skip-pin", action="store_true",
                        help="do not compare with pins.json (re-pinning)")
    return parser.parse_args(argv)


def check_pin(record: dict) -> str:
    """Compare a seed-7 record with its pin: ``""`` when equal, a note when
    only simulated values moved; raises when the op count differs (a
    changed default in ``src/`` silently changed the load)."""
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    pin = pins.get(record["workload"])
    if record["seed"] != PIN_SEED or pin is None:
        return ""
    if pin["attempted"] != record["attempted"]:
        raise SystemExit(
            f"workload drift: {record['workload']} attempted "
            f"{record['attempted']} ops, pinned {pin['attempted']} "
            f"(benchmarks/ledger/pins.json)")
    if pin["sim_digest"] != record["sim_digest"]:
        return (f"note: simulated metrics of {record['workload']} moved "
                f"(digest {record['sim_digest']}, pinned "
                f"{pin['sim_digest']})")
    return ""


def render(record: dict) -> str:
    lines = [f"== {record['workload']}  seed {record['seed']}  "
             f"{record['reps']} timed repetitions  "
             f"attempted {record['attempted']}  failed {record['failed']}  "
             f"refused {record['refused']}"]
    for name, entry in record["metrics"].items():
        lines.append(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")
    for name, spread in record["spread"].items():
        lines.append(f"  {name + ' (per repetition)':34s} "
                     f"median {spread['median']:.6g}  q1 {spread['q1']:.6g}"
                     f"  q3 {spread['q3']:.6g}  n {spread['n']}")
    for entry in record.get("top_functions", ()):
        lines.append(f"  top {entry['self_share']:6.1%} {entry['layer']:13s} "
                     f"{entry['function']}")
    return "\n".join(lines)


def driver_line(record: dict, trace: int) -> str:
    """The contract's last line: exactly the metrics ``BENCHMARK.json``
    lists for this mode (0 where a workload does not define one)."""
    from benchmarks.ledger.metrics import driver_tables

    listed = driver_tables()["per_layer" if trace else "end_to_end"]
    metrics = {
        m["name"]: record["metrics"].get(
            m["name"], {"value": 0.0, "unit": m["unit"]})
        for m in listed
    }
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # k-mer and contig timelines depend on string hashing: pin it, in
        # a fresh interpreter, before anything is imported.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv], env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.ledger.calib import ref_seconds_of

    def import_all():
        import benchmarks.ledger.worker  # noqa: F401  (imports repro)

    import_s = ref_seconds_of(import_all)
    from benchmarks.ledger.metrics import metric_table
    from benchmarks.ledger.worker import measure
    from benchmarks.ledger.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    record = measure(args.workload, args.seed, seconds=args.seconds,
                     reps=args.reps, trace=bool(args.trace),
                     spans_dir=args.spans_dir)
    record["metrics"]["harness.import_s"] = {
        "value": import_s, "unit": metric_table()["harness.import_s"].unit}
    print(render(record))
    if not args.skip_pin:
        note = check_pin(record)
        if note:
            print(note)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(driver_line(record, args.trace))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
