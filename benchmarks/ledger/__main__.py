"""``python -m benchmarks.ledger run|agree`` (run from the repo root).

``run`` measures the workloads one after another, each in its own fresh
subprocess (``run.py``; one thread, sequentially -- the box has two
cores), prints every metric and writes one result file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchmarks.ledger import agree
from benchmarks.ledger.run import PIN_SEED, PINS_PATH
from benchmarks.ledger.workloads import WORKLOADS

RUN_PY = Path(__file__).resolve().parent / "run.py"


def run(args) -> int:
    names = args.workload or list(WORKLOADS)
    out = Path(args.out)
    records = {}
    status = 0
    for name in names:
        # the worker's full record travels through a file beside --out
        part = out.with_name(f"{out.name}.{name}.part")
        cmd = [sys.executable, str(RUN_PY), "--workload", name,
               "--seed", str(args.seed), "--reps", str(args.reps),
               "--trace", "1" if args.traced else "0", "--out", str(part)]
        if args.traced:
            cmd += ["--spans-dir", str(out.with_suffix(".spans"))]
        if args.update_pins:
            cmd.append("--skip-pin")
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        # everything but the driver's JSON line is for the reader
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        status = status or done.returncode
        if part.exists():
            records[name] = json.loads(part.read_text())
            part.unlink()
    result = {"schema": "ledger/1", "seed": args.seed, "reps": args.reps,
              "traced": args.traced, "workloads": records}
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    if args.update_pins:
        if args.seed != PIN_SEED:
            raise SystemExit(f"pins are recorded at seed {PIN_SEED}")
        pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
        pins.update({name: {"attempted": rec["attempted"],
                            "sim_digest": rec["sim_digest"]}
                     for name, rec in records.items()})
        PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"wrote {PINS_PATH}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="measure the workloads")
    p_run.add_argument("--workload", action="append",
                       choices=list(WORKLOADS),
                       help="repeat to choose several (default: all six)")
    p_run.add_argument("--reps", type=int, default=7)
    p_run.add_argument("--seed", type=int, default=PIN_SEED)
    p_run.add_argument("--traced", action="store_true",
                       help="add the cProfile and span-tracer passes")
    p_run.add_argument("--out", default="ledger_result.json")
    p_run.add_argument("--update-pins", action="store_true",
                       help="record this run's op counts and digests")
    p_agree = sub.add_parser("agree", help="compare two result files")
    p_agree.add_argument("a")
    p_agree.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args)
    return agree.main(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
