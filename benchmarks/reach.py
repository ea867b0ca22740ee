"""Reach census: which ``src/`` functions no entry point outside tier-1 runs.

Runs every entry point below in its own subprocess under a function-level
``sys.setprofile`` hook and prints the ``src/repro`` functions that none of
them called, with their line counts::

    python benchmarks/reach.py              # every entry point (~4 min)
    python benchmarks/reach.py --check      # ... and hold them to the list
    python benchmarks/reach.py --list       # their names
    python benchmarks/reach.py --only examples ledger:isx_sort

A function no entry point reaches stays only with a reason:
``benchmarks/reach_allow.txt`` holds one line per such function,
``src/repro/<path>::<qualname>  <reason>  <note>``, the reason one of
:data:`REASONS`.  ``--check`` exits 1, printing each offender, when an
unreached function is not on the list or a listed one is reached.

The hook is a ``sitecustomize`` module on ``PYTHONPATH``, so it is
installed before anything imports ``repro`` (import-time functions count)
and it also reaches the interpreter ``benchmarks/ledger/run.py`` re-execs
itself into.  Each process appends the code objects it saw under
``src/repro`` to a file of its own; a function whose ``def`` (or first
decorator) line appears in none of them is unreached.  The pytest benches
run with ``--benchmark-disable``: otherwise pytest-benchmark clears the
profile hook while it times a round, and every figure body would drop out
of the census.  The CLI legs mirror the CI workflow's at smaller shapes.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: installed as ``sitecustomize``: record every code object entered under
#: ``src/repro``, append their locations to ``$REACH_OUT/<pid>`` at exit
HOOK = '''
import atexit, os, sys, threading
_src = os.environ["REACH_SRC"]
_codes = {}
def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _codes:
            _codes[id(code)] = code
def _dump():
    sys.setprofile(None)
    seen = {f"{c.co_filename}:{c.co_firstlineno}" for c in _codes.values()
            if c.co_filename.startswith(_src)}
    with open(os.path.join(os.environ["REACH_OUT"], str(os.getpid())),
              "a") as fh:
        fh.write("\\n".join(sorted(seen)) + "\\n")
atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''

SERVING_SMOKE = ("--nodes 4 --procs 4 --clients 1000 --tenants 4 --keys 512 "
                 "--queue-frac 0.5 --rate 2400 --ops-per-client 30 --seed 3 "
                 "--bounds off 16 --shed-retries 0").split()
EVERY = ["--trace", "--metrics-out", "--flight-recorder"]
PLANS = ["drop-heavy", "crash-heavy", "partition", "mixed"]
ALLOW_LIST = ROOT / "benchmarks" / "reach_allow.txt"
#: why a function no entry point reaches may stay (the one vocabulary of
#: the allow-list)
REASONS = {
    "paper-api": "an operation PAPER.md or Table I names",
    "oracle": "an invariant checker tests compare against",
    "error-path": "runs only when an operation fails, is retried or races",
    "input-check": "rejects malformed input",
    "format": "reads a branch of a wire or file format no run produces",
    "debug": "a __repr__",
    "roadmap": "kept for a named ROADMAP step",
}
#: a leg that runs longer than this is stuck (the slowest takes ~1 min)
LEG_TIMEOUT_S = 1800


def _cli(*argv: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *argv]


def entry_points() -> Dict[str, List[List[str]]]:
    """Entry point name -> the commands it runs, in order, from a scratch
    directory (so one leg can read what an earlier one wrote)."""
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    points: Dict[str, List[List[str]]] = {
        f"ledger:{w['name']}": [[
            sys.executable, str(ROOT / "benchmarks/ledger/run.py"),
            "--workload", w["name"], "--seed", "7", "--reps", "1"]]
        for w in workloads}
    points["benches"] = [[
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--benchmark-disable",
        *sorted(str(p) for p in (ROOT / "benchmarks").glob("test_*.py"))]]
    # fault-matrix: every plan, plain (traced), second seed, aggregated,
    # windowed, both
    points["cli:fault-matrix"] = [
        _cli("chaos-soak", "--plans", *PLANS, "--seed", "0",
             "--trace", "chaos_trace"),
        _cli("chaos-soak", "--plans", *PLANS, "--seed", "1"),
        _cli("chaos-soak", "--plans", *PLANS, "--seed", "0",
             "--aggregation", "8", "--windows"),
        _cli("trace", "--validate", *(f"chaos_trace_{p}.jsonl"
                                      for p in PLANS)),
    ]
    points["cli:determinism"] = [
        _cli("fig6", "--scale", "0.25", "--partitions", "2", "4",
             "--emit", "fig6.json"),
        _cli("serving", "--nodes", "2", "--procs", "2", "--clients", "100",
             "--tenants", "2", "--keys", "128", "--queue-frac", "0.5",
             "--rate", "20000", "--ops-per-client", "10", "--seed", "5",
             "--bounds", "off", "2", "--emit", "serving_small.json"),
    ]
    points["cli:instrument-smoke"] = [
        _cli("chaos-soak", "--plans", "mixed", "--seed", "0",
             "--aggregation", "8", "--emit", "soak.json", *EVERY),
        _cli("serving", *SERVING_SMOKE, "--emit", "serving.json", "--check",
             "--require-cliff", *EVERY),
        _cli("trace", "--validate", "serving_trace_b16.jsonl",
             "serving_trace_b16_chrome.json"),
        _cli("obs-report", "--flight", "serving_flight_b16.json",
             "--spans", "serving_trace_b16.jsonl",
             "--metrics", "serving_metrics_b16.json", "-o", "obs.html"),
        _cli("obs-report", "--validate", "obs.html"),
        _cli("trace", "--app", "isx"),
    ]
    # paper-scale, at a shape that runs in seconds
    points["cli:paper-scale"] = [
        _cli("fig7", "--apps", "isx", "kmer", "--nodes", "4", "--procs", "4",
             "--aggregation", "64", "--hcl-only", "--emit", "fig7.json"),
        _cli("fig6", "--scale", "1", "--partitions", "8",
             "--emit", "fig6_8.json"),
        _cli("serving", "--nodes", "8", "--clients", "2000",
             "--emit", "serving_fresh.json", "--check"),
        _cli("obs-diff", str(ROOT / "BENCH_serving.json"),
             "serving_fresh.json", "--md", "forensics.md"),
        _cli("list"),
    ]
    points["cli:paper-figures"] = [
        _cli("fig1"), _cli("fig4", "--scale", "0.25"),
        _cli("fig5", "--sizes", "4096"), _cli("microbench"),
    ]
    points["examples"] = [[sys.executable, str(p)]
                          for p in sorted((ROOT / "examples").glob("*.py"))]
    return points


def functions() -> Dict[Tuple[str, int], Tuple[str, int]]:
    """``(file, first line) -> (qualified name, line count)`` of every
    function under ``src/repro``; the first line is the first decorator's,
    as the code object records it."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                name = getattr(child, "name", None)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[(str(path), first)] = (
                        f"{prefix}{name}", child.end_lineno - first + 1)
                    walk(child, f"{prefix}{name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{name}.")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


def name_of(path: str, qualname: str) -> str:
    """A function's allow-list name: ``src/repro/<path>::<qualname>``."""
    return f"{Path(path).relative_to(ROOT).as_posix()}::{qualname}"


def allow_list() -> List[Tuple[str, str]]:
    """``(name, reason)`` per line of :data:`ALLOW_LIST`, in file order
    (``#`` comments and blank lines skipped)."""
    entries = []
    for line in ALLOW_LIST.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, reason = (line.split() + [""])[:2]
            entries.append((name, reason))
    return entries


def check(unreached: Set[str], reached: Set[str]) -> List[str]:
    """The allow-list's offenders: unreached functions it does not name,
    and names it lists that are reached or name no function.  A name
    defined twice in one scope is unreached if either definition is."""
    listed = {name for name, _reason in allow_list()}
    return ([f"unreached, not on the list: {n}"
             for n in sorted(unreached - listed)]
            + [f"listed, but reached: {n}"
               for n in sorted(listed & reached)]
            + [f"listed, no such function: {n}"
               for n in sorted(listed - unreached - reached)])


def run(names: List[str], points: Dict[str, List[List[str]]]) -> Set[str]:
    """Run the named entry points under the hook; every location reached."""
    seen: Set[str] = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hook_dir, out, work = (Path(tmp) / d for d in ("hook", "out", "work"))
        for d in (hook_dir, out, work):
            d.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, REACH_SRC=str(SRC), REACH_OUT=str(out),
                   PYTHONPATH=f"{hook_dir}:{ROOT / 'src'}:{ROOT}")
        for name in names:
            for argv in points[name]:
                try:
                    done = subprocess.run(argv, cwd=work, env=env,
                                          stdout=subprocess.DEVNULL,
                                          stderr=subprocess.PIPE, text=True,
                                          timeout=LEG_TIMEOUT_S)
                    status = "ok" if done.returncode == 0 else (
                        f"exit {done.returncode}: "
                        f"{done.stderr.strip()[-300:]}")
                except subprocess.TimeoutExpired:
                    status = f"killed after {LEG_TIMEOUT_S} s"
                print(f"  {name}: {' '.join(argv[1:4])} … {status}",
                      file=sys.stderr)
        for path in out.iterdir():
            seen |= set(path.read_text().split())
    return seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run these entry points (or name prefixes)")
    parser.add_argument("--list", action="store_true",
                        help="list the entry points and exit")
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 unless {ALLOW_LIST.name} names "
                             "exactly the unreached functions")
    args = parser.parse_args(argv)
    if args.check and args.only:
        parser.error("--check runs every entry point; drop --only")
    points = entry_points()
    if args.list:
        print("\n".join(points))
        return 0
    names = [n for n in points if not args.only
             or any(n == o or n.startswith(o) for o in args.only)]
    seen = run(names, points)
    table = functions()
    unreached = sorted((path, line) for path, line in table
                       if f"{path}:{line}" not in seen)
    lines = 0
    for path, line in unreached:
        name, count = table[(path, line)]
        lines += count
        print(f"{count:5d}  {Path(path).relative_to(ROOT)}:{line}  {name}")
    total = sum(count for _name, count in table.values())
    print(f"unreached: {len(unreached)} of {len(table)} functions, "
          f"{lines} of {total} function lines ({', '.join(names)})")
    if not args.check:
        return 0
    missed = {name_of(path, table[(path, line)][0])
              for path, line in unreached}
    hit = {name_of(path, name) for (path, _line), (name, _count)
           in table.items()} - missed
    offenders = check(missed, hit)
    for offender in offenders:
        print(offender)
    print(f"check: {len(offenders)} offender(s) against {ALLOW_LIST.name}")
    return 1 if offenders else 0


if __name__ == "__main__":
    sys.exit(main())
