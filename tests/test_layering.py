"""The product does not import its tests, reads no host clock, starts no thread.

``src/repro`` is what gets installed: nothing in it may import
``benchmarks``, ``tests`` or a test-only dependency, and every experiment
subcommand must run from any directory with only ``src`` on the path.
Every instrument and artifact in it is on the simulated clock — host time
is measured by ``benchmarks/ledger`` alone — so it imports no stopwatch
and no profiler either.  Its concurrency is simulated too (charged CAS
counts, the NIC's per-region lock), so it imports no host-thread, process-pool
or event-loop module, and the local structures need no host lock.  A node
goes down only through the fault injector, so only ``fabric/faults.py``
marks one dead, and the containers never ask whether a plan is installed.
A region grows only through its node, so only ``fabric/node.py`` resizes
one.  Only the kernel pushes onto a simulator's event queue, and only
``repro.simnet`` drains it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FORBIDDEN = {"benchmarks", "tests", "pytest", "hypothesis"}
HOST_CLOCKS = {"time", "timeit", "cProfile", "profile", "pstats"}
HOST_THREADS = {"threading", "_thread", "multiprocessing", "concurrent", "asyncio"}

#: every experiment subcommand, at a shape that runs in a few seconds
COMMANDS = [
    ["fig1"],
    ["fig4", "--scale", "0.1"],
    ["fig5", "--sizes", "4096"],
    ["fig6", "--scale", "0.1", "--partitions", "1"],
    ["fig7", "--apps", "isx", "--nodes", "2", "--procs", "2", "--ops", "16"],
    ["microbench"],
]


def _imports(forbidden):
    """``file:line module`` for every absolute import of a forbidden
    top-level module under ``src/`` (function-level imports included)."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.relative_to(SRC)}:{node.lineno} {name}"
                          for name in names
                          if name.split(".")[0] in forbidden]
    return offenders


def test_src_imports_no_test_code():
    assert not _imports(FORBIDDEN)


def test_src_reads_no_host_clock():
    assert not _imports(HOST_CLOCKS)


def test_src_starts_no_host_thread():
    assert not _imports(HOST_THREADS)


def _ast_nodes(paths):
    """``(path relative to src, node)`` for every AST node in ``paths``."""
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield str(path.relative_to(SRC)), node


def test_core_reads_no_fault_plan():
    assert not [f"{path}:{node.lineno}" for path, node
                in _ast_nodes((SRC / "repro" / "core").rglob("*.py"))
                if isinstance(node, ast.Attribute) and node.attr == "faults"]


def test_only_the_fault_injector_takes_a_node_down():
    setters = {path for path, node in _ast_nodes(SRC.rglob("*.py"))
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Constant)
               and node.value.value is False
               and any(isinstance(t, ast.Attribute) and t.attr == "alive"
                       for t in node.targets)}
    assert setters == {"repro/fabric/faults.py"}


def test_only_the_node_resizes_a_region():
    """A region's ``size`` is written once, by ``Node.resize_region``
    (objects setting their own ``self.size`` at construction aside)."""
    writers = {path for path, node in _ast_nodes(SRC.rglob("*.py"))
               if isinstance(node, (ast.Assign, ast.AugAssign))
               for t in (node.targets if isinstance(node, ast.Assign)
                         else [node.target])
               if isinstance(t, ast.Attribute) and t.attr == "size"
               and not (isinstance(t.value, ast.Name) and t.value.id == "self")}
    assert writers == {"repro/fabric/node.py"}


def test_only_the_kernel_pushes_and_only_simnet_drains():
    """Every push draws one ``seq`` and only ``Simulator._drain`` pops, so
    ``events_processed`` is ``seq`` minus the queue depth.  A push that
    skipped ``seq`` would break that silently: outside ``simnet/core.py``
    nothing touches a simulator's ``_queue``, ``_seq``, ``_heappush`` or
    ``_push`` (an object's own ``self._queue`` aside), and only
    ``repro.simnet`` drives ``_drain``."""
    nodes = [(path, node) for path, node in _ast_nodes(SRC.rglob("*.py"))
             if isinstance(node, ast.Attribute)]
    pushers = {path for path, node in nodes
               if node.attr in {"_queue", "_seq", "_heappush", "_push"}
               and not (isinstance(node.value, ast.Name)
                        and node.value.id == "self")}
    assert pushers == {"repro/simnet/core.py"}
    drivers = {path for path, node in nodes if node.attr == "_drain"}
    assert drivers and all(p.startswith("repro/simnet/") for p in drivers)


@pytest.mark.parametrize("argv", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_experiment_commands_run_from_anywhere(argv, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
