"""What the repo keeps is reached: every bench file, committed baseline
and bench subcommand has a CI runner, and importing the package loads no
dependency it does not declare.

A ``benchmarks/test_*.py`` file outside tier-1's testpaths runs only if a
CI job names it; one that no job names can break unnoticed.  Likewise a
``BENCH_*.json`` baseline no CI ``cmp`` checks pins nothing, and a
``repro.cli`` bench no CI step runs is a harness nobody exercises.
``networkx`` served an app that is gone, so nothing may pull it back into
the import graph.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workflow() -> str:
    return (ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")


def test_every_bench_file_is_run_by_a_ci_job():
    workflow = _workflow()
    benches = sorted(p.relative_to(ROOT).as_posix()
                     for p in (ROOT / "benchmarks").glob("test_*.py"))
    assert benches
    assert [b for b in benches if b not in workflow] == []


def test_every_baseline_is_the_reference_of_a_ci_cmp():
    gated = set(re.findall(r"\bcmp\s+\S+\s+(BENCH_\S+\.json)", _workflow()))
    baselines = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert baselines
    assert [b for b in baselines if b not in gated] == []


def test_every_bench_subcommand_is_run_by_a_ci_step():
    from repro.cli import BENCHES

    invoked = set(re.findall(r"repro\.cli\s+([a-z][a-z0-9-]*)", _workflow()))
    assert [h.name for h in BENCHES if h.name not in invoked] == []


def test_networkx_is_neither_declared_nor_imported():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "networkx" not in pyproject
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.apps, repro.harness; "
         "print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
