"""Figure goldens: every series value of Figs 1/4/5/6/7, bit for bit.

``repro.harness.figures`` is the one definition of the paper's
experiments.  Before they moved there, each was run at the parent commit
through its old entry point — the helpers in ``benchmarks/test_fig*.py``,
the Fig 7 bench loops' ``run_*`` calls, the aggregation sweep's
``run_app`` — and the ``repr()`` of every series value frozen in
``tests/data/figure_goldens.json``: Fig 1's three times and stage split,
Fig 5 at 4 KiB / 64 KiB for both localities, Fig 6 maps and sets at
partitions 1 and 2 and queues at 8 clients with ``scale=0.25``, Fig 7
isx / contig / kmer at 2 nodes x 2 procs in the bench's shapes, and
``run_app`` at ``AGG_SHAPES`` (2 nodes x 2 procs, scale 0.1): kmer at
aggregation 0 and 8 then; kmer at 64 and 512 and contig and isx at 0, 8,
64 and 512 were added, recorded the same way, when the aggregation sweep
command was deleted and this golden became their one pin.  The functions
must reproduce all of it exactly, and return equal values when called
twice.  Fig 4 joined when it became a function:
its rows (``fig4(0.25)``: both backends' elapsed seconds, sample times and
three series) were recorded by that PR, which moved the sampling points on
purpose; the elapsed seconds are the parent bench's unsampled clocks.

BCL partitions k-mer strings by ``hash()``, so Fig 7's contig / kmer
``bcl_s`` depend on the hash seed: the golden holds them for
``PYTHONHASHSEED=0`` and they are checked in a subprocess run that way.

The file is frozen: a change that *means* to move a figure re-records it
through the pre-change entry points in the same PR and says so — never
regenerate it from the code under test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import ares_like
from repro.harness.figures import (
    AGG_SHAPES, fig1, fig4, fig5, fig6_maps, fig6_queues, fig6_sets, fig7,
    run_app,
)

GOLDEN = json.loads((Path(__file__).parent / "data"
                     / "figure_goldens.json").read_text(encoding="utf-8"))
SRC = Path(__file__).resolve().parent.parent / "src"


def _reprs(value):
    """``value`` with every float replaced by its ``repr``."""
    if isinstance(value, dict):
        return {key: _reprs(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reprs(v) for v in value]
    return repr(value) if isinstance(value, float) else value


def test_fig1():
    # one call: fig1 is the slow one, and tests/test_cli_bench.py reruns it
    # for its same-argv-same-bytes check
    series, failures = fig1()
    assert failures == []
    assert _reprs({k: series[k] for k in GOLDEN["fig1"]}) == GOLDEN["fig1"]


def test_fig4():
    golden = dict(GOLDEN["fig4"])
    series, failures = fig4(golden.pop("scale"))
    assert failures == []
    assert _reprs(series) == golden
    assert fig4(GOLDEN["fig4"]["scale"]) == (series, [])


@pytest.mark.parametrize("where,local", [("intra", True), ("inter", False)])
def test_fig5(where, local):
    series = fig5(GOLDEN["fig5"]["sizes"], local)
    assert _reprs(series) == GOLDEN["fig5"][where]
    assert fig5(GOLDEN["fig5"]["sizes"], local) == series


@pytest.mark.parametrize("which,fn,sweep", [
    ("maps", fig6_maps, "partitions"),
    ("sets", fig6_sets, "partitions"),
    ("queues", lambda *a: (fig6_queues(*a), []), "clients"),
])
def test_fig6(which, fn, sweep):
    golden = GOLDEN["fig6"]
    series, failures = fn(golden[sweep], golden["scale"])
    assert failures == []
    assert _reprs(series) == golden[which]
    assert fn(golden[sweep], golden["scale"]) == (series, [])


FIG7_APPS = ("isx", "contig", "kmer")


def _fig7(app):
    series, failures = fig7(app, GOLDEN["fig7"]["nodes"],
                            GOLDEN["fig7"]["procs"])
    assert failures == []
    return _reprs(series)


def test_fig7_under_hash_seed_0():
    code = ("import json, tests.test_figures_golden as t; "
            "print(json.dumps({app: t._fig7(app) for app in t.FIG7_APPS}))")
    root = str(SRC.parent)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True,
        text=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": "0",
             "PYTHONPATH": os.pathsep.join([str(SRC), root])})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {app: GOLDEN["fig7"][app]
                                       for app in FIG7_APPS}


@pytest.mark.parametrize("app", FIG7_APPS)
def test_fig7_second_call(app):
    """This process's hash seed is arbitrary, so only the seed-independent
    values are compared: all of HCL's, and BCL's for the integer-keyed ISx."""
    series, golden = _fig7(app), GOLDEN["fig7"][app]
    assert series["hcl_s"] == golden["hcl_s"]
    if app == "isx":
        assert series["bcl_s"] == golden["bcl_s"]


@pytest.mark.parametrize("app", FIG7_APPS)
@pytest.mark.parametrize("aggregation", [0, 8, 64, 512])
def test_run_app_at_agg_shapes(app, aggregation):
    golden = GOLDEN["run_app"]
    # the first-recorded app's points sit at the entry's top level
    points = golden if app == golden["app"] else golden[app]

    def once():
        spec = ares_like(nodes=golden["nodes"],
                         procs_per_node=golden["procs"])
        ops, res = run_app(app, "hcl", spec, AGG_SHAPES[app],
                           golden["scale"], aggregation)
        return {"ops": ops, "sim_seconds": repr(res.time_seconds),
                "verified": res.verified}

    assert once() == points[f"agg{aggregation}"]
    assert once() == points[f"agg{aggregation}"]
