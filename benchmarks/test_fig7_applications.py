"""Figure 7 — real workloads, weak-scaled 8 -> 64 nodes in the paper.

(a) **ISx** — BCL 686 s at 64 nodes vs HCL 57 s (12x); BCL scales
    linearly in cost, HCL sub-linearly (the priority queue sorts data as
    it arrives, hiding the sort behind communication).
(b) **Meraculous contig generation** — HCL 1.8x faster at the smallest
    scale to 12x at the largest.
(c) **Meraculous k-mer counting** — HCL 2.17x to 8x faster.

Scaled: nodes 2 -> 8 with 3 procs/node, weak-scaled inputs (keys/reads
grow with nodes).  All runs *verify their outputs* (sortedness, exact
histogram, genome-substring contigs) before timing is reported.  The sweep
is ``repro.harness.figures.fig7`` over its ``FIG7_SHAPES`` inputs; this file
holds the sweep points, the paper's numbers and the shape assertions.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.harness import render_series
from repro.harness.figures import fig7

NODE_SWEEP = [2, 4, 8]
PROCS = 3

PAPER = {
    "isx": "Fig 7a — ISx time (s), weak scaling "
           "(paper at 64 nodes: BCL 686 s vs HCL 57 s = 12x)",
    "contig": "Fig 7b — contig generation time (s), weak scaling "
              "(paper: HCL 1.8x faster at 8 nodes to 12x at 64)",
    "kmer": "Fig 7c — k-mer counting time (s), weak scaling "
            "(paper: HCL 2.17x to 8x faster)",
}


def _run(app, benchmark, report, scale):
    """One asserted Fig 7 sweep: every run verified (and, for contig, the
    same contigs either way); returns (hcl seconds, speedups)."""
    series, failures = run_once(
        benchmark, lambda: fig7(app, NODE_SWEEP, PROCS, scale))
    assert not failures, failures
    hcl_t, bcl_t = series["hcl_s"], series["bcl_s"]
    ratios = [b / h for h, b in zip(hcl_t, bcl_t)]
    report(render_series(
        PAPER[app], "nodes", NODE_SWEEP,
        {"bcl (s)": bcl_t, "hcl (s)": hcl_t, "speedup": ratios},
        y_format=lambda v: f"{v:.4g}",
    ))
    return hcl_t, ratios


@pytest.mark.benchmark(group="fig7")
def test_fig7a_isx(benchmark, report, scale):
    hcl_t, ratios = _run("isx", benchmark, report, scale)
    # HCL wins at every scale; gap in the paper's order of magnitude.
    assert all(r > 2.0 for r in ratios), ratios
    assert ratios[-1] > 5.0, f"largest-scale speedup {ratios[-1]:.1f}x"
    # HCL scales sub-linearly (paper: ~1.4x per node doubling): time must
    # grow by less than the 4x node-count growth across the sweep.
    assert hcl_t[-1] / hcl_t[0] < NODE_SWEEP[-1] / NODE_SWEEP[0]


@pytest.mark.benchmark(group="fig7")
def test_fig7b_contig_generation(benchmark, report, scale):
    _hcl_t, ratios = _run("contig", benchmark, report, scale)
    # HCL wins clearly at every scale.  (Paper's gap *grows* 1.8x -> 12x
    # with node count; ours stays in the 1.4-2.2x band — the simulated
    # fabric doesn't reproduce the congestion collapse BCL suffered at 64
    # real nodes.  Recorded as a deviation in EXPERIMENTS.md.)
    assert all(r > 1.25 for r in ratios), ratios


@pytest.mark.benchmark(group="fig7")
def test_fig7c_kmer_counting(benchmark, report, scale):
    _hcl_t, ratios = _run("kmer", benchmark, report, scale)
    assert all(r > 1.5 for r in ratios), ratios
