"""Figure 4 — RPC-over-RDMA overhead profiling (PAT-style time series).

Paper setup: two nodes, 40 clients on one, one target partition on the
other; each client issues 8192 x 4KB writes.  Intel PAT samples NIC-core
utilization, memory utilization and packets/s over time.  Reported shapes:

(a) NIC-core utilization: BCL ~60% (spiking to 90) vs HCL ~33% — the
    remote CAS traffic keeps the target NIC busy under BCL.
(b) Memory: BCL ramps up front (static init), HCL starts small and grows
    dynamically toward a similar footprint.
(c) Packets/s: BCL achieves ~4x lower packet rate and is slow to saturate
    (first seconds eaten by segment init); BCL takes 28 s total vs 10.5 s.

Scaled: 16 clients x 384 ops, sampled every 1.25 ms of simulated time (for
PAT's 1 s).  The experiment is ``repro.harness.figures.fig4``: each backend
is run once, both at the same absolute cadence, so BCL's longer run has
more samples; this file holds the paper's numbers and the shape assertions.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.harness.figures import FIGURES, fig4

#: the three panels + elapsed line, as ``repro.cli fig4`` prints them
RENDER = next(h.render for h in FIGURES if h.name == "fig4")


@pytest.mark.benchmark(group="fig4")
def test_fig4_profiling(benchmark, report):
    series, failures = run_once(benchmark, fig4)
    assert not failures, failures
    bcl_prof, hcl_prof = series["bcl"], series["hcl"]
    report(RENDER(series, None) + "\n\npaper: (a) BCL ~60% spiking to 90 vs "
           "HCL ~33%; (b) BCL ramps at init, HCL grows dynamically; (c) BCL "
           "~4x lower average packet rate; 28s vs 10.5s => 2.67x")

    # (total) BCL must be markedly slower end to end.
    assert bcl_prof["elapsed"] > 1.8 * hcl_prof["elapsed"]

    # (a) the CAS traffic keeps the target NIC busier under BCL — compare
    # the *active* phases (BCL's first seconds are the idle static init,
    # exactly as in the paper's Fig 4c).
    def active_mean(prof):
        vals = [u for u, p in zip(prof["nic_util"], prof["packets"]) if p > 0]
        return sum(vals) / len(vals) if vals else 0.0

    bcl_util = active_mean(bcl_prof)
    hcl_util = active_mean(hcl_prof)
    report(f"active-phase NIC utilization: BCL {bcl_util:.0f}% vs HCL "
           f"{hcl_util:.0f}% (paper: ~60-90% vs ~33%)")
    assert bcl_util > hcl_util

    # (b) BCL ramps to its FULL static footprint before serving a single
    # operation (Fig 4b: "increases at a constant rate for the first couple
    # of seconds"); HCL starts small and keeps growing during the run.
    first_active = next(
        i for i, p in enumerate(bcl_prof["packets"]) if p > 0
    )
    assert bcl_prof["mem"][first_active] == pytest.approx(
        bcl_prof["mem"][-1]
    ), "BCL footprint must be fully allocated before ops start"
    assert bcl_prof["mem"][0] < bcl_prof["mem"][-1], "init ramp visible"
    assert hcl_prof["mem"][0] < hcl_prof["mem"][-1]
    growth = [b <= a + 1e-9 for a, b in
              zip(hcl_prof["mem"][1:], hcl_prof["mem"][:-1])]
    assert all(growth), "HCL memory must grow monotonically"

    # (c) lower average BCL packet rate (it moves comparable volume over a
    # much longer run; paper reports a 4x gap, our BCL also sends extra
    # CAS packets which narrows the measured ratio).
    def mean_rate(prof):
        windows = prof["packets"][1:]  # the t = 0 point has no window
        return sum(windows) / len(windows)

    bcl_rate = mean_rate(bcl_prof)
    hcl_rate = mean_rate(hcl_prof)
    report(f"mean packet rate: HCL {hcl_rate:.3g}/s vs BCL {bcl_rate:.3g}/s "
           f"({hcl_rate / bcl_rate:.2f}x; paper ~4x)")
    assert hcl_rate > 1.15 * bcl_rate
