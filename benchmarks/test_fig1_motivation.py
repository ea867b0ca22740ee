"""Figure 1 — the motivating test case.

Paper setup: 40 clients on one node issue 8192 insert() calls of 4KB each
against a hashmap partition on a *different* node.  Three strategies:

1. **BCL** — client-side: remote CAS(reserve) + RDMA_WRITE + CAS(ready);
   paper: 1.062 s total, ~2/3 spent in the two remote CAS stages.
2. **RPC with CAS** — the same three steps bundled into one RPC executed at
   the target (CAS now local); paper: ~0.53 s, 2x faster.
3. **RPC lock-free** — the RPC server mutates a lock-free structure, no CAS
   at all; paper: ~0.42 s, 2.5x faster.

Scaled: 40 clients x 256 ops (x32 fewer ops than the paper; absolute times
are reported both raw and extrapolated to paper scale).  The experiment is
``repro.harness.figures.fig1``; this file holds the paper's numbers and the
shape assertions.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.harness import render_table
from repro.harness.figures import fig1


@pytest.mark.benchmark(group="fig1")
def test_fig1_motivating_case(benchmark, report):
    series, failures = run_once(benchmark, fig1)
    assert not failures, failures
    t_bcl, t_rpc_cas, t_rpc_lf = (series["bcl"], series["rpc_cas"],
                                  series["rpc_lockfree"])
    stages, scale = series["stages"], series["paper_scale"]

    rows = [
        ["BCL (client-side)", t_bcl, t_bcl * scale, 1.062, 1.0],
        ["RPC with CAS", t_rpc_cas, t_rpc_cas * scale, 0.53,
         t_bcl / t_rpc_cas],
        ["RPC lock-free", t_rpc_lf, t_rpc_lf * scale, 0.42,
         t_bcl / t_rpc_lf],
    ]
    cas_fraction = (stages["reserve"] + stages["ready"]) / max(
        stages["reserve"] + stages["write"] + stages["ready"], 1e-12
    )
    report(
        render_table(
            "Fig 1 — motivating test (scaled x%.0f; paper values at full "
            "scale)" % scale,
            ["approach", "sim time (s)", "extrapolated (s)", "paper (s)",
             "speedup vs BCL"],
            rows,
        )
        + "\n\nBCL per-client stage split: reserve %.3gs  write %.3gs  "
        "ready %.3gs  (CAS stages = %.0f%% of total; paper: ~2/3)"
        % (stages["reserve"], stages["write"], stages["ready"],
           100 * cas_fraction)
    )

    # Shape assertions from the paper.
    assert t_bcl / t_rpc_cas > 1.5, "RPC-with-CAS must be ~2x faster"
    assert t_rpc_lf < t_rpc_cas, "lock-free must beat RPC-with-CAS"
    assert t_bcl / t_rpc_lf > 2.0, "lock-free must be ~2.5x faster"
    assert cas_fraction > 0.5, "CAS stages must dominate BCL's time"
