"""Figure 5 — hybrid data access model bandwidth sweep.

Paper setup: each client issues 8192 writes (inserts) or reads (finds) of
one operation size, swept 4KB -> 8MB; bandwidth in MB/s.

(a) **Intra-node**: clients co-located with the partition.  HCL bypasses
    the RPC/NIC entirely (direct shared memory): 45-55 GB/s, i.e. 2x-20x
    over BCL inserts and 1.5x-7.2x over BCL finds (BCL averages ~4 GB/s
    insert / ~12 GB/s find — it still drives verbs through the local NIC).
(b) **Inter-node**: partition remote.  HCL reaches ~4-4.2 GB/s (link
    speed); BCL 1.3 GB/s insert / 4 GB/s find at 1MB.  Above 1MB BCL runs
    out of memory (exclusive client buffers + static entry-size layout
    exceed the 60% budget at the paper's scale).

Scaled: 8 clients x 48 ops per size point.  BCL's >1MB OOM is checked at
the paper's op-count scale analytically (the allocation math is exact) and
reported in the table.  The sweep is ``repro.harness.figures.fig5``; this
file holds the sizes, the paper's numbers and the shape assertions.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.config import KB, MB
from repro.harness import render_series
from repro.harness.figures import fig5, size_label

SIZES = [4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB, 8 * MB]
LABELS = [size_label(s) for s in SIZES]

# Paper-scale parameters for the analytic OOM check.
PAPER_CLIENTS = 40
PAPER_OPS = 8192


def _bcl_paper_scale_footprint(size: int) -> int:
    """Exact BCL allocation at the paper's configuration for one size point.

    The bandwidth test reuses a fixed-size bucket table (16 Ki buckets —
    writes overwrite; this is a throughput test, not a capacity test), but
    both the static table *and* each client's 512 exclusive in-flight
    buffers scale with the fixed entry size — the growth that breaks the
    60% budget above 1 MB in the paper.
    """
    capacity = 16 * 1024
    static = capacity * (size + 16)
    buffers = PAPER_CLIENTS * 512 * size  # exclusive in-flight buffers
    return static + buffers


@pytest.mark.benchmark(group="fig5")
def test_fig5a_intra_node(benchmark, report):
    sweep = run_once(benchmark, lambda: fig5(SIZES, local=True))
    report(render_series(
        "Fig 5a — intra-node bandwidth MB/s "
        "(paper: HCL 45-55 GB/s; BCL ~4 GB/s ins / ~12 GB/s find)",
        "op size", LABELS, sweep,
    ))
    for i, size in enumerate(SIZES):
        # HCL's shared-memory bypass must beat BCL's loopback-verb path.
        assert sweep["hcl_insert"][i] > 1.5 * sweep["bcl_insert"][i], size
        assert sweep["hcl_find"][i] > 1.2 * sweep["bcl_find"][i], size
    # HCL approaches node memory bandwidth at large sizes (>= 20 GB/s).
    assert sweep["hcl_insert"][-1] > 20_000
    # BCL finds beat BCL inserts (fewer CAS round trips).
    assert sum(sweep["bcl_find"]) > sum(sweep["bcl_insert"])


@pytest.mark.benchmark(group="fig5")
def test_fig5b_inter_node(benchmark, report):
    def run():
        sweep = fig5(SIZES, local=False)
        oom = ["OOM" if _bcl_paper_scale_footprint(s) >
               int(0.6 * 96 * 1024 * MB) else "ok" for s in SIZES]
        return sweep, oom

    sweep, oom = run_once(benchmark, run)
    report(render_series(
        "Fig 5b — inter-node bandwidth MB/s "
        "(paper: HCL ~4-4.2 GB/s; BCL 1.3 ins / 4.0 find; OOM > 1MB)",
        "op size", LABELS, sweep,
    ) + "\nBCL at paper scale (40 clients x 8192 ops): " + ", ".join(
        f"{label}={o}" for label, o in zip(LABELS, oom)))

    for i, size in enumerate(SIZES):
        assert sweep["hcl_insert"][i] > sweep["bcl_insert"][i], size
    # HCL saturates toward link bandwidth (4.5 GB/s) at large sizes.
    assert sweep["hcl_insert"][-1] > 3000
    assert sweep["hcl_find"][-1] > 3000
    # BCL inserts stay well below HCL (multiple remote CAS per op).
    assert sweep["bcl_insert"][-1] < 0.75 * sweep["hcl_insert"][-1]
    # The paper-scale memory math shows OOM strictly above 1MB.
    oom_sizes = [s for s, o in zip(SIZES, oom) if o == "OOM"]
    assert all(s > 1 * MB for s in oom_sizes)
    assert 4 * MB in oom_sizes and 8 * MB in oom_sizes
