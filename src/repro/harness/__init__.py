"""Experiment harness: workloads, sweeps, and paper-style reporting.

Every table and figure bench in ``benchmarks/`` builds on this package:

* :mod:`repro.harness.workload` — sized payloads and key streams;
* :mod:`repro.harness.driver` — the one row loop and the
  ``run_bench(harness, args)`` driver behind every ``repro.cli`` bench
  and figure subcommand;
* :mod:`repro.harness.report` — fixed-width text tables comparing
  paper-reported values against measured ones, and CSV-ish dumps;
* :mod:`repro.harness.figures` — Figs 1, 4, 5, 6 and 7 as functions of their
  scale, plus ``run_app`` / ``run_phases``, which ``cli trace``, the
  asserted benches and the op-coalescing ablation share;
* :mod:`repro.harness.microbench` — OSU-style measurements of the
  simulated fabric;
* :mod:`repro.harness.chaos` — seeded fault-plan soak with an
  acked-write ledger and a registry-backed metrics report;
* :mod:`repro.harness.serving` — Zipfian multi-tenant serving bench:
  SLO percentiles, fairness, and the load-shedding overload A/B.
"""

from repro.harness.workload import Blob, key_stream
from repro.harness.report import render_table, render_series
from repro.harness.driver import Harness, run_bench, run_rows
from repro.harness.serving import (
    DEFAULT_MIX,
    ZipfKeyGenerator,
    check_serving,
    render_serving,
    run_serving,
)

__all__ = [
    "DEFAULT_MIX",
    "ZipfKeyGenerator",
    "check_serving",
    "render_serving",
    "run_serving",
    "Blob",
    "key_stream",
    "Harness",
    "run_bench",
    "run_rows",
    "render_table",
    "render_series",
]
