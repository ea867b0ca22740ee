"""Observability benches: registry counters, span overhead, Fig-4 telemetry.

Three previously hidden layers of instrumentation are surfaced into the
bench report via the unified metrics registry:

* the chaos stack's RPC retry / failover / replay / fault-injection
  counters (previously summed ad hoc inside the soak harness),
* the coalescer's flush counters,
* the Fig-4 telemetry series (NIC utilization, memory, packet rate)
  :mod:`repro.harness.telemetry` hangs on the run's flight recorder.

The span-tracing bench asserts the simulated half of the overhead
contract: tracing is off by default, and tracing on changes *nothing*
about the simulation.  What it costs in host time is the ledger's
``obs.tracer_overhead_x`` (``benchmarks/ledger``, ``--trace 1``), on the
calibrated clock.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.config import ares_like
from repro.harness import render_table
from repro.harness.chaos import run_chaos_soak
from repro.harness.figures import AGG_SHAPES, run_app
from repro.harness.telemetry import FIG4_SERIES, check_telemetry, run_telemetry
from repro.obs import install_tracer, registry_of, tracer_of


@pytest.mark.benchmark(group="observability")
def test_registry_surfaces_hidden_counters(benchmark, report):
    """The chaos soak's registry snapshot exposes every hidden counter."""

    def run():
        return run_chaos_soak(plan="mixed", seed=0, nodes=3,
                              procs_per_node=2, aggregation=8)

    rep = run_once(benchmark, run)
    metrics = rep["metrics"]

    def total(suffix, prefix=""):
        return int(sum(v for k, v in metrics.items()
                       if k.endswith(suffix)
                       and k.startswith(prefix)
                       and isinstance(v, (int, float))))

    rows = [
        ["rpc retries", total("/retries", "rpcc")],
        ["rpc retry budget exhausted", total("/exhausted", "rpcc")],
        ["server duplicates suppressed", total("/dups_suppressed")],
        ["failover writes", total("/failover_writes")],
        ["failover reads", total("/failover_reads")],
        ["replayed writes", total("/replayed_writes")],
        ["coalescer flushes", total("/agg_flushes")],
        ["coalesced ops", total("/agg_ops")],
        ["fault injections", rep["injected_total"]],
        ["switch transits", total("transits")],
    ]
    report(render_table(
        "hidden counters surfaced via the metrics registry "
        "(chaos-soak plan=mixed, agg=8)",
        ["counter", "value"], rows,
    ))

    assert rep["ok"], "soak must uphold the reliability contract"
    # The registry totals must agree with the report's own rollups — the
    # report *is* a registry consumer now, not a parallel bookkeeper.
    assert total("/retries", "rpcc") == rep["rpc"]["retries"]
    assert total("/exhausted", "rpcc") == rep["rpc"]["exhausted"]
    assert (total("/failover_writes")) == rep["failover"]["writes"]
    assert (total("/replayed_writes")) == rep["failover"]["replayed"]
    assert metrics["faults/drops"] == rep["injected"]["drops"]
    # The storm must actually have exercised the hidden machinery.
    assert total("/retries", "rpcc") > 0
    assert total("/agg_flushes") > 0
    assert rep["injected_total"] > 0


@pytest.mark.benchmark(group="observability")
def test_span_tracing_overhead_bound(benchmark, report):
    """Tracing on: identical simulation; off: the default."""

    def one(traced):
        box = {}

        def instrument(hcl):
            box["sim"] = hcl.sim
            if traced:
                install_tracer(hcl.sim)

        _ops, res = run_app(
            "kmer", "hcl", ares_like(nodes=2, procs_per_node=2),
            AGG_SHAPES["kmer"], 0.5, instrument=instrument,
        )
        return res.time_seconds, res.verified, box["sim"]

    def run():
        return one(False), one(True)

    (off_sim, off_ok, off_simob), (on_sim, on_ok, on_simob) = \
        run_once(benchmark, run)

    tracer = tracer_of(on_simob)
    report(render_table(
        "span tracing (kmer, 2x2 ranks)",
        ["mode", "sim (s)", "spans"],
        [["tracing off", f"{off_sim:.6f}", 0],
         ["tracing on", f"{on_sim:.6f}", len(tracer)]],
    ))

    assert off_ok and on_ok
    assert tracer_of(off_simob) is None, "tracing must be off by default"
    assert on_sim == off_sim, "spans must not perturb the simulation"
    assert len(tracer) > 0
    # Registry population is construction-time and identical either way.
    assert registry_of(on_simob).names() == registry_of(off_simob).names()


@pytest.mark.benchmark(group="observability")
def test_fig4_telemetry_harness(benchmark, report):
    """The telemetry harness yields all three Fig-4 series per app."""

    def run():
        return run_telemetry(scale=0.5, nodes=2, procs_per_node=2,
                             interval=2e-5)

    rep = run_once(benchmark, run)

    for run_rec in rep["runs"]:
        rows = [[name,
                 len(run_rec["series"][name]["values"]),
                 f"{run_rec['series'][name]['mean']:.4g}",
                 f"{run_rec['series'][name]['max']:.4g}"]
                for name in FIG4_SERIES]
        report(render_table(
            f"Fig 4 telemetry — {run_rec['app']} "
            f"({run_rec['sim_seconds']:.6f}s sim, "
            f"{run_rec['samples']} samples)",
            ["series", "samples", "mean", "max"], rows,
        ))

    assert check_telemetry(rep) == []
    apps = {r["app"] for r in rep["runs"]}
    assert {"isx", "contig"} <= apps  # one ISx and one contig-gen run
    for run_rec in rep["runs"]:
        # Sampling must not have perturbed the measured run.
        _ops, unsampled = run_app(
            run_rec["app"], "hcl", ares_like(nodes=2, procs_per_node=2),
            AGG_SHAPES[run_rec["app"]], 0.5, 8)
        assert run_rec["sim_seconds"] == unsampled.time_seconds
        # one sample per whole interval of the run, none past its end
        assert run_rec["samples"] == int(run_rec["sim_seconds"] / 2e-5)
        for name in FIG4_SERIES:
            assert max(run_rec["series"][name]["values"]) > 0.0
