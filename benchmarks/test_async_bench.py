"""Async-pipeline bench: the sync-vs-async k-mer A/B at CI smoke scale.

The committed full-shape report lives in ``BENCH_async.json`` (regenerated
by ``python -m repro.cli asyncbench --emit``); this bench runs the same A/B
on 2x2 ranks.  Every number is simulated, so it asserts hard invariants:

* every mode (sync baseline, async static sweep, async auto) verifies and
  produces the SAME application digest — the pipeline reorders work, never
  results;
* the async simulated timeline does not regress against the aggregated
  sync baseline;
* the self-tuned coalescer threshold lands within tolerance of the best
  hand-tuned static run;
* two same-shape runs emit byte-identical JSON.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.conftest import run_once
from repro.harness.asyncbench import HARNESS, run_async_bench
from repro.obs import write_json

SMOKE = dict(scale=1.0, nodes=2, procs_per_node=2)


@pytest.mark.benchmark(group="async")
def test_async_pipeline_ab(benchmark, report, tmp_path):
    rep = run_once(benchmark, lambda: run_async_bench(**SMOKE))

    failures = rep.check()
    assert failures == [], failures
    assert {r.digest for r in rep.rows} != set()
    assert all(r.verified for r in rep.rows)
    assert len({r.digest for r in rep.rows}) == 1

    summary = rep.summary()
    assert summary["async_sim_speedup"] >= 1.0
    assert summary["auto_vs_best_static"] <= 1.10
    auto = rep.auto_row()
    assert auto.auto_threshold is not None and auto.auto_threshold >= 4

    path = write_json(HARNESS.emit(rep)[""],
                      str(tmp_path / "BENCH_async.json"))
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["benchmark"] == "async_pipeline"

    report(
        "Async pipeline A/B (smoke)\n"
        + "\n".join(
            f"  {r.mode:<5} agg={r.aggregation:<5} sim={r.sim_seconds:.6f}s "
            f"rpc/window_stalls={r.window_stalls} digest={r.digest}"
            for r in rep.rows
        )
        + f"\n  coalesce/auto_threshold={auto.auto_threshold}"
        + f"\n  async sim speedup {summary['async_sim_speedup']:.2f}x, "
          f"auto/best-static {summary['auto_vs_best_static']:.2f}x"
    )


@pytest.mark.benchmark(group="async")
def test_async_bench_deterministic(benchmark, tmp_path):
    """Same seed, same scale -> byte-identical JSON."""

    def emit(path):
        rep = run_async_bench(**SMOKE)
        return write_json(HARNESS.emit(rep)[""], str(path))

    a = run_once(benchmark, lambda: emit(tmp_path / "a.json"))
    b = emit(tmp_path / "b.json")
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
