"""Serving-SLO bench: the Zipfian overload A/B at CI smoke scale.

Paper scale (64 nodes x 10^5 clients) lives in the committed
``BENCH_serving.json`` and the CI ``paper-scale`` job; this bench runs the
4x4-node, 500-client analogue and asserts the *shape* every larger run
shows: admission control flattens the overload latency cliff (unbounded
p99 many multiples of the shed p99) without starving any tenant.

``shed_retries=0`` on purpose: retried ops pay their backoff inside the
latency figure, which measures the retry policy rather than the cliff.
The retry machinery is covered by tests/test_serving.py.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.harness.serving import (
    HARNESS, check_serving, render_serving, run_serving,
)

#: the CI smoke configuration (mirrored by the serving-smoke workflow job)
SMOKE = dict(nodes=4, procs_per_node=4, clients=500, tenants=4, theta=0.99,
             keys=512, queue_frac=0.5, queue_home="packed", rate=4800.0,
             ops_per_client=30.0, seed=3, bounds=(None, 16), shed_retries=0,
             rpc_batch_size=1)

#: conservative floor — the config measures ~16x on the reference machine
CLIFF_FACTOR = 3.0


def _monitor_lines(flights) -> str:
    """Skew + burn-rate rows for the bench report, one line per config."""
    lines = []
    for bound, flight in flights:
        skew = flight["skew"]
        slo = flight["slo"]
        parts = "  ".join(f"{p['partition']} {p['share']:.1%}"
                          for p in skew["top_partitions"][:3])
        key = skew["top_keys"][0]
        lines.append(
            f"  monitors[{bound}]: imbalance {skew['imbalance']:.2f} "
            f"(cv {skew['cv']:.2f}); top partitions {parts}; "
            f"hot key {key['key']} x{key['count']} (err {key['error']}); "
            f"{skew['hot_events']} hot-partition event(s), "
            f"{slo['alerts']} SLO alert(s) in {slo['ticks']} ticks"
        )
    return "\n".join(lines)


@pytest.mark.benchmark(group="serving")
def test_serving_overload_cliff(benchmark, report):
    # Monitors armed: the observability stack (flight recorder + skew
    # detector + burn-rate SLO monitor) is pure observation, so the report
    # is identical with it on (tests/test_serving.py asserts that
    # byte-for-byte) and the recorder payloads give the bench its
    # skew/alert rows.
    recorded = HARNESS.attach(flight=True)
    rep = run_once(benchmark, lambda: run_serving(
        **SMOKE, instrument=recorded))
    flights = [(run.label, run.recorder.payload()) for run in recorded.runs]
    failures = check_serving(rep, require_cliff=True,
                             cliff_factor=CLIFF_FACTOR)
    cliff = rep["cliff"]
    report(
        render_serving(rep)
        + f"\n  unbounded p99 {cliff['p99_shedding_off'] * 1e6:.0f}us vs "
          f"shed {cliff['p99_shedding_on'] * 1e6:.0f}us "
          f"({cliff['p99_ratio']:.1f}x; floor {CLIFF_FACTOR}x)\n"
        + _monitor_lines(flights)
    )
    assert not failures, failures
    unbounded, bounded = rep["configs"]
    # Shedding surfaces overload as explicit errors, not hidden latency.
    assert bounded["shed"] > 0
    assert bounded["shed_gaveup"] == bounded["shed"]  # retries disabled
    assert unbounded["shed"] == 0
    # One flight per admission-control config, each with live monitors.
    assert [label for label, _flight in flights] == ["off", "b16"]
    for _label, flight in flights:
        skew = flight["skew"]
        assert skew["imbalance"] >= 1.0
        assert skew["top_keys"] and skew["keys_offered"] > 0
        assert flight["slo"]["ticks"] > 0
