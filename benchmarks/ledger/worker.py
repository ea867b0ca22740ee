"""Measure one workload in this process: the run protocol.

One untimed warm-up repetition (which also carries the sample-capture shim
and reads the exact per-layer counts), then timed repetitions of the
identical deterministic simulation.  Every row of every repetition is
bracketed by the calibration loop, so each host time is converted to
reference-box seconds with the machine speed it actually ran at.  Host
metrics are sums over rows of the per-row medians across repetitions: a
burst that hits one row of one repetition moves nothing.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs import install_tracer, write_span_jsonl

from benchmarks.ledger import attribution, layers
from benchmarks.ledger.calib import (
    calibrate,
    ref_seconds_of,
    to_ref_seconds,
)
from benchmarks.ledger.metrics import metric_table
from benchmarks.ledger.shims import RunClock, capture_samples
from benchmarks.ledger.stats import quartile_summary
from benchmarks.ledger.workloads import WORKLOADS, RowResult, Workload

__all__ = ["measure", "MIN_REPS", "DEFAULT_REPS"]

MIN_REPS = 3
DEFAULT_REPS = 7
#: share of its budget a traced run spends on untraced repetitions (the
#: denominators of the overhead ratios) before the two traced passes
_TRACED_UNTRACED_SHARE = 0.4


@dataclass
class RowTiming:
    """Reference-box seconds of one row of one repetition."""

    setup: float
    steady: float
    verify: float


@dataclass
class Repetition:
    results: Dict[str, RowResult]
    timings: Dict[str, RowTiming]
    calib_s: float  # raw process seconds spent calibrating
    counts: Optional[Dict[str, Dict[str, float]]] = None  # capture only
    queue_wait_s: Optional[List[float]] = None  # capture only
    tracers: Optional[Dict[str, Any]] = None  # trace only: row -> tracer


def run_repetition(workload: Workload, seed: int, clock: RunClock, *,
                   capture: bool = False, profile=None,
                   trace: bool = False) -> Repetition:
    """Run every row once.  ``capture`` keeps raw latency samples and
    layer counts, ``profile`` runs the rows under a ``cProfile.Profile``,
    ``trace`` installs the span tracer on every simulation."""
    gc.collect()  # every repetition starts from the same heap
    rep = Repetition({}, {}, 0.0,
                     counts={} if capture else None,
                     queue_wait_s=[] if capture else None,
                     tracers={} if trace else None)
    calib_before = calibrate()
    rep.calib_s += calib_before
    sims: List[Any] = []

    def attach(obj) -> None:
        sim = getattr(obj, "sim", obj)
        sims.append(sim)
        if trace:
            install_tracer(sim)

    started = time.process_time()
    inputs = _profiled(profile, workload.prepare, seed)
    for name, row in workload.rows:
        del sims[:]
        clock.reset()
        sink: Dict[str, List[float]] = {}
        if capture:
            with capture_samples(workload.latency_source, sink):
                result = row(inputs, attach)
        else:
            result = _profiled(profile, row, inputs, attach)
        ended = time.process_time()
        gc.collect()  # the next row must not inherit this row's garbage
        calib_after = calibrate()
        rep.calib_s += calib_after
        if len(sims) != 1 or clock.first_entry is None:
            raise RuntimeError(f"row {name}: expected one simulation that "
                               f"ran, saw {len(sims)}")
        setup = clock.first_entry - started  # includes prepare() on row 1
        steady = clock.inside_s
        verify = (ended - started) - setup - steady
        rep.timings[name] = RowTiming(*(
            to_ref_seconds(t, calib_before, calib_after)
            for t in (setup, steady, verify)))
        if capture:
            if result.latency_s is None:
                result.latency_s = sink["latency"]
            rep.queue_wait_s.extend(sink["queue_wait"])
            rep.counts[name] = layers.harvest(sims[0])
        if trace:  # returns the tracer attach() installed
            rep.tracers[name] = install_tracer(sims[0])
        rep.results[name] = result
        calib_before = calib_after
        started = time.process_time()
    return rep


def _profiled(profile, fn, *args):
    if profile is None:
        return fn(*args)
    profile.enable()
    try:
        return fn(*args)
    finally:
        profile.disable()


def _failed_ops(workload: Workload, rep: Repetition,
                reference: Repetition) -> int:
    """Failures of one repetition: per-row checks, cross-row checks and
    any row whose simulated time or op count differs from the warm-up's
    (the simulation must be deterministic)."""
    failed = sum(r.failed for r in rep.results.values())
    failed += workload.cross_check(rep.results)
    for name, result in rep.results.items():
        ref = reference.results[name]
        if result.sim_s != ref.sim_s or result.ops != ref.ops:
            failed += ref.ops
    return failed


def _sim_digest(values: Dict[str, float]) -> str:
    text = ";".join(f"{name}={values[name]!r}" for name in sorted(values))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def measure(name: str, seed: int, seconds: Optional[float] = None,
            reps: Optional[int] = None, trace: bool = False,
            spans_dir: Optional[str] = None) -> Dict:
    """Run the protocol for workload ``name``; return its result record.

    Repetitions stop at ``reps`` or once ``seconds`` of timed repetitions
    have passed (at least :data:`MIN_REPS`); with neither, at
    :data:`DEFAULT_REPS`.  A traced run writes its spans, kept in memory
    until now, to ``spans_dir/<workload>.<row>.jsonl`` when given.
    """
    wall_started = time.perf_counter()
    workload = WORKLOADS[name]
    if seconds is None and reps is None:
        reps = DEFAULT_REPS
    budget = seconds
    if trace:
        if seconds is not None:
            budget = seconds * _TRACED_UNTRACED_SHARE
        if reps is not None:
            reps = max(MIN_REPS, round(reps * _TRACED_UNTRACED_SHARE))
    clock = RunClock()
    with clock.installed():
        warm = run_repetition(workload, seed, clock, capture=True)
        timed: List[Repetition] = []
        loop_started = time.perf_counter()
        while True:
            rep_started = time.perf_counter()
            timed.append(run_repetition(workload, seed, clock))
            now = time.perf_counter()
            if reps is not None and len(timed) >= reps:
                break
            if (budget is not None and len(timed) >= MIN_REPS
                    and now - loop_started
                    >= budget - 0.5 * (now - rep_started)):
                break
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = {
            metric: statistics.median(ref_seconds_of(fn) for _ in range(3))
            for metric, fn in workload.probes}
        profiled = traced = None
        if trace:
            profile = cProfile.Profile()
            profiled = run_repetition(workload, seed, clock, profile=profile)
            traced = run_repetition(workload, seed, clock, trace=True)

    rows = [row for row, _fn in workload.rows]
    row_ops = {row: warm.results[row].ops for row in rows}
    ops = sum(row_ops.values())
    every = [warm] + timed + [r for r in (profiled, traced) if r is not None]
    failed = max(_failed_ops(workload, rep, warm) for rep in every)
    refused = sum(r.refused for r in warm.results.values())

    def median_of(rep_list, field: str, row: str) -> float:
        return statistics.median(
            getattr(rep.timings[row], field) for rep in rep_list)

    def total(rep_list, field: str) -> float:
        return sum(median_of(rep_list, field, row) for row in rows)

    steady_s = total(timed, "steady")
    values: Dict[str, float] = {
        "setup_s": total(timed, "setup"),
        "host_us_per_op": steady_s / ops * 1e6,
        "peak_rss_mb": peak_rss_mb,
        "ops_failed_share": (failed + refused) / ops,
    }
    sim_values = dict(workload.summarize(warm.results))
    sim_values.update(layers.count_metrics(warm.counts, row_ops,
                                           warm.queue_wait_s))
    for row in rows:
        sim_values[f"row.{row}.sim_s"] = warm.results[row].sim_s
        values[f"row.{row}.host_us_per_op"] = (
            median_of(timed, "steady", row) / row_ops[row] * 1e6)
    values.update(sim_values)
    events = sim_values["simnet.events_per_op"] * ops
    values["simnet.events_per_host_s"] = events / steady_s
    values["harness.verify_s"] = total(timed, "verify")
    values["harness.calib_s"] = sum(rep.calib_s for rep in every)
    values.update(probes)

    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "reps": len(timed),
        "attempted": ops, "failed": failed, "refused": refused,
        "correct": failed == 0,
        "sim_digest": _sim_digest(sim_values),
        "spread": {
            "setup_s": quartile_summary(
                [sum(t.setup for t in rep.timings.values())
                 for rep in timed]),
            "host_us_per_op": quartile_summary(
                [sum(t.steady for t in rep.timings.values()) / ops * 1e6
                 for rep in timed]),
        },
    }
    if trace:
        shape = attribution.profile_metrics(profile, ops)
        values.update(shape["metrics"])
        values.update(attribution.stage_metrics(traced.tracers.values()))
        values["obs.profile_overhead_x"] = (
            total([profiled], "steady") / steady_s)
        values["obs.tracer_overhead_x"] = total([traced], "steady") / steady_s
        record["top_functions"] = shape["top_functions"]
        if spans_dir is not None:
            os.makedirs(spans_dir, exist_ok=True)
            for row, tracer in traced.tracers.items():
                write_span_jsonl(tracer.spans, os.path.join(
                    spans_dir, f"{name}.{row}.jsonl"))
    values["harness.raw_wall_s"] = time.perf_counter() - wall_started

    table = metric_table()
    record["metrics"] = {
        metric: {"value": value, "unit": table[metric].unit}
        for metric, value in values.items()
        if table[metric].on is None or name in table[metric].on
    }
    return record
