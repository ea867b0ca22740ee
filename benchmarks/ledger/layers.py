"""Exact per-layer counts, read from each simulation after it ran.

The counts come from ``Simulator.kernel_stats()`` and the per-simulation
metrics registry -- counters every layer already keeps -- so they repeat
exactly for a fixed seed and cost nothing while the simulation runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.obs import registry_of

from benchmarks.ledger.stats import nearest_rank

__all__ = ["harvest", "count_metrics"]


def harvest(sim) -> Dict[str, float]:
    """Raw layer counts of one finished simulation."""
    reg = registry_of(sim)
    total = reg.sum_matching

    def value(name: str) -> float:
        metric = reg.get(name)
        return float(metric.value) if metric is not None else 0.0

    return {
        "events": float(sim.kernel_stats()["events_processed"]),
        "packets": total("/egress/packets"),
        "bytes": total("/egress/bytes"),
        "transits": value("switch/transits"),
        "invocations": total("/invocations", "rpcc"),
        "retries": total("/retries", "rpcc"),
        "timeouts": total("/timeouts", "rpcc"),
        "shed": total("/shed", "rpc"),
        "window_stalls": value("rpc/window_stalls"),
        "agg_ops": total("/agg_ops"),
        "agg_flushes": total("/agg_flushes"),
        "auto_threshold": value("coalesce/auto_threshold"),
        "local": total("/local"),
        "remote": total("/remote"),
        "cache_hits": total("/cache_hits"),
        "cache_misses": total("/cache_misses"),
        "table_L": total("/table1/L"),
        "cas_attempts": total("/cas_attempts"),
        "cas_failures": total("/cas_failures"),
        "mem_peak": sum(reg.get(name).peak for name in reg.names("n")
                        if name.endswith("/mem")),
        "verbs": total("/verbs", "nic"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(rows: Dict[str, Dict[str, float]],
                  row_ops: Dict[str, int],
                  queue_wait_s: Iterable[float]) -> Dict[str, float]:
    """Per-layer count metrics of one workload from its rows' counts."""
    ops = sum(row_ops.values())

    def summed(key: str) -> float:
        return sum(counts[key] for counts in rows.values())

    bcl_rows: List[str] = [name for name in rows if name.startswith("bcl_")]
    waits = list(queue_wait_s)
    return {
        "simnet.events_per_op": _ratio(summed("events"), ops),
        "fabric.packets_per_op": _ratio(summed("packets"), ops),
        "fabric.bytes_per_op": _ratio(summed("bytes"), ops),
        "fabric.switch_transits_per_op": _ratio(summed("transits"), ops),
        "rpc.invocations_per_op": _ratio(summed("invocations"), ops),
        "rpc.ops_per_flush": _ratio(summed("agg_ops"), summed("agg_flushes")),
        "rpc.retries": summed("retries"),
        "rpc.timeouts": summed("timeouts"),
        "rpc.shed": summed("shed"),
        "rpc.window_stalls": summed("window_stalls"),
        "rpc.auto_threshold": max(c["auto_threshold"] for c in rows.values()),
        "rpc.sim_queue_wait_p99_us": (
            nearest_rank(waits, 0.99) * 1e6 if waits else 0.0),
        "core.local_share": _ratio(summed("local"),
                                   summed("local") + summed("remote")),
        "core.read_cache_hit_rate": _ratio(
            summed("cache_hits"),
            summed("cache_hits") + summed("cache_misses")),
        "core.table_L_per_op": _ratio(summed("table_L"), ops),
        "structures.cas_fail_share": _ratio(summed("cas_failures"),
                                            summed("cas_attempts")),
        "memory.sim_peak_mb": max(c["mem_peak"] for c in rows.values())
        / (1024 * 1024),
        "bcl.verbs_per_op": _ratio(
            sum(rows[name]["verbs"] for name in bcl_rows),
            sum(row_ops[name] for name in bcl_rows)),
    }
