"""Charging structure work to simulated time, and the Table I cost ledger.

Table I of the paper expresses each container operation's worst-case cost in
the symbols **F** (remote function invocation), **L** (local memory op),
**R**/**W** (local read/write), **N** (entries), **E** (elements).  Every
container handler converts the :class:`~repro.structures.stats.OpStats`
returned by the real local structure into simulated time with
:func:`charge`, and records the symbol counts in a :class:`CostLedger` so
the Table I reproduction bench can compare measured counts against the
formulas.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from repro.fabric.node import Node
from repro.structures.stats import OpStats

__all__ = ["charge", "CostLedger", "estimate_charge_time"]


def estimate_charge_time(node: Node, stats: OpStats, entry_bytes: int,
                         cpu_factor: float = 1.0) -> float:
    """Total local-memory time for one structure operation.

    * L terms: ``local_ops`` pointer chases/comparisons
    * R terms: ``reads`` of ``entry_bytes`` each
    * W terms: ``writes`` (and ``relocations``) of ``entry_bytes`` each
    * local CAS instructions
    * resize: ``resize_entries`` entries each read + rewritten

    ``cpu_factor`` scales the *compute* terms (L and CAS) — RPC handlers run
    on the slower NIC cores (``cost.nic_compute_factor``), the hybrid
    local-bypass path on the host CPU at 1.0.  Byte-proportional terms move
    through node memory either way.
    """
    cost = node.cost
    t = stats.local_ops * cost.local_op * cpu_factor
    t += stats.reads * cost.local_read(entry_bytes)
    t += (stats.writes + stats.relocations) * cost.local_write(entry_bytes)
    t += stats.cas_ops * cost.cas_local * cpu_factor
    if stats.resize_entries:
        t += stats.resize_entries * (
            cost.local_read(entry_bytes) + cost.local_write(entry_bytes)
        )
    return t


def charge(node: Node, stats: OpStats, entry_bytes: int,
           cpu_factor: float = 1.0):
    """Generator: occupy the node's memory bus for the operation's work.

    Returns the bus's own ``use`` generator rather than wrapping it in
    another, so a charged op resumes through one frame fewer.
    """
    return node.memory_bus.use(
        estimate_charge_time(node, stats, entry_bytes, cpu_factor))


class CostLedger:
    """Per-operation symbol counts for the Table I validation bench.

    With a :class:`~repro.obs.registry.MetricsRegistry` attached, every
    recorded :class:`OpStats` also feeds fleet-visible ``<prefix>/table1/*``
    counters — the per-structure symbol tallies used to be merged into the
    ledger and dropped; now they are exportable alongside every other
    metric.
    """

    def __init__(self, registry=None, prefix: str = ""):
        self._ops: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "F": 0, "L": 0, "R": 0, "W": 0, "CAS": 0}
        )
        self._counters = None
        if registry is not None:
            base = f"{prefix}/table1" if prefix else "table1"
            self._counters = {
                sym: registry.counter(f"{base}/{sym}")
                for sym in ("ops", "F", "L", "R", "W", "CAS")
            }

    def record(self, op: str, stats: Optional[OpStats], remote: bool) -> None:
        row = self._ops[op]
        row["count"] += 1
        row["F"] += 1 if remote else 0
        if stats is not None:
            row["L"] += stats.local_ops
            row["R"] += stats.reads
            row["W"] += stats.writes + stats.relocations
            row["CAS"] += stats.cas_ops
            if stats.resize_entries:
                row["R"] += stats.resize_entries
                row["W"] += stats.resize_entries
        counters = self._counters
        if counters is not None:
            # Plain increments: every count here is a non-negative sum of
            # structure counts, so ``Counter.add``'s sign check cannot fire.
            counters["ops"].value += 1
            if remote:
                counters["F"].value += 1
            if stats is not None:
                counters["L"].value += stats.local_ops
                counters["R"].value += stats.reads + stats.resize_entries
                counters["W"].value += (stats.writes + stats.relocations
                                        + stats.resize_entries)
                counters["CAS"].value += stats.cas_ops

    def per_op(self, op: str) -> Dict[str, float]:
        """Average symbol counts per call of ``op``."""
        row = self._ops.get(op)
        if not row or row["count"] == 0:
            return {"count": 0, "F": 0.0, "L": 0.0, "R": 0.0, "W": 0.0, "CAS": 0.0}
        n = row["count"]
        return {
            "count": n,
            **{sym: row[sym] / n for sym in ("F", "L", "R", "W", "CAS")},
        }
