"""Compare two ledger result files metric by metric.

Each end-to-end metric is weighed against its own bound
(``metrics.END_TO_END``): B is ``worse`` when its value is worse than A's
by more than the bound (plus the metric's absolute floor), ``better`` when
better by more than that, ``unresolved`` when neither but the run-to-run
quartile distance of either file is wider than that slack (so "unchanged"
cannot be claimed), else ``same``.  Per-layer metrics are never gated.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from benchmarks.ledger.metrics import END_TO_END, Metric

__all__ = ["verdict", "compare", "render"]


def verdict(metric: Metric, a: float, b: float, spread: float = 0.0) -> str:
    """Verdict on B against baseline A for one metric."""
    slack = metric.bound * abs(a) + metric.floor
    worsening = (b - a) if metric.better == "lower" else (a - b)
    if worsening > slack:
        return "worse"
    if -worsening > slack:
        return "better"
    if spread * abs(a) > slack:
        return "unresolved"
    return "same"


def _spread(record: Dict, name: str) -> float:
    return record.get("spread", {}).get(name, {}).get("spread", 0.0)


def compare(a: Dict, b: Dict) -> List[Tuple[str, str, float, float, str]]:
    """Rows ``(workload, metric, a, b, verdict)`` over two result files."""
    rows = []
    for workload, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(workload)
        if rec_b is None:
            rows.append((workload, "*", 0.0, 0.0, "worse"))
            continue
        for metric in END_TO_END:
            if metric.name not in rec_a["metrics"]:
                continue
            val_a = rec_a["metrics"][metric.name]["value"]
            val_b = rec_b["metrics"][metric.name]["value"]
            spread = max(_spread(rec_a, metric.name),
                         _spread(rec_b, metric.name))
            rows.append((workload, metric.name, val_a, val_b,
                         verdict(metric, val_a, val_b, spread)))
    return rows


def render(rows) -> str:
    lines = [f"{'workload':18s} {'metric':24s} {'A':>14s} {'B':>14s}  verdict"]
    for workload, metric, val_a, val_b, word in rows:
        lines.append(f"{workload:18s} {metric:24s} {val_a:14.6g} "
                     f"{val_b:14.6g}  {word}")
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(render(rows))
    worse = sum(1 for row in rows if row[4] == "worse")
    unresolved = sum(1 for row in rows if row[4] == "unresolved")
    print(f"{len(rows)} metrics: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0
