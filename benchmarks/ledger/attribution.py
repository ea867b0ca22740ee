"""Traced passes: which layer burns the host time, where simulated
latency goes.

Pass A reads a ``cProfile`` table.  Functions classify by file path into
the packages under ``src/repro/``; self time of builtins and the standard
library -- a third of a naive profile -- is handed to the nearest
``repro/<layer>/`` caller along the caller graph, so that ``heapq`` inside
the event loop counts as ``simnet`` and ``bisect`` inside the Zipf sampler
as ``harness``.

Pass B reduces the spans of an installed tracer through
``repro.obs.critpath.analyze`` to the seven stages that tile an RPC.
"""

from __future__ import annotations

import pstats
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs import critpath_analyze

__all__ = ["LAYERS", "layer_of_path", "attribute_profile",
           "profile_metrics", "stage_metrics"]

#: the packages under ``src/repro/``
LAYERS = ("simnet", "fabric", "rpc", "serialization", "structures",
          "memory", "core", "bcl", "apps", "harness", "obs")

Func = Tuple[str, int, str]

#: caller-graph sweeps: deeper than any stdlib call chain in the profiles
_SWEEPS = 8


def layer_of_path(filename: str) -> Optional[str]:
    """Layer owning a source file, or None for builtins and the stdlib.

    Top-level modules of ``repro`` (``config.py``, ``cli.py``) and the
    ledger's own files count as ``harness``.
    """
    path = filename.replace("\\", "/")
    idx = path.rfind("/repro/")
    if idx >= 0:
        head, _, tail = path[idx + len("/repro/"):].partition("/")
        return head if tail and head in LAYERS else "harness"
    if "/benchmarks/ledger/" in path:
        return "harness"
    return None


def attribute_profile(stats: Dict[Func, tuple]) -> Dict[str, Dict[str, float]]:
    """Reduce a ``pstats`` table to per-layer self time and call counts.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers`` mapping a caller to ``(nc, cc, tt, ct)`` -- the shape
    of ``pstats.Stats(...).stats``.  Returns ``{"self_s": {layer: s},
    "calls": {layer: n}}``; ``self_s`` includes an ``"other"`` bucket for
    time no ``repro`` caller can be found for.
    """
    # shares[f]: the layers f's self time is owed to (sums to 1).  A
    # repro function owns itself; anything else inherits its callers'
    # shares, weighted by the self time spent under each caller.  A few
    # sweeps reach through stdlib chains (random.shuffle -> _randbelow ->
    # getrandbits) and leave true roots and cycles in "other".
    shares: Dict[Func, Dict[str, float]] = {}
    foreign: List[Func] = []
    for func in stats:
        layer = layer_of_path(func[0])
        if layer is None:
            shares[func] = {"other": 1.0}
            foreign.append(func)
        else:
            shares[func] = {layer: 1.0}
    for _ in range(_SWEEPS):
        for func in foreign:
            callers = stats[func][4]
            weight = {c: e[2] for c, e in callers.items() if c in shares}
            if sum(weight.values()) <= 0.0:
                weight = {c: float(e[0]) for c, e in callers.items()
                          if c in shares}
            total = sum(weight.values())
            if total <= 0.0:
                continue
            mixed: Dict[str, float] = {}
            for caller, w in weight.items():
                for layer, share in shares[caller].items():
                    mixed[layer] = mixed.get(layer, 0.0) + share * w / total
            shares[func] = mixed

    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    calls = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_of_path(func[0])
        if layer is not None:
            calls[layer] += nc
        for owner, share in shares[func].items():
            self_s[owner] += tt * share
    return {"self_s": self_s, "calls": calls}


def profile_metrics(profile, ops: int, top: int = 15) -> Dict:
    """Pass A: ``<L>.host_share`` / ``<L>.calls_per_op`` plus the top
    self-time functions (for reading, not gated)."""
    stats = pstats.Stats(profile).stats
    table = attribute_profile(stats)
    total = sum(table["self_s"].values())
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.host_share"] = (
            table["self_s"][layer] / total if total else 0.0)
        metrics[f"{layer}.calls_per_op"] = table["calls"][layer] / ops
    metrics["other.host_share"] = (
        table["self_s"]["other"] / total if total else 0.0)
    ranked = sorted(stats.items(), key=lambda item: -item[1][2])[:top]
    functions = [
        {"function": f"{func[0].rsplit('/', 1)[-1]}:{func[1]}:{func[2]}",
         "layer": layer_of_path(func[0]) or "builtin",
         "self_share": entry[2] / total if total else 0.0,
         "calls": entry[1]}
        for func, entry in ranked
    ]
    return {"metrics": metrics, "top_functions": functions}


#: critpath stage -> ledger metric
_STAGE_METRICS = {
    "client.marshal": "rpc.sim_marshal_us",
    "client.send": "rpc.sim_send_us",
    "server.queue": "rpc.sim_queue_us",
    "server.execute": "rpc.sim_execute_us",
    "transport": "fabric.sim_transport_us",
    "client.pull": "rpc.sim_pull_us",
    "client.settle": "rpc.sim_settle_us",
}


def stage_metrics(tracers: Iterable) -> Dict[str, float]:
    """Pass B: mean simulated microseconds per RPC in each tiling stage,
    over every traced RPC of the repetition, and the worst tiling
    residual (0 when the seven stages account for all of the latency)."""
    totals = {name: 0.0 for name in _STAGE_METRICS.values()}
    rpcs = 0
    residual = 0.0
    for tracer in tracers:
        report = critpath_analyze(tracer)
        rpcs += report["traces"]
        residual = max(residual, report["tiling_max_residual"])
        for stage in report["overall"]["stages"]:
            totals[_STAGE_METRICS[stage["stage"]]] += stage["total"]
    out = {name: (total / rpcs * 1e6 if rpcs else 0.0)
           for name, total in totals.items()}
    # float noise of the subtraction (~1e-14 us) is not a tiling gap
    out["rpc.sim_tiling_residual"] = round(residual * 1e6, 9)
    out["rpc.traced_rpcs"] = float(rpcs)
    return out
