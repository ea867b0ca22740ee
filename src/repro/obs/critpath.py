"""Critical-path analysis over RPC span trees.

Reduce a span log to *attributions* — for every traced RPC, exactly
where did its end-to-end simulated latency go?  The client-side stage
spans tile the root by construction (PR 5), so the decomposition is exact:

* ``client.marshal`` / ``client.pull`` / ``client.settle`` — client CPU;
* ``client.send`` — request serialization onto the NIC, up to the first
  delivered send;
* ``server.queue`` / ``server.execute`` — server-side detail spans nested
  inside the ``server.wait`` interval;
* ``transport`` — the remainder of that interval: network delivery,
  response return and (under a fault plan) retransmission backoff.

Retried RPCs can execute more than once server-side (a lost *response*
re-executes before dedup catches up), so queue/execute sums occasionally
exceed the wait interval; they are then scaled proportionally into it —
attributions always sum exactly to the measured end-to-end latency
(``clamped`` counts how often this fired).

Outputs: cluster-wide per-stage blame, per-``(dst node, stream)`` blame
groups, the "where does p99 live" table (stage blame within the slowest
``1 - SLOW_QUANTILE`` of traces), and the top-N slowest traces with full
per-stage breakdowns.  Works on live :class:`~repro.obs.span.Tracer`
objects or span JSON-lines files — same records either way.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.obs.exporters import span_record
from repro.obs.span import _CLIENT_STAGES, _WAIT_STAGE, Span, Tracer

__all__ = ["analyze", "load_spans", "spans_of", "STAGE_ORDER"]

#: the "where does p99 live" table blames the traces at or above this
#: latency quantile
SLOW_QUANTILE = 0.99

#: per-``(dst node, stream)`` blame groups kept, heaviest first
MAX_GROUPS = 10

#: attribution-stage display order (every per-trace breakdown sums to e2e)
STAGE_ORDER = (
    "client.marshal",
    "client.send",
    "server.queue",
    "server.execute",
    "transport",
    "client.pull",
    "client.settle",
)


def load_spans(path: str) -> List[Dict]:
    """Load span records from a ``write_span_jsonl`` file."""
    records: List[Dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def spans_of(source) -> List[Dict]:
    """Normalize a Tracer / Span list / record list into span records."""
    if isinstance(source, Tracer):
        spans: Sequence = source.spans
    else:
        spans = source
    out: List[Dict] = []
    for span in spans:
        if isinstance(span, Span):
            if span.finished:
                out.append(span_record(span))
        else:
            out.append(span)
    return out


def _is_rpc_root(record: Dict) -> bool:
    """An RPC pipeline root: ``rpc.<op>``.

    Coalesced batch RPCs hang under a ``coalesce.buffer`` parent, so
    pipeline roots are identified by *name*, not by ``parent_id is None``.
    """
    return record.get("name", "").startswith("rpc.")


def _breakdown(root: Dict, children: List[Dict]) -> Optional[Dict]:
    """Exact per-stage attribution of one RPC root (sums to ``dur``)."""
    stages = {stage: 0.0 for stage in STAGE_ORDER}
    wait = 0.0
    tiled = 0.0
    found = False
    for child in children:
        name = child["name"]
        dur = child["dur"]
        if name in _CLIENT_STAGES:
            stages[name] += dur
            tiled += dur
            found = True
        elif name == _WAIT_STAGE:
            wait += dur
            tiled += dur
            found = True
    if not found:
        return None
    queue = sum(c["dur"] for c in children if c["name"] == "server.queue")
    execute = sum(c["dur"] for c in children if c["name"] == "server.execute")
    clamped = False
    inside = queue + execute
    if inside > wait and inside > 0:
        # Re-executed retries: scale the server detail into the interval
        # the client actually waited, keeping the tiling exact.
        scale = wait / inside
        queue *= scale
        execute *= scale
        clamped = True
    stages["server.queue"] = queue
    stages["server.execute"] = execute
    stages["transport"] = wait - queue - execute
    return {
        "trace_id": root["trace_id"],
        "op": root["name"],
        "dst": (root.get("attrs") or {}).get("dst"),
        "stream": (root.get("attrs") or {}).get("stream"),
        "e2e": root["dur"],
        "residual": root["dur"] - tiled,
        "clamped": clamped,
        "stages": stages,
    }


def _blame(breakdowns: List[Dict]) -> Dict:
    """Aggregate stage blame over a set of per-trace breakdowns."""
    totals = {stage: 0.0 for stage in STAGE_ORDER}
    e2e = 0.0
    for b in breakdowns:
        e2e += b["e2e"]
        for stage in STAGE_ORDER:
            totals[stage] += b["stages"][stage]
    return {
        "n": len(breakdowns),
        "e2e_total": e2e,
        "stages": [
            {
                "stage": stage,
                "total": totals[stage],
                "share": totals[stage] / e2e if e2e > 0 else 0.0,
            }
            for stage in STAGE_ORDER
        ],
    }


def analyze(source, top_n: int = 5) -> Dict:
    """Full critical-path report over a span source (JSON-ready).

    ``source`` is a :class:`Tracer`, a list of :class:`Span` objects, or
    a list of span records (e.g. from :func:`load_spans`).
    """
    records = spans_of(source)
    by_parent: Dict[int, List[Dict]] = {}
    for rec in records:
        pid = rec.get("parent_id")
        if pid is not None:
            by_parent.setdefault(pid, []).append(rec)

    breakdowns: List[Dict] = []
    skipped = 0
    for rec in records:
        if not _is_rpc_root(rec):
            continue
        b = _breakdown(rec, by_parent.get(rec["span_id"], []))
        if b is None:
            skipped += 1
        else:
            breakdowns.append(b)

    if not breakdowns:
        return {
            "kind": "critpath",
            "traces": 0,
            "skipped": skipped,
            "overall": _blame([]),
            "slow": {"quantile": SLOW_QUANTILE, "threshold": 0.0,
                     **_blame([])},
            "groups": [],
            "top_traces": [],
            "tiling_max_residual": 0.0,
            "clamped": 0,
        }

    # Cluster-wide "where does the time go".
    overall = _blame(breakdowns)

    # "Where does p99 live": blame within the slowest tail.
    latencies = sorted(b["e2e"] for b in breakdowns)
    rank = min(len(latencies) - 1,
               max(0, int(SLOW_QUANTILE * len(latencies))))
    threshold = latencies[rank]
    slow = [b for b in breakdowns if b["e2e"] >= threshold]
    slow_blame = _blame(slow)

    # Per-(dst node, stream) blame groups, heaviest first.
    grouped: Dict[tuple, List[Dict]] = {}
    for b in breakdowns:
        grouped.setdefault((b["dst"], b["stream"]), []).append(b)
    groups = []
    for (dst, stream), members in grouped.items():
        blame = _blame(members)
        dominant = max(blame["stages"], key=lambda s: s["total"])
        groups.append({
            "dst": dst,
            "stream": stream,
            "n": blame["n"],
            "e2e_total": blame["e2e_total"],
            "e2e_mean": blame["e2e_total"] / blame["n"],
            "dominant_stage": dominant["stage"],
            "dominant_share": dominant["share"],
            "stages": blame["stages"],
        })
    groups.sort(key=lambda g: (-g["e2e_total"],
                               g["dst"] if g["dst"] is not None else -1,
                               str(g["stream"])))

    # Top-N slowest individual traces (stable order on ties).
    ranked = sorted(breakdowns, key=lambda b: (-b["e2e"], b["trace_id"]))
    top = [
        {
            "trace_id": b["trace_id"],
            "op": b["op"],
            "dst": b["dst"],
            "stream": b["stream"],
            "e2e": b["e2e"],
            "stages": {s: b["stages"][s] for s in STAGE_ORDER},
        }
        for b in ranked[:top_n]
    ]

    return {
        "kind": "critpath",
        "traces": len(breakdowns),
        "skipped": skipped,
        "overall": overall,
        "slow": {"quantile": SLOW_QUANTILE, "threshold": threshold,
                 **slow_blame},
        "groups": groups[:MAX_GROUPS],
        "top_traces": top,
        "tiling_max_residual": max(abs(b["residual"]) for b in breakdowns),
        "clamped": sum(1 for b in breakdowns if b["clamped"]),
    }
