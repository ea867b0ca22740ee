"""Differential run forensics: *what changed between two runs, and why?*

CI's baseline gate (``cmp <fresh> BENCH_serving.json``) can say a report
moved; this module answers the next question.  It compares two JSON
objects the repo writes — the bench and figure reports (``--emit``) and
the metrics snapshots (``--metrics-out``, ``MetricsRegistry.snapshot()``
dumps) — by one flatten: every number is a counter (a figure's measured
series compares point by point), every histogram summary a quantile
group, every other value a config value.  :func:`diff_runs` emits one
structured ``RunDiff``: counter deltas, histogram-quantile shifts (with
the empty-vs-nonempty case reported as a **new signal**, never a
divide-by-zero) and config changes.  A fingerprint classifier then maps
the dominant delta to a named cause ("server queue-wait grew",
"coalescer flush efficiency dropped", ...) so a failing gate ships its
own root-cause hypothesis.

Direction convention: **A is the reference (baseline), B the candidate
(fresh run)** — relative changes are ``(b - a) / |a|``.  Every artifact
is on the simulated clock, so every number is compared at
:data:`REL_THRESHOLD` and a same-seed self-diff reports zero significant
deltas.  Host time is not an input here: the ledger
(``benchmarks/ledger``) measures and compares it.

Everything is stdlib-only and deterministic (sorted iteration, no RNG),
like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FINGERPRINT_CODES",
    "diff_paths",
    "diff_runs",
    "fingerprint",
    "load_artifact",
    "render_diff",
]

#: relative-change significance threshold (10%)
REL_THRESHOLD = 0.10

#: rows kept per delta section of a RunDiff (more when more are significant)
TOP_ROWS = 40

#: rows printed per section of the markdown report
MAX_ROWS = 20

#: config keys that define workload shape — differing values mean the two
#: runs measured different experiments, which trumps every other signal.
#: A list of numbers under one of these keys is a sweep axis (a figure's
#: ``partitions`` / ``sizes`` / ``nodes``), compared as one config value.
#: Tuning knobs (``aggregation``, ``queue_bound``, ``windows``) are
#: deliberately *not* here: an A/B over a knob is exactly what the
#: fingerprinter exists to explain.
_WORKLOAD_KEYS = (
    "scale", "nodes", "procs_per_node", "procs", "clients", "tenants",
    "ops_per_client", "keys_per_tenant", "seed", "theta", "partitions",
    "sizes",
)

#: tuning knobs: config keys an A/B experiment deliberately varies.  A
#: differing knob is listed under config changes but does *not* trigger
#: the workload-shape fingerprint — the interesting question is what the
#: knob change did, which the other rules answer.
_KNOB_KEYS = ("aggregation", "queue_bound", "rpc_batch_size", "windows",
              "shed_retries", "queue_frac", "retry_backoff",
              "rate_per_client", "mix", "queue_home")

#: fields used to label rows when aligning lists of dicts across runs
#: (serving's ``configs`` rows); other rows are labelled by position
_IDENTITY_FIELDS = ("queue_bound",)

#: quantile-ish keys compared inside a histogram-summary group
_QUANTILE_METRICS = ("mean", "p50", "p90", "p95", "p99", "p99.9", "max")


def load_artifact(path: str) -> Dict:
    """Load one report or snapshot file: it must hold one JSON object.

    Raises ``ValueError`` naming the file otherwise (a span log, a list).
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not one JSON object ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not one JSON object "
                         f"(a {type(doc).__name__})")
    return doc


# -- generic flattening -------------------------------------------------------

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_quantile_group(value) -> bool:
    return (isinstance(value, dict) and _is_number(value.get("n"))
            and any(k == "mean" or (k.startswith("p") and
                                    k[1:2].isdigit())
                    for k in value))


def _row_labels(rows: Sequence[Dict]) -> Optional[Tuple[List[str], str]]:
    """Stable labels for a list of dict rows, aligned across runs.

    Uses the first identity field that labels every row uniquely, so an
    A/B over a knob still aligns row-for-row.  Returns ``(labels, field)``
    — the identity field is folded into the label, so the caller drops it
    from the row body — or None (positional labels) when no identity field
    labels every row uniquely.
    """
    for field in _IDENTITY_FIELDS:
        if all(field in r for r in rows):
            labels = [str(r[field]) for r in rows]
            if len(set(labels)) == len(labels):
                return labels, field
    return None


def _flatten(node, prefix: str, counters: Dict[str, float],
             quantiles: Dict[str, Dict], configs: Dict[str, object]) -> None:
    if _is_quantile_group(node):
        quantiles[prefix] = node
        return
    if isinstance(node, dict):
        for key in sorted(node, key=str):
            sub = f"{prefix}/{key}" if prefix else str(key)
            _flatten(node[key], sub, counters, quantiles, configs)
        return
    if isinstance(node, list):
        if node and all(isinstance(r, dict) for r in node):
            labelling = _row_labels(node)
            labels, field = labelling if labelling else (None, None)
            for i, row in enumerate(node):
                label = labels[i] if labels else str(i)
                if field is not None:
                    row = {k: v for k, v in row.items() if k != field}
                _flatten(row, f"{prefix}[{label}]", counters, quantiles,
                         configs)
        elif (node and all(_is_number(v) for v in node)
              and prefix.rsplit("/", 1)[-1] not in _WORKLOAD_KEYS):
            # a measured series: compared point by point
            for i, value in enumerate(node):
                counters[f"{prefix}[{i}]"] = float(value)
        else:
            configs[prefix] = json.dumps(node, sort_keys=True)
        return
    if _is_number(node):
        counters[prefix] = float(node)
    elif node is not None:
        configs[prefix] = node


def _flatten_doc(doc: Dict):
    counters: Dict[str, float] = {}
    quantiles: Dict[str, Dict] = {}
    configs: Dict[str, object] = {}
    _flatten(doc, "", counters, quantiles, configs)
    return counters, quantiles, configs


# -- section diffs ------------------------------------------------------------

def _counter_rows(ca: Dict[str, float], cb: Dict[str, float]) -> List[Dict]:
    rows: List[Dict] = []
    for key in sorted(set(ca) | set(cb)):
        a, b = ca.get(key), cb.get(key)
        # A key that is 0 on one side and absent on the other moved
        # nothing: quiet in both directions.
        if a is None or (a == 0 and b not in (None, 0)):
            status, rel = "new_signal", None
            significant = b != 0
        elif b is None or (b == 0 and a != 0):
            status, rel = "gone", None
            significant = a != 0
        elif a == b:
            status, rel, significant = "unchanged", 0.0, False
        else:
            rel = (b - a) / abs(a) if a else 0.0
            status = "changed"
            significant = abs(rel) >= REL_THRESHOLD
        if status == "unchanged":
            continue
        rows.append({
            "key": key,
            "a": a,
            "b": b,
            "delta": (b - a) if (a is not None and b is not None) else None,
            "rel": rel,
            "status": status,
            "significant": significant,
        })
    rows.sort(key=lambda r: (not r["significant"],
                             -(abs(r["rel"]) if r["rel"] is not None
                               else float("inf")),
                             r["key"]))
    return rows


def _quantile_rows(qa: Dict[str, Dict], qb: Dict[str, Dict]) -> List[Dict]:
    rows: List[Dict] = []
    for key in sorted(set(qa) | set(qb)):
        a, b = qa.get(key), qb.get(key)
        n_a = int((a or {}).get("n") or 0)
        n_b = int((b or {}).get("n") or 0)
        row: Dict = {"key": key, "n_a": n_a, "n_b": n_b, "shifts": {}}
        if n_a == 0 and n_b == 0:
            continue
        if n_a == 0 and n_b > 0:
            # Empty-vs-nonempty is a *new signal* — quantiles of an empty
            # histogram are all 0.0, so relative shifts are undefined,
            # never a division.
            row.update(status="new_signal", significant=True)
            rows.append(row)
            continue
        if n_b == 0 and n_a > 0:
            row.update(status="gone", significant=True)
            rows.append(row)
            continue
        significant = False
        for metric in _QUANTILE_METRICS:
            va, vb = a.get(metric), b.get(metric)
            if not (_is_number(va) and _is_number(vb)) or va == vb:
                continue
            if va == 0:
                shift = {"a": va, "b": vb, "rel": None,
                         "status": "new_signal"}
                shift_sig = True
            else:
                rel = (vb - va) / abs(va)
                shift = {"a": va, "b": vb, "rel": rel, "status": "changed"}
                shift_sig = abs(rel) >= REL_THRESHOLD
            shift["significant"] = shift_sig
            row["shifts"][metric] = shift
            significant = significant or shift_sig
        if not row["shifts"]:
            continue
        row.update(status="changed", significant=significant)
        rows.append(row)
    rows.sort(key=lambda r: (not r["significant"], r["key"]))
    return rows


# -- fingerprint classifier ---------------------------------------------------

#: every cause the classifier can emit, with its human-readable label
FINGERPRINT_CODES: Dict[str, str] = {
    "workload-shape-changed": "runs measured different workloads",
    "coalesce-efficiency-dropped": "coalescer flush efficiency dropped",
    "server-queue-wait-grew": "server queue-wait grew",
    "transport-charge-grew": "transport charge grew",
    "load-shedding-increased": "load shedding increased",
    "latency-tail-grew": "latency tail grew",
    "throughput-dropped": "throughput dropped",
    "unclassified-change": "significant change, no rule names its cause",
    "no-significant-change": "no significant change",
}


def _counter_signal(rows: List[Dict], fragments: Sequence[str],
                    direction: int) -> Tuple[float, Optional[str]]:
    """Strongest significant counter move matching ``fragments``.

    Returns ``(magnitude, evidence)`` where magnitude is |rel| clamped to
    1.0 (new/gone signals count as 1.0).  ``direction`` +1 matches
    increases, -1 decreases.
    """
    best, evidence = 0.0, None
    for row in rows:
        if not row["significant"]:
            continue
        key = row["key"].lower()
        if not any(frag in key for frag in fragments):
            continue
        rel = row["rel"]
        if rel is None:
            grew = row["status"] == "new_signal"
            if (direction > 0) != grew:
                continue
            magnitude = 1.0
            desc = row["status"].replace("_", " ")
        else:
            if (rel > 0) != (direction > 0):
                continue
            magnitude = min(1.0, abs(rel))
            desc = f"{rel:+.0%}"
        if magnitude > best:
            best = magnitude
            evidence = f"{row['key']} {desc} ({row['a']} -> {row['b']})"
    return best, evidence


def _quantile_signal(rows: List[Dict], fragments: Sequence[str],
                     metrics: Sequence[str],
                     direction: int) -> Tuple[float, Optional[str]]:
    best, evidence = 0.0, None
    for row in rows:
        key = row["key"].lower()
        if not any(frag in key for frag in fragments):
            continue
        if row.get("status") == "new_signal" and direction > 0:
            if 1.0 > best:
                best, evidence = 1.0, f"{row['key']} appeared (new signal)"
            continue
        for metric in metrics:
            shift = row.get("shifts", {}).get(metric)
            if not shift or not shift["significant"]:
                continue
            rel = shift["rel"]
            if rel is None:
                magnitude, desc = 1.0, "new signal"
                if direction < 0:
                    continue
            else:
                if (rel > 0) != (direction > 0):
                    continue
                magnitude, desc = min(1.0, abs(rel)), f"{rel:+.0%}"
            if magnitude > best:
                best = magnitude
                evidence = f"{row['key']}.{metric} {desc}"
    return best, evidence


def _largest_move(diff: Dict) -> str:
    """Evidence for a significant RunDiff that no rule explains: its
    largest significant row (counter rows sort the largest move first)."""
    for row in diff["counters"]["rows"] + diff["quantiles"]["rows"]:
        if row["significant"]:
            rel = row.get("rel")
            return f"{row['key']} " + (row["status"].replace("_", " ")
                                        if rel is None else f"{rel:+.0%}")
    change = diff["config_changes"][0]
    return f"{change['key']}: {change['a']!r} -> {change['b']!r}"


def fingerprint(diff: Dict) -> Dict:
    """Name the dominant cause behind a RunDiff.

    Each candidate cause scores ``weight x magnitude`` from the section
    deltas that support it; the best-scoring cause wins.  Specific causes
    (coalescer efficiency, queue wait, transport charge, shedding)
    outweigh the generic ones (tail grew, throughput dropped),
    so the report names a mechanism whenever the data supports one; a
    significant diff that no rule matches is ``unclassified-change``.
    """
    counters = diff["counters"]["rows"]
    quantiles = diff["quantiles"]["rows"]

    candidates: List[Tuple[float, str, str]] = []

    shape_changes = [c for c in diff["config_changes"]
                     if not c.get("knob")]
    if shape_changes:
        change = shape_changes[0]
        candidates.append((
            100.0, "workload-shape-changed",
            f"{change['key']}: {change['a']!r} -> {change['b']!r}"))

    mag, ev = _counter_signal(counters, ("ops_per_flush",), -1)
    mag2, ev2 = _counter_signal(counters, ("/flushes", "flushes"), +1)
    if mag or mag2:
        candidates.append((10.0 * max(mag, mag2), "coalesce-efficiency-dropped",
                           ev if mag >= mag2 else ev2))

    mag, ev = _counter_signal(counters, ("queue_wait", "server.queue",
                                         "server/queue"), +1)
    mag2, ev2 = _quantile_signal(quantiles, ("queue_wait", "server.queue",
                                             "server.wait"),
                                 ("p99", "p95", "mean"), +1)
    if mag or mag2:
        candidates.append((9.0 * max(mag, mag2), "server-queue-wait-grew",
                           ev if mag > mag2 else ev2))

    mag, ev = _counter_signal(counters, ("transport", "charge"), +1)
    if mag:
        candidates.append((9.0 * mag, "transport-charge-grew", ev))

    mag, ev = _counter_signal(counters, ("shed",), +1)
    if mag:
        candidates.append((8.0 * mag, "load-shedding-increased", ev))

    mag, ev = _quantile_signal(quantiles, ("",), ("p99.9", "p99", "p95"), +1)
    if mag:
        candidates.append((5.0 * mag, "latency-tail-grew", ev))

    mag, ev = _counter_signal(counters, ("ops_per_sim_sec", "speedup",
                                         "throughput"), -1)
    if mag:
        candidates.append((4.0 * mag, "throughput-dropped", ev))

    if not candidates:
        if not diff["significant"]:
            return {"code": "no-significant-change",
                    "label": FINGERPRINT_CODES["no-significant-change"],
                    "evidence": "", "score": 0.0}
        return {"code": "unclassified-change",
                "label": FINGERPRINT_CODES["unclassified-change"],
                "evidence": _largest_move(diff), "score": 0.0}
    candidates.sort(key=lambda c: (-c[0], c[1]))
    score, code, evidence = candidates[0]
    return {
        "code": code,
        "label": FINGERPRINT_CODES[code],
        "evidence": evidence or "",
        "score": score,
        "runners_up": [
            {"code": c, "label": FINGERPRINT_CODES[c], "score": s,
             "evidence": e or ""}
            for s, c, e in candidates[1:4]
        ],
    }


# -- top level ----------------------------------------------------------------

def diff_runs(a_doc: Dict, b_doc: Dict, a_name: str = "A",
              b_name: str = "B") -> Dict:
    """Structured RunDiff between two loaded JSON objects (A = reference)."""
    ca, qa, cfg_a = _flatten_doc(a_doc)
    cb, qb, cfg_b = _flatten_doc(b_doc)

    def _is_knob(key: str) -> bool:
        tail = key.rsplit("/", 1)[-1]
        return tail in _KNOB_KEYS

    config_changes = []
    for key in sorted(set(cfg_a) | set(cfg_b)):
        if cfg_a.get(key) != cfg_b.get(key):
            config_changes.append({"key": key, "a": cfg_a.get(key),
                                   "b": cfg_b.get(key),
                                   "knob": _is_knob(key)})
    for key in _WORKLOAD_KEYS:
        va, vb = ca.get(key), cb.get(key)
        if va != vb:
            config_changes.append({"key": key, "a": va, "b": vb,
                                   "knob": False})
    # Numeric knob settings (rpc_batch_size, aggregation, ...) flatten
    # into the counter dicts, but they are settings, not measurements:
    # report them as knob config changes and keep them out of the
    # counter-delta section.
    knob_keys = [k for k in set(ca) | set(cb) if _is_knob(k)]
    for key in sorted(knob_keys):
        if ca.get(key) != cb.get(key):
            config_changes.append({"key": key, "a": ca.get(key),
                                   "b": cb.get(key), "knob": True})
        ca.pop(key, None)
        cb.pop(key, None)
    seen_cfg = set()
    config_changes = [
        c for c in sorted(config_changes, key=lambda c: c["key"])
        if not (c["key"] in seen_cfg or seen_cfg.add(c["key"]))
    ]
    workload_keys = set(_WORKLOAD_KEYS)
    ca = {k: v for k, v in ca.items() if k not in workload_keys}
    cb = {k: v for k, v in cb.items() if k not in workload_keys}

    counter_rows = _counter_rows(ca, cb)
    quantile_rows = _quantile_rows(qa, qb)

    n_sig_counters = sum(1 for r in counter_rows if r["significant"])
    n_sig_quantiles = sum(1 for r in quantile_rows if r["significant"])
    diff: Dict = {
        "kind": "run_diff",
        "a": {"name": a_name, "benchmark": a_doc.get("benchmark")},
        "b": {"name": b_name, "benchmark": b_doc.get("benchmark")},
        "rel_threshold": REL_THRESHOLD,
        "config_changes": config_changes,
        "counters": {
            "rows": counter_rows[:max(TOP_ROWS, n_sig_counters)],
            "total": len(counter_rows),
            "significant": n_sig_counters,
        },
        "quantiles": {
            "rows": quantile_rows[:max(TOP_ROWS, n_sig_quantiles)],
            "total": len(quantile_rows),
            "significant": n_sig_quantiles,
        },
    }
    diff["significant"] = bool(config_changes or n_sig_counters
                               or n_sig_quantiles)
    diff["fingerprint"] = fingerprint(diff)
    return diff


def diff_paths(a_path: str, b_path: str) -> Dict:
    """Load two report or snapshot files and diff them (A = reference)."""
    return diff_runs(load_artifact(a_path), load_artifact(b_path),
                     a_name=a_path, b_name=b_path)


# -- rendering ----------------------------------------------------------------

def _fmt_val(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_diff(diff: Dict) -> str:
    """Markdown forensics report for one RunDiff."""
    fp = diff["fingerprint"]
    lines = [
        f"## Run forensics: {diff['a']['name']} vs {diff['b']['name']}",
        "",
        f"- benchmarks: `{_fmt_val(diff['a']['benchmark'])}` vs "
        f"`{_fmt_val(diff['b']['benchmark'])}`",
        f"- significant change: **{'yes' if diff['significant'] else 'no'}**"
        f" (threshold {diff['rel_threshold']:.0%})",
        f"- **fingerprint: {fp['label']}** (`{fp['code']}`)"
        + (f" — {fp['evidence']}" if fp.get("evidence") else ""),
    ]
    if diff["config_changes"]:
        lines += ["", "### Workload / config changes", ""]
        for change in diff["config_changes"][:MAX_ROWS]:
            lines.append(f"- `{change['key']}`: {change['a']!r} -> "
                         f"{change['b']!r}")
    rows = [r for r in diff["counters"]["rows"]][:MAX_ROWS]
    if rows:
        lines += ["", "### Counter deltas "
                  f"({diff['counters']['significant']} significant of "
                  f"{diff['counters']['total']} changed)", "",
                  "| metric | A | B | Δ | rel | status |",
                  "|---|---|---|---|---|---|"]
        for r in rows:
            rel = f"{r['rel']:+.1%}" if r["rel"] is not None else "-"
            flag = "**" if r["significant"] else ""
            lines.append(
                f"| {flag}`{r['key']}`{flag} | {_fmt_val(r['a'])} | "
                f"{_fmt_val(r['b'])} | {_fmt_val(r['delta'])} | {rel} | "
                f"{r['status']} |")
    qrows = diff["quantiles"]["rows"][:MAX_ROWS]
    if qrows:
        lines += ["", "### Histogram / quantile shifts "
                  f"({diff['quantiles']['significant']} significant of "
                  f"{diff['quantiles']['total']} changed)", ""]
        for r in qrows:
            if r["status"] in ("new_signal", "gone"):
                lines.append(f"- `{r['key']}`: **{r['status'].replace('_', ' ')}**"
                             f" (n {r['n_a']} -> {r['n_b']})")
                continue
            def _shift_txt(m, s):
                rel = ("new" if s["rel"] is None else
                       format(s["rel"], "+.0%"))
                return f"{m} {s['a']:.4g}->{s['b']:.4g} ({rel})"
            shifts = ", ".join(
                _shift_txt(m, s)
                for m, s in r["shifts"].items() if s["significant"]
            ) or ", ".join(_shift_txt(m, s)
                           for m, s in list(r["shifts"].items())[:3])
            lines.append(f"- `{r['key']}` (n {r['n_a']}->{r['n_b']}): {shifts}")
    if fp.get("runners_up"):
        lines += ["", "### Runner-up causes", ""]
        for r in fp["runners_up"]:
            lines.append(f"- {r['label']} (`{r['code']}`, score "
                         f"{r['score']:.2f})"
                         + (f" — {r['evidence']}" if r["evidence"] else ""))
    lines.append("")
    return "\n".join(lines)
