"""Exporters: span JSON-lines, Chrome ``trace_event``, plain JSON.

Three output formats, all plain JSON so nothing outside the standard
library is needed:

* **Span log** (``write_span_jsonl``) — one JSON object per line per
  finished span.  Stable field order, deterministic ids: the CI
  determinism leg diffs two logs byte-for-byte.
* **Chrome trace** (``write_chrome_trace``) — the ``trace_event`` JSON
  array format.  Load it at https://ui.perfetto.dev ("Open trace file")
  to see the per-stage timeline; each simulated node renders as a
  process, each RPC trace as a track.
* **JSON artifact** (``write_json``) — utf-8, ``indent=2``, sorted
  keys, trailing newline.  Every other JSON file in the tree (bench
  reports, registry ``snapshot()`` dicts, flight payloads, run diffs)
  goes through it, so same-seed reruns byte-diff clean.

``SPAN_SCHEMA`` is a JSON-Schema-style description of one span-log line,
and ``validate_span_log`` / ``validate_chrome_trace`` check real output
against it with a small pure-Python validator (the container has no
``jsonschema`` package, and the subset we need is tiny).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.obs.span import Span

__all__ = [
    "SPAN_SCHEMA",
    "chrome_trace",
    "span_record",
    "validate_chrome_trace",
    "validate_span_log",
    "write_chrome_trace",
    "write_json",
    "write_span_jsonl",
]

#: seconds -> microseconds (Chrome trace_event timestamps are in µs)
_US = 1e6

#: Chrome-trace process name of simulated node N: ``node<N>``
PROCESS_PREFIX = "node"


def write_json(payload, path: str) -> str:
    """Write one JSON artifact in the repo's diffable form; returns ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- span JSON-lines ----------------------------------------------------------

#: JSON-Schema (draft-ish subset) for one span-log line.
SPAN_SCHEMA: Dict = {
    "type": "object",
    "required": ["trace_id", "span_id", "parent_id", "name",
                 "node", "start", "end", "dur"],
    "properties": {
        "trace_id": {"type": "integer", "minimum": 1},
        "span_id": {"type": "integer", "minimum": 1},
        "parent_id": {"type": ["integer", "null"]},
        "name": {"type": "string", "minLength": 1},
        "node": {"type": ["integer", "null"]},
        "start": {"type": "number", "minimum": 0},
        "end": {"type": "number", "minimum": 0},
        "dur": {"type": "number", "minimum": 0},
        "attrs": {"type": "object"},
    },
    "additionalProperties": False,
}


def span_record(span: Span) -> Dict:
    """The JSON-lines record for one finished span (stable key order)."""
    rec = {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "node": span.node,
        "start": span.start,
        "end": span.end,
        "dur": span.end - span.start,
    }
    if span.attrs:
        rec["attrs"] = {k: span.attrs[k] for k in sorted(span.attrs)}
    return rec


def write_span_jsonl(spans: Iterable[Span], path: str) -> int:
    """Write finished spans as JSON-lines; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            if not span.finished:
                continue
            fh.write(json.dumps(span_record(span), sort_keys=False))
            fh.write("\n")
            n += 1
    return n


# -- Chrome trace_event -------------------------------------------------------

def chrome_trace(spans: Iterable[Span], pid_base: int = 0) -> List[Dict]:
    """Spans as Chrome ``trace_event`` objects (the JSON-array format).

    Each span becomes an ``"X"`` (complete) event with microsecond
    ``ts``/``dur``; ``pid`` is the simulated node (+ ``pid_base``, so a
    multi-run export can give every run a disjoint pid range) and ``tid``
    the trace id, so one RPC's stages share a track and nest visually by
    interval containment.  ``"M"`` metadata events name each process.
    """
    events: List[Dict] = []
    pids_seen: Dict[int, Optional[int]] = {}
    for span in spans:
        if not span.finished:
            continue
        node = span.node
        pid = pid_base + (node if node is not None else 999)
        pids_seen.setdefault(pid, node)
        event: Dict = {
            "name": span.name,
            "cat": "rpc" if span.parent_id is None else "stage",
            "ph": "X",
            "ts": span.start * _US,
            "dur": (span.end - span.start) * _US,
            "pid": pid,
            "tid": span.trace_id,
        }
        args: Dict = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        for key in sorted(span.attrs):
            args[key] = span.attrs[key]
        event["args"] = args
        events.append(event)
    meta: List[Dict] = []
    for pid in sorted(pids_seen):
        node = pids_seen[pid]
        label = f"{PROCESS_PREFIX}{node if node is not None else '?'}"
        meta.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        })
    return meta + events


def write_chrome_trace(spans: Iterable[Span], path: str,
                       pid_base: int = 0) -> int:
    """Write spans as a Chrome/Perfetto trace file; returns event count."""
    events = chrome_trace(spans, pid_base=pid_base)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events,
                   "displayTimeUnit": "ms"}, fh, indent=1)
        fh.write("\n")
    return len(events)


# -- validation ---------------------------------------------------------------

def _check(value, schema: Dict, where: str, errors: List[str]) -> None:
    """Validate ``value`` against the JSON-Schema subset we use."""
    expected = schema.get("type")
    if expected is not None:
        kinds = expected if isinstance(expected, list) else [expected]
        ok = False
        for kind in kinds:
            if kind == "object" and isinstance(value, dict):
                ok = True
            elif kind == "string" and isinstance(value, str):
                ok = True
            elif kind == "integer" and isinstance(value, int) \
                    and not isinstance(value, bool):
                ok = True
            elif kind == "number" and isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                ok = True
            elif kind == "null" and value is None:
                ok = True
            elif kind == "array" and isinstance(value, list):
                ok = True
            elif kind == "boolean" and isinstance(value, bool):
                ok = True
        if not ok:
            errors.append(f"{where}: expected {expected}, "
                          f"got {type(value).__name__}")
            return
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{where}: {value} < minimum {schema['minimum']}")
    if "minLength" in schema and isinstance(value, str) \
            and len(value) < schema["minLength"]:
        errors.append(f"{where}: shorter than minLength {schema['minLength']}")
    if isinstance(value, dict):
        for field in schema.get("required", ()):
            if field not in value:
                errors.append(f"{where}: missing required field {field!r}")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in value:
                _check(value[key], sub, f"{where}.{key}", errors)
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in props:
                    errors.append(f"{where}: unexpected field {key!r}")


def validate_span_log(path: str) -> List[str]:
    """Validate a span JSON-lines file; returns a list of error strings.

    Beyond the schema, cross-field invariants are checked: ``end >=
    start``, ``dur == end - start``, and every non-null ``parent_id``
    refers to a span that appears in the same log.
    """
    errors: List[str] = []
    span_ids = set()
    parents: List[tuple] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                errors.append(f"line {lineno}: invalid JSON ({exc})")
                continue
            _check(rec, SPAN_SCHEMA, f"line {lineno}", errors)
            if not isinstance(rec, dict):
                continue
            start, end, dur = rec.get("start"), rec.get("end"), rec.get("dur")
            if isinstance(start, (int, float)) and isinstance(end, (int, float)):
                if end < start:
                    errors.append(f"line {lineno}: end {end} < start {start}")
                if isinstance(dur, (int, float)) \
                        and abs(dur - (end - start)) > 1e-12:
                    errors.append(f"line {lineno}: dur {dur} != end - start")
            if isinstance(rec.get("span_id"), int):
                span_ids.add(rec["span_id"])
            if isinstance(rec.get("parent_id"), int):
                parents.append((lineno, rec["parent_id"]))
    for lineno, pid in parents:
        if pid not in span_ids:
            errors.append(f"line {lineno}: parent_id {pid} not in log")
    return errors


_CHROME_EVENT_SCHEMA: Dict = {
    "type": "object",
    "required": ["name", "ph", "pid", "tid"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "cat": {"type": "string"},
        "ph": {"type": "string", "minLength": 1},
        "ts": {"type": "number", "minimum": 0},
        "dur": {"type": "number", "minimum": 0},
        "pid": {"type": "integer", "minimum": 0},
        "tid": {"type": "integer", "minimum": 0},
        "args": {"type": "object"},
    },
    "additionalProperties": False,
}


def validate_chrome_trace(path: str) -> List[str]:
    """Validate a Chrome trace file; returns a list of error strings."""
    errors: List[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        return [f"invalid JSON: {exc}"]
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["top level must be an object with a traceEvents array"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents must be an array"]
    for i, event in enumerate(events):
        _check(event, _CHROME_EVENT_SCHEMA, f"event {i}", errors)
        if isinstance(event, dict) and event.get("ph") == "X" \
                and "ts" not in event:
            errors.append(f"event {i}: complete event missing ts")
    return errors
